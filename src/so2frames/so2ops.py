"""SO(2)-equivariant building blocks: Linear, Gate, LayerNorm, Tensor
Product (pairwise and v-fold chains), and the off-diagonal feed-forward
composition.

Every operation commutes with per-order planar rotations and is built on
the autodiff primitives, so gradients with respect to inputs and
parameters come from the same code path.  LayerNorm (one primitive per
block) and the small MLP (one per call) are fused autodiff primitives
with hand-written VJPs: their forward passes run the numpy expressions
of the primitive chains they replace, in the same order, so values are
unchanged while the tape records far fewer nodes.

Blocks follow the container conventions of :mod:`so2frames.irreps`:
order m > 0 pairs are ``(x_{-m}, x_{+m})`` read as the complex number
``x_{+m} + i x_{-m}``.  Blocks may carry leading batch axes: every
operation indexes components on axis -1 and channels on axis -2, so one
call acts on all nodes or all edges at once, and each item's result
depends only on that item.  Counter increments scale with the number of
items.

Weights live in a flat ``{name: array}`` dict: each operation reads its
own under a name prefix, and the ``init_*`` helpers write them there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .counters import OpCounter
from .irreps import IrrepsLayout, So2Features, batch_size, so2_layout


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def uniform_init(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draw in +-1/sqrt(fan_in); fan_in is the last axis."""
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_mlp(params: dict, prefix: str, sizes, rng: np.random.Generator) -> dict:
    """Write ``{prefix}/{k}/W`` (out, in) and zero ``{prefix}/{k}/b`` per layer."""
    for k, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        params[f"{prefix}/{k}/W"] = uniform_init(rng, (n_out, n_in))
        params[f"{prefix}/{k}/b"] = np.zeros(n_out)
    return params


def init_so2_linear(params: dict, prefix: str, in_layout: IrrepsLayout,
                    out_layout: IrrepsLayout, rng: np.random.Generator) -> dict:
    """Write ``{prefix}/{m}/w1`` (and ``w2`` for m > 0) per output order."""
    for m in out_layout.indices:
        c_in, c_out = in_layout.mult(m), out_layout.mult(m)
        if c_in == 0:
            raise ValueError(f"input layout lacks order {m}")
        params[f"{prefix}/{m}/w1"] = uniform_init(rng, (c_out, c_in))
        if m > 0:
            params[f"{prefix}/{m}/w2"] = uniform_init(rng, (c_out, c_in))
    return params


def init_so2_gate(params: dict, prefix: str, layout: IrrepsLayout,
                  rng: np.random.Generator) -> dict:
    """Write the gate MLP ``{prefix}/mlp`` for an SO(2) or SO(3) layout."""
    c0 = layout.mult(0)
    if c0 == 0:
        raise ValueError("gate needs m = 0 channels")
    n_gates = sum(c for m, c in layout.entries if m > 0)
    return init_mlp(params, f"{prefix}/mlp", [c0, c0, c0, c0 + n_gates], rng)


def init_so2_layernorm(params: dict, prefix: str, layout: IrrepsLayout) -> dict:
    """Write identity affines: ``{prefix}/{m}/g`` ones, ``{prefix}/{m}/b`` zeros."""
    for m, c in layout.entries:
        params[f"{prefix}/{m}/g"] = np.ones(c)
        params[f"{prefix}/{m}/b"] = np.zeros(c)
    return params


def init_so2_ffn(params: dict, prefix: str, in_layout: IrrepsLayout,
                 hidden_layout: IrrepsLayout, out_layout: IrrepsLayout,
                 rng: np.random.Generator) -> dict:
    """Write ``{prefix}/lin1`` (on the doubled pair input), ``gate``, ``lin2``."""
    doubled = so2_layout([(m, 2 * c) for m, c in in_layout.entries])
    init_so2_linear(params, f"{prefix}/lin1", doubled, hidden_layout, rng)
    init_so2_gate(params, f"{prefix}/gate", hidden_layout, rng)
    return init_so2_linear(params, f"{prefix}/lin2", hidden_layout, out_layout, rng)


# ---------------------------------------------------------------------------
# small MLP (used by gates and by the model's invariant tracks)
# ---------------------------------------------------------------------------

def mlp(v, params: dict, prefix: str):
    """Fully connected net ``{prefix}/{k}/W|b``: SiLU on hidden layers, linear output.

    ``v`` holds its features on axis -2 as a column, ``(..., in, 1)``, and
    the result is ``(..., out, 1)``.  One fused autodiff primitive whose
    parents are ``v`` and every weight and bias.
    """
    n = 0
    while f"{prefix}/{n}/W" in params:
        n += 1
    weights = [params[f"{prefix}/{k}/{w}"] for k in range(n) for w in ("W", "b")]
    values = [ad.value_of(w) for w in weights]
    inputs, hidden = [], []
    out = ad.value_of(v)
    for k in range(n):
        inputs.append(out)
        out = values[2 * k] @ out + values[2 * k + 1].reshape(-1, 1)
        if k != n - 1:
            sig = 1.0 / (1.0 + np.exp(-out))
            hidden.append((out, sig))
            out = out * sig

    def vjp(g):
        grads = [None] * (2 * n + 1)
        for k in reversed(range(n)):
            if k != n - 1:
                pre, sig = hidden[k]
                g = g * sig * (1.0 + pre * (1.0 - sig))
            a = inputs[k]
            rows = np.swapaxes(g, -1, -2).reshape(-1, g.shape[-2])
            grads[2 * k + 1] = rows.T @ np.swapaxes(a, -1, -2).reshape(-1, a.shape[-2])
            grads[2 * k + 2] = rows.sum(axis=0)
            g = np.swapaxes(values[2 * k], -1, -2) @ g
        grads[0] = g
        return grads

    return ad.primitive(out, (v, *weights), vjp)


# ---------------------------------------------------------------------------
# SO(2) Linear
# ---------------------------------------------------------------------------

# multiplication by i of x_{+m} + i x_{-m}: (x_{-m}, x_{+m}) -> (x_{+m}, -x_{-m})
_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def so2_linear(x: So2Features, params: dict, prefix: str,
               counter: OpCounter | None = None) -> So2Features:
    """Per-order complex linear map without bias (block-matrix form).

    Order m reads ``{prefix}/{m}/w1`` and, for m > 0, ``{prefix}/{m}/w2``,
    both of shape (C_out, C_in); orders without weights are dropped.  The
    action per order is

        z_{-m} = w1 x_{-m} + w2 x_{+m}
        z_{+m} = -w2 x_{-m} + w1 x_{+m}

    i.e. the complex product (w1 + i w2)(x_{+m} + i x_{-m}).
    """
    entries = []
    blocks = []
    for m, block in x.items():
        w1 = params.get(f"{prefix}/{m}/w1")
        if w1 is None:
            continue
        c_out, c_in = ad.value_of(w1).shape
        if c_in != x.layout.mult(m):
            raise ValueError(f"order {m}: weight expects {c_in} channels, "
                             f"input has {x.layout.mult(m)}")
        if m == 0:
            out = ad.matmul(w1, block)
            if counter is not None:
                counter.add("so2_linear", c_out * c_in * batch_size(block))
        else:
            # (w1 + i w2) x = w1 x + w2 (i x)
            turned = ad.matmul(block, _TURN)
            out = ad.add(ad.matmul(w1, block), ad.matmul(params[f"{prefix}/{m}/w2"], turned))
            if counter is not None:
                counter.add("so2_linear", 4 * c_out * c_in * batch_size(block))
        entries.append((m, c_out))
        blocks.append(out)
    return So2Features(so2_layout(entries), blocks)


# ---------------------------------------------------------------------------
# Gate and LayerNorm (SO(2) orders or SO(3) degrees)
# ---------------------------------------------------------------------------

def so2_gate(x, params: dict, prefix: str):
    """Gate activation: MLP on the m = 0 channels; sigmoid gates for m > 0.

    ``x`` is So2Features or So3Features (index 0 holds the invariant
    channels either way) and the result has the same type and layout.
    The MLP ``{prefix}/mlp`` sees every m = 0 channel (whatever degree it
    came from), emits the new m = 0 features and one pre-sigmoid gate
    scalar per m > 0 channel; each m > 0 channel is scaled by its sigmoid
    gate.
    """
    c0 = x.layout.mult(0)
    out = mlp(x.block(0), params, f"{prefix}/mlp")
    gated = [(m, c) for m, c in x.layout.entries if m > 0]
    if ad.value_of(out).shape[-2] != c0 + sum(c for _, c in gated):
        raise ValueError("gate MLP output width mismatch")
    blocks = [ad.take(out, (..., slice(0, c0), slice(None)))]
    gates = ad.sigmoid(ad.take(out, (..., slice(c0, None), slice(None))))
    offset = 0
    for m, c in gated:
        blocks.append(ad.mul(x.block(m), ad.take(gates, (..., slice(offset, offset + c),
                                                         slice(None)))))
        offset += c
    return type(x)(x.layout, blocks)


LN_EPS = 1e-8


def so2_layernorm(x, params: dict, prefix: str):
    """Norm-based layer normalization with affine ``{prefix}/{m}/g|b``.

    ``x`` is So2Features or So3Features; the result has the same type.
    m = 0: standard LayerNorm across channels.  m > 0: each channel keeps
    its direction while its norm is standardized across channels and then
    rescaled: ``x / norm * ((norm - mean) / std * g + b)``.  The
    stabilizer enters as eps^2 under the square roots, so unit-variance
    and scale-invariance hold to near machine precision for O(1) inputs.
    Each block is one fused autodiff primitive.
    """
    blocks = [_layernorm_block(block, params[f"{prefix}/{m}/g"], params[f"{prefix}/{m}/b"],
                               x.layout.mult(m), m > 0)
              for m, block in x.items()]
    return type(x)(x.layout, blocks)


def _layernorm_block(block, g, b, c: int, directional: bool):
    """One block of :func:`so2_layernorm` with parents ``(block, g, b)``.

    The standardized quantity ``y`` is the block itself (m = 0) or its
    per-channel norm (m > 0).  The adjoint takes the chain rule through
    the forward steps one by one, in reverse.  With two channels the
    standardized values hardly depend on the input, so the adjoint is a
    difference of nearly equal terms; the step-by-step chain keeps its
    rounding close to that of the unfused tape.
    """
    eps = LN_EPS
    vx = ad.value_of(block)
    g_col, b_col = ad.value_of(g).reshape(c, 1), ad.value_of(b).reshape(c, 1)
    if directional:
        norm = np.sqrt((vx * vx).sum(axis=-1, keepdims=True) + eps * eps)   # (..., C, 1)
        direction = vx / norm
        y = norm
    else:
        y = vx
    centered = y - y.mean(axis=-2, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-2, keepdims=True) + eps * eps)
    scaled = centered / std
    affine = scaled * g_col + b_col
    out = direction * affine if directional else affine

    def vjp(grad):
        if directional:
            d_dir = grad * affine
            grad = (grad * direction).sum(axis=-1, keepdims=True)
        axes = tuple(range(grad.ndim - 2)) + (grad.ndim - 1,)
        d_g, d_b = (grad * scaled).sum(axis=axes), grad.sum(axis=axes)
        d_scaled = grad * g_col
        d_var = (-d_scaled * centered / (std * std)).sum(axis=-2, keepdims=True) / (2.0 * std)
        from_var = d_var / c * centered   # reaches centered twice, through centered**2
        d_centered = d_scaled / std + from_var + from_var
        d_y = d_centered - d_centered.sum(axis=-2, keepdims=True) / c
        if not directional:
            return d_y, d_g, d_b
        d_norm = d_y + (-d_dir * vx / (norm * norm)).sum(axis=-1, keepdims=True)
        from_sq = d_norm / (2.0 * norm) * vx   # likewise, through vx**2
        return d_dir / norm + from_sq + from_sq, d_g, d_b

    return ad.primitive(out, (block, g, b), vjp)


# ---------------------------------------------------------------------------
# SO(2) Tensor Product
# ---------------------------------------------------------------------------

def so2_tp_pair(x1, m1: int, x2, m2: int, sign: int,
                counter: OpCounter | None = None):
    """Pairwise tensor product of two order blocks, channel-wise.

    sign +1 fuses to order m1 + m2 (complex product x1 * x2); sign -1
    requires m1 > m2 and fuses to m1 - m2 (complex product x1 * conj(x2)).
    m = 0 operands act as real scalars.  Returns (block, m_out).
    """
    c1 = ad.value_of(x1).shape[-2]
    c2 = ad.value_of(x2).shape[-2]
    if c1 != c2:
        raise ValueError(f"channel mismatch: {c1} vs {c2}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == -1 and m1 <= m2:
        raise ValueError(f"difference path needs m1 > m2, got {m1} <= {m2}")
    items = batch_size(x1)
    if m2 == 0:
        scalar = x2  # (..., C, 1) broadcasts over the pair columns
        out = ad.mul(x1, scalar)
        if counter is not None:
            counter.add("so2_tp", c1 * (2 if m1 > 0 else 1) * items)
        return out, m1
    if m1 == 0:
        out = ad.mul(x2, x1)
        if counter is not None:
            counter.add("so2_tp", c1 * 2 * items)
        return out, m2
    # x1 * x2 = x1 b+ + (i x1) b- and x1 * conj(x2) = x1 b+ - (i x1) b-
    b_m = ad.take(x2, (..., slice(0, 1)))
    b_p = ad.take(x2, (..., slice(1, 2)))
    turned = ad.mul(ad.matmul(x1, _TURN), b_m)
    out = (ad.add if sign == +1 else ad.sub)(ad.mul(x1, b_p), turned)
    if counter is not None:
        counter.add("so2_tp", 4 * c1 * items)
    return out, m1 + sign * m2


@dataclass(frozen=True)
class So2TpPath:
    """One v-fold fusion path.

    ``orders`` are the input orders (m_1, ..., m_v); ``signs`` the per
    factor signs with the first fixed to +1; ``intermediates`` the
    realized orders |e_k| after each chained pair product, all within
    [0, M_max]; ``m_out`` the final order |sum_k s_k m_k|.
    """

    orders: tuple[int, ...]
    signs: tuple[int, ...]
    intermediates: tuple[int, ...]
    m_out: int


def enumerate_tp_paths(m_max: int, v: int) -> list[So2TpPath]:
    """All valid fusion paths for v feature sets with orders <= m_max.

    Paths chain left to right; each step either adds (sum path) or
    subtracts (difference path, strict inequality of the two orders)
    the next order.  Steps with a zero-order operand collapse to the sum
    form (the conjugate of a real scalar is itself), so their sign is
    fixed to +1; steps whose two nonzero orders would cancel exactly are
    excluded (the pairwise products cannot produce them), as are
    intermediate orders above m_max.  The list is deterministic
    lexicographic in (orders, signs) with +1 before -1, and free of
    duplicates by construction.
    """
    if v < 2:
        raise ValueError(f"tensor product arity must be >= 2, got {v}")
    paths = []
    for orders in itertools.product(range(m_max + 1), repeat=v):
        def extend(k, exponent, signs, inters):
            if k == v:
                paths.append(So2TpPath(orders, tuple(signs), tuple(inters), abs(exponent)))
                return
            m = orders[k]
            for s in (+1, -1):
                if s == -1 and (m == 0 or exponent == 0):
                    continue  # collapses to the sum form
                e = exponent + s * m
                if e == 0 and m != 0:
                    continue  # would need a difference of equal orders
                if abs(e) > m_max:
                    continue
                extend(k + 1, e, signs + [s], inters + [abs(e)])

        extend(1, orders[0], [+1], [orders[0]])
    return paths


def so2_tp_contract(features, paths, weights,
                    counter: OpCounter | None = None) -> So2Features:
    """Weighted sum of chained pairwise products over the given paths.

    ``features`` is a sequence of v So2Features sharing one layout with a
    uniform channel count; ``weights`` is a sequence of per-path channel
    weight arrays of shape (C,).  Path outputs accumulate by final order;
    the result keeps the shared layout.
    """
    features = list(features)
    layout = features[0].layout
    for f in features[1:]:
        if f.layout != layout:
            raise ValueError("all tensor product inputs must share a layout")
    mults = {c for _, c in layout.entries}
    if len(mults) != 1:
        raise ValueError("tensor product layout must have uniform multiplicity")
    channels = mults.pop()
    batch = features[0].batch_shape
    if len(weights) != len(paths):
        raise ValueError(f"{len(paths)} paths but {len(weights)} weight arrays")
    arity = len(features)
    acc: dict[int, list] = {m: [] for m in layout.indices}
    for path, w in zip(paths, weights):
        if len(path.orders) != arity:
            raise ValueError(f"path arity {len(path.orders)} != {arity} inputs")
        block = features[0].block(path.orders[0])
        exponent = path.orders[0]
        for k in range(1, arity):
            m = path.orders[k]
            s = path.signs[k]
            other = features[k].block(m)
            if s == +1:
                if exponent >= 0:
                    block, _ = so2_tp_pair(block, exponent, other, m, +1, counter)
                elif -exponent > m:
                    block, _ = so2_tp_pair(block, -exponent, other, m, -1, counter)
                else:
                    block, _ = so2_tp_pair(other, m, block, -exponent, -1, counter)
                exponent += m
            else:
                if exponent >= 0:
                    if exponent > m:
                        block, _ = so2_tp_pair(block, exponent, other, m, -1, counter)
                    else:
                        block, _ = so2_tp_pair(other, m, block, exponent, -1, counter)
                else:
                    block, _ = so2_tp_pair(block, -exponent, other, m, +1, counter)
                exponent -= m
        m_out = abs(exponent)
        if m_out != path.m_out:
            raise AssertionError("path bookkeeping mismatch")
        weighted = ad.mul(block, ad.reshape(w, (channels, 1)))
        if counter is not None:
            counter.add("so2_tp", channels * (2 if m_out > 0 else 1) * math.prod(batch))
        acc[m_out].append(weighted)
    return So2Features(layout, [functools.reduce(ad.add, acc[m]) if acc[m]
                                else np.zeros(batch + layout.block_shape(m))
                                for m in layout.indices])


# ---------------------------------------------------------------------------
# off-diagonal feed-forward
# ---------------------------------------------------------------------------

def concat_orders(a: So2Features, b: So2Features) -> So2Features:
    """Concatenate two feature sets channel-wise per order."""
    if a.layout.indices != b.layout.indices:
        raise ValueError("order sets differ")
    entries = []
    blocks = []
    for (m, ca), (_, cb) in zip(a.layout.entries, b.layout.entries):
        entries.append((m, ca + cb))
        blocks.append(ad.concat([a.block(m), b.block(m)], axis=-2))
    return So2Features(so2_layout(entries), blocks)


def so2_ffn(m_i: So2Features, m_j: So2Features, params: dict, prefix: str,
            counter: OpCounter | None = None) -> So2Features:
    """Off-diagonal update: Linear(Gate(Linear(m_i || m_j))).

    Weights are read under ``{prefix}/lin1``, ``{prefix}/gate`` and
    ``{prefix}/lin2``.
    """
    if m_i.layout != m_j.layout:
        raise ValueError("pair inputs must share a layout")
    stacked = concat_orders(m_i, m_j)
    hidden = so2_gate(so2_linear(stacked, params, f"{prefix}/lin1", counter),
                      params, f"{prefix}/gate")
    return so2_linear(hidden, params, f"{prefix}/lin2", counter)
