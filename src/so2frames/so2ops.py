"""SO(2)-equivariant building blocks: Linear, Gate, LayerNorm, Tensor
Product (pairwise and v-fold chains), and the off-diagonal feed-forward
composition.

Every operation commutes with per-order planar rotations and is built on
the autodiff primitives, so gradients with respect to inputs and
parameters come from the same code path.  Blocks follow the container
conventions of :mod:`so2frames.irreps`: order m > 0 pairs are
``(x_{-m}, x_{+m})`` read as the complex number ``x_{+m} + i x_{-m}``.

Weights live in a flat ``{name: array}`` dict: each operation reads its
own under a name prefix, and the ``init_*`` helpers write them there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .counters import OpCounter
from .irreps import IrrepsLayout, So2Features, so2_layout


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
    """Fully connected net ``{prefix}/{k}/W|b``: SiLU on hidden layers, linear output."""
    n = 0
    while f"{prefix}/{n}/W" in params:
        n += 1
    out = v
    for k in range(n):
        out = ad.add(ad.matmul(params[f"{prefix}/{k}/W"], out), params[f"{prefix}/{k}/b"])
        if k != n - 1:
            out = ad.silu(out)
    return out


# ---------------------------------------------------------------------------
# SO(2) Linear
# ---------------------------------------------------------------------------

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
                counter.add("so2_linear", c_out * c_in)
        else:
            w2 = params[f"{prefix}/{m}/w2"]
            a = ad.matmul(w1, block)   # (C_out, 2): (w1 x-, w1 x+)
            b = ad.matmul(w2, block)   # (C_out, 2): (w2 x-, w2 x+)
            minus = ad.add(ad.take(a, (slice(None), slice(0, 1))),
                           ad.take(b, (slice(None), slice(1, 2))))
            plus = ad.sub(ad.take(a, (slice(None), slice(1, 2))),
                          ad.take(b, (slice(None), slice(0, 1))))
            out = ad.concat([minus, plus], axis=1)
            if counter is not None:
                counter.add("so2_linear", 4 * c_out * c_in)
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
    v = ad.reshape(x.block(0), (c0,))
    out = mlp(v, params, f"{prefix}/mlp")
    gated = [(m, c) for m, c in x.layout.entries if m > 0]
    if ad.value_of(out).shape[0] != c0 + sum(c for _, c in gated):
        raise ValueError("gate MLP output width mismatch")
    blocks = [ad.reshape(ad.take(out, slice(0, c0)), (c0, 1))]
    offset = c0
    for m, c in gated:
        gates = ad.sigmoid(ad.take(out, slice(offset, offset + c)))
        offset += c
        blocks.append(ad.mul(x.block(m), ad.reshape(gates, (c, 1))))
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
    """
    eps = LN_EPS
    blocks = []
    for m, block in x.items():
        g = params[f"{prefix}/{m}/g"]
        b = params[f"{prefix}/{m}/b"]
        c = x.layout.mult(m)
        if m == 0:
            mu = ad.mean_axis(block, axis=0, keepdims=True)
            centered = ad.sub(block, mu)
            var = ad.mean_axis(ad.mul(centered, centered), axis=0, keepdims=True)
            normed = ad.div(centered, ad.sqrt(ad.add(var, eps * eps)))
            out = ad.add(ad.mul(normed, ad.reshape(g, (c, 1))),
                         ad.reshape(b, (c, 1)))
        else:
            sq = ad.sum_axis(ad.mul(block, block), axis=1, keepdims=True)
            norm = ad.sqrt(ad.add(sq, eps * eps))           # (C, 1)
            direction = ad.div(block, norm)
            mu = ad.mean_axis(norm, axis=0, keepdims=True)
            centered = ad.sub(norm, mu)
            var = ad.mean_axis(ad.mul(centered, centered), axis=0, keepdims=True)
            scaled = ad.div(centered, ad.sqrt(ad.add(var, eps * eps)))
            affine = ad.add(ad.mul(scaled, ad.reshape(g, (c, 1))),
                            ad.reshape(b, (c, 1)))
            out = ad.mul(direction, affine)
        blocks.append(out)
    return type(x)(x.layout, blocks)


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
    c1 = ad.value_of(x1).shape[0]
    c2 = ad.value_of(x2).shape[0]
    if c1 != c2:
        raise ValueError(f"channel mismatch: {c1} vs {c2}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == -1 and m1 <= m2:
        raise ValueError(f"difference path needs m1 > m2, got {m1} <= {m2}")
    if m2 == 0:
        scalar = x2  # (C, 1) broadcasts over the pair columns
        out = ad.mul(x1, scalar)
        if counter is not None:
            counter.add("so2_tp", c1 * (2 if m1 > 0 else 1))
        return out, m1
    if m1 == 0:
        out = ad.mul(x2, x1)
        if counter is not None:
            counter.add("so2_tp", c1 * 2)
        return out, m2
    a_m = ad.take(x1, (slice(None), slice(0, 1)))
    a_p = ad.take(x1, (slice(None), slice(1, 2)))
    b_m = ad.take(x2, (slice(None), slice(0, 1)))
    b_p = ad.take(x2, (slice(None), slice(1, 2)))
    if sign == +1:
        minus = ad.add(ad.mul(a_m, b_p), ad.mul(a_p, b_m))
        plus = ad.sub(ad.mul(a_p, b_p), ad.mul(a_m, b_m))
        m_out = m1 + m2
    else:
        minus = ad.sub(ad.mul(a_m, b_p), ad.mul(a_p, b_m))
        plus = ad.add(ad.mul(a_p, b_p), ad.mul(a_m, b_m))
        m_out = m1 - m2
    if counter is not None:
        counter.add("so2_tp", 4 * c1)
    return ad.concat([minus, plus], axis=1), m_out


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
            counter.add("so2_tp", channels * (2 if m_out > 0 else 1))
        acc[m_out].append(weighted)
    blocks = []
    for m in layout.indices:
        if acc[m]:
            total = acc[m][0]
            for term in acc[m][1:]:
                total = ad.add(total, term)
        else:
            total = np.zeros(layout.block_shape(m))
        blocks.append(total)
    return So2Features(layout, blocks)


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
        blocks.append(ad.concat([a.block(m), b.block(m)], axis=0))
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
