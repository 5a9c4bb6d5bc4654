"""SO(2)-equivariant building blocks: Linear, Gate, LayerNorm, Tensor
Product (pairwise and v-fold chains), and the off-diagonal feed-forward
composition.

Every operation commutes with per-order planar rotations and is built on
the autodiff primitives, so gradients with respect to inputs and
parameters come from the same code path.  LayerNorm (one primitive per
block), the small MLP (one per call), Linear (one per order) and the
gate (one per call) are fused autodiff primitives with hand-written
VJPs: their forward passes evaluate the numpy expressions of the
primitives they stand for, in their order, so they give the same values
while the tape records far fewer nodes.  The gate's kernel,
:func:`gate_apply`, is also the gate of the model's fused
self-interaction, so SO(2) orders and SO(3) degrees share one gate.
Every channel mix (each MLP layer, each Linear order) computes its
product and adjoint through :func:`autodiff.matmul_apply`, so every
mixing weight gets its cotangent from one formula.

The v-fold tensor product multiplies one feature set with itself along
all its fusion paths at once: index tables built once per (M, v) from
:func:`tp_paths` gather every path's factors into a path axis,
conjugation enters as constant sign masks, and the weighted path
products are added into their output orders in path order.  It records
one tape node plus one slice per output order, whatever the number of
paths, and its values are those of the pairwise chain of
:func:`so2_tp_pair` products.

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
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .counters import count
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
    """Write the gate MLP ``{prefix}/mlp`` for an SO(2) or SO(3) layout: it
    emits the new m = 0 channels and one gate per channel of the m > 0 blocks,
    one output per channel of the layout."""
    c0 = layout.mult(0)
    if c0 == 0:
        raise ValueError("gate needs m = 0 channels")
    return init_mlp(params, f"{prefix}/mlp", [c0, c0, c0, sum(c for _, c in layout.entries)], rng)


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

def mlp_weights(params: dict, prefix: str) -> list:
    """The weights and biases ``{prefix}/{k}/W|b`` of an MLP, layer by layer."""
    n = 0
    while f"{prefix}/{n}/W" in params:
        n += 1
    return [params[f"{prefix}/{k}/{w}"] for k in range(n) for w in ("W", "b")]


def mlp_apply(values, x):
    """The MLP of weight and bias arrays ``values`` (as :func:`mlp_weights`
    orders them) on an array column ``x``: its output and its adjoint,
    which maps the output cotangent to those of ``x`` and of each value."""
    n = len(values) // 2
    mixes, hidden = [], []
    out = x
    with np.errstate(over="ignore"):   # exp(800) is inf, and its sigmoid 0
        for k in range(n):
            out, mix_vjp = ad.matmul_apply(values[2 * k], out)
            mixes.append(mix_vjp)
            out = out + values[2 * k + 1].reshape(-1, 1)
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
            grads[2 * k + 2] = g.swapaxes(-1, -2).reshape(-1, g.shape[-2]).sum(axis=0)
            grads[2 * k + 1], g = mixes[k](g)
        grads[0] = g
        return grads

    return out, vjp


def mlp(v, params: dict, prefix: str):
    """Fully connected net ``{prefix}/{k}/W|b``: SiLU on hidden layers, linear output.

    ``v`` holds its features on axis -2 as a column, ``(..., in, 1)``, and
    the result is ``(..., out, 1)``.  One fused autodiff primitive whose
    parents are ``v`` and every weight and bias.
    """
    weights = mlp_weights(params, prefix)
    out, vjp = mlp_apply([ad.value_of(w) for w in weights], ad.value_of(v))
    return ad.primitive(out, (v, *weights), vjp)


# ---------------------------------------------------------------------------
# SO(2) Linear
# ---------------------------------------------------------------------------

# multiplication by i of x_{+m} + i x_{-m}: (x_{-m}, x_{+m}) -> (x_{+m}, -x_{-m})
_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def so2_linear(x: So2Features, params: dict, prefix: str) -> So2Features:
    """Per-order complex linear map without bias (block-matrix form).

    Order m reads ``{prefix}/{m}/w1`` and, for m > 0, ``{prefix}/{m}/w2``,
    both of shape (C_out, C_in); orders without weights are dropped.  The
    action per order is

        z_{-m} = w1 x_{-m} + w2 x_{+m}
        z_{+m} = -w2 x_{-m} + w1 x_{+m}

    i.e. the complex product (w1 + i w2)(x_{+m} + i x_{-m}).  Each order
    is one tape node: a matmul for m = 0, a fused primitive for m > 0.
    """
    entries, blocks, multiplies = [], [], 0
    for m, mult, block in zip(x.layout.indices, x.layout.mults, x.blocks):
        w1 = params.get(f"{prefix}/{m}/w1")
        if w1 is None:
            continue
        c_out, c_in = ad.value_of(w1).shape
        if c_in != mult:
            raise ValueError(f"order {m}: weight expects {c_in} channels, input has {mult}")
        if m == 0:
            out = ad.matmul(w1, block)
        else:
            out = _linear_order(block, w1, params[f"{prefix}/{m}/w2"])
        multiplies += (4 if m > 0 else 1) * c_out * c_in
        entries.append((m, c_out))
        blocks.append(out)
    count("so2_linear", multiplies * math.prod(x.batch_shape))
    return So2Features(so2_layout(entries), blocks)


def _linear_order(block, w1, w2):
    """One order m > 0 of :func:`so2_linear`, ``w1 x + w2 (x _TURN)``, as a
    primitive with parents ``(block, w1, w2)``."""
    vx = ad.value_of(block)
    out1, vjp1 = ad.matmul_apply(ad.value_of(w1), vx)
    out2, vjp2 = ad.matmul_apply(ad.value_of(w2), vx @ _TURN)   # (w1 + i w2) x = w1 x + w2 (i x)

    def vjp(g):
        (d_w1, d_x), (d_w2, d_turned) = vjp1(g), vjp2(g)
        return d_x + d_turned @ _TURN.T, d_w1, d_w2

    return ad.primitive(out1 + out2, (block, w1, w2), vjp)


# ---------------------------------------------------------------------------
# Gate and LayerNorm (SO(2) orders or SO(3) degrees)
# ---------------------------------------------------------------------------

def gate_apply(values, blocks, layout: IrrepsLayout):
    """The gate of MLP weight and bias arrays ``values`` (as
    :func:`mlp_weights` orders them) on the blocks of ``layout``, SO(2)
    orders or SO(3) degrees, the gate's counterpart of :func:`mlp_apply`.

    The MLP maps the index-0 channels to the new index-0 channels and one
    pre-sigmoid gate per channel of every other block; each such channel
    is scaled by the sigmoid of its gate.  Returns ``(value, rows, vjp)``:
    ``value`` stacks the output blocks on the channel axis, each padded to
    the widest block, so block k is ``value[..., rows[k], :width_k]``, and
    ``vjp`` maps the cotangent of ``value`` to those of each block and then
    of each value.

    ``layout`` may be the lower entries of the layout the MLP was made
    for, whose other blocks are zero: the rows of the present blocks are
    the same in both, and the MLP's rows past ``layout.channels``, which
    would gate zero blocks, are left unread and get a zero cotangent.
    """
    if layout.mult(0) == 0:
        raise ValueError("gate needs m = 0 channels")
    rows = layout.rows
    out, mlp_vjp = mlp_apply(values, blocks[0])
    if out.shape[-2] < layout.channels:
        raise ValueError("gate MLP output width mismatch")
    with np.errstate(over="ignore"):   # exp(800) is inf, and its sigmoid 0
        sig = 1.0 / (1.0 + np.exp(-out[..., :layout.channels, :]))
    value = np.zeros(out.shape[:-2] + (layout.channels, layout.shapes[-1][1]))
    value[..., rows[0], :1] = out[..., rows[0], :]
    for r, x in zip(rows[1:], blocks[1:]):
        value[..., r, :x.shape[-1]] = x * sig[..., r, :]

    def vjp(g):
        d_out = np.zeros(out.shape)
        d_out[..., rows[0], :] = g[..., rows[0], :1]
        d_blocks = [None]
        for r, x in zip(rows[1:], blocks[1:]):
            part, factor = g[..., r, :x.shape[-1]], sig[..., r, :]
            d_blocks.append(part * factor)
            d_out[..., r, :] = (part * x).sum(axis=-1, keepdims=True) * factor * (1.0 - factor)
        d_blocks[0], *d_values = mlp_vjp(d_out)
        return d_blocks + d_values

    return value, rows, vjp


def so2_gate(x, params: dict, prefix: str):
    """Gate activation: MLP on the m = 0 channels; sigmoid gates for m > 0.

    ``x`` is So2Features or So3Features (index 0 holds the invariant
    channels either way) and the result has the same type and layout;
    ``x`` may lack the upper entries of the layout the MLP was made for
    (:func:`gate_apply`), as the invariant input of a first layer does.
    The MLP ``{prefix}/mlp`` sees every m = 0 channel (whatever degree it
    came from), emits the new m = 0 features and one pre-sigmoid gate
    scalar per m > 0 channel; each m > 0 channel is scaled by its sigmoid
    gate.  The tape records one fused primitive (:func:`gate_apply`) and
    one slice of it per block.
    """
    weights = mlp_weights(params, f"{prefix}/mlp")
    value, rows, vjp = gate_apply([ad.value_of(w) for w in weights],
                                  [ad.value_of(b) for b in x.blocks], x.layout)
    fused = ad.primitive(value, (*x.blocks, *weights), vjp)
    return type(x)(x.layout, [ad.take(fused, (..., r, slice(0, width)))
                              for r, (_, width) in zip(rows, x.layout.shapes)])


def scale_rows(block, out, rows: slice):
    """``block * out[..., rows, :]`` as a primitive with parents ``(block, out)``."""
    vx = ad.value_of(block)
    factor = ad.value_of(out)[..., rows, :]
    value = vx * factor

    def vjp(g):
        d_out = np.zeros(ad.value_of(out).shape)
        d_out[..., rows, :] = (g * vx).sum(axis=-1, keepdims=True)
        return g * factor, d_out

    return ad.primitive(value, (block, out), vjp)


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
    layout = x.layout
    blocks = [_layernorm_block(block, params[f"{prefix}/{m}/g"], params[f"{prefix}/{m}/b"],
                               c, m > 0)
              for m, c, block in zip(layout.indices, layout.mults, x.blocks)]
    return type(x)(layout, blocks)


def _layernorm_block(block, g, b, c: int, directional: bool):
    """One block of :func:`so2_layernorm` with parents ``(block, g, b)``.

    The standardized quantity ``y`` is the block itself (m = 0) or its
    per-channel norm (m > 0).  The adjoint is the closed form of the
    forward, exact with eps under both square roots: with ``s`` the
    standardized values and ``d_s`` their cotangent, ``d_y`` centers
    ``(d_s - s mean(d_s s)) / std`` across channels, which is ``(d_s -
    mean(d_s) - s mean(d_s s)) / std`` since ``mean(s) = 0``, and an m > 0
    channel of direction ``dir`` and direction cotangent ``d_dir`` gets
    ``(d_dir - dir (dir . d_dir)) / norm + d_y dir``.  Centering last keeps
    ``mean(d_y)`` at zero where the rounded ``s`` has a nonzero mean, on
    blocks whose norms nearly agree.
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
    # sum / c is ndarray.mean's own arithmetic, without its Python frames
    centered = y - y.sum(axis=-2, keepdims=True) / c
    std = np.sqrt((centered * centered).sum(axis=-2, keepdims=True) / c + eps * eps)
    scaled = centered / std
    affine = scaled * g_col + b_col
    out = direction * affine if directional else affine

    def vjp(grad):
        if directional:
            d_dir = grad * affine
            grad = (grad * direction).sum(axis=-1, keepdims=True)
        axes = tuple(range(grad.ndim - 2)) + (grad.ndim - 1,)
        d_g, d_b = (grad * scaled).sum(axis=axes), grad.sum(axis=axes)
        d_s = grad * g_col
        d_centered = (d_s - scaled * ((d_s * scaled).sum(axis=-2, keepdims=True) / c)) / std
        d_y = d_centered - d_centered.sum(axis=-2, keepdims=True) / c
        if not directional:
            return d_y, d_g, d_b
        radial = (direction * d_dir).sum(axis=-1, keepdims=True)
        return (d_dir - direction * radial) / norm + d_y * direction, d_g, d_b

    return ad.primitive(out, (block, g, b), vjp)


# ---------------------------------------------------------------------------
# SO(2) Tensor Product
# ---------------------------------------------------------------------------

def so2_tp_pair(x1, m1: int, x2, m2: int, sign: int):
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
        count("so2_tp", c1 * (2 if m1 > 0 else 1) * items)
        return out, m1
    if m1 == 0:
        out = ad.mul(x2, x1)
        count("so2_tp", c1 * 2 * items)
        return out, m2
    # x1 * x2 = x1 b+ + (i x1) b- and x1 * conj(x2) = x1 b+ - (i x1) b-
    b_m = ad.take(x2, (..., slice(0, 1)))
    b_p = ad.take(x2, (..., slice(1, 2)))
    turned = ad.mul(ad.matmul(x1, _TURN), b_m)
    out = (ad.add if sign == +1 else ad.sub)(ad.mul(x1, b_p), turned)
    count("so2_tp", 4 * c1 * items)
    return out, m1 + sign * m2


@functools.lru_cache(maxsize=None)
def _moves(m_max: int) -> np.ndarray:
    """The fusion-path rule: ``moves[e + m_max, f + m_max]`` holds where a
    factor may move the running signed exponent from e to f.

    A factor of order m adds m (sum path), or subtracts it (difference
    path, conjugating the factor) if m and e are nonzero: a zero-order
    operand collapses to the sum form (the conjugate of a real scalar is
    itself).  It may not land on 0 from a nonzero m (the pairwise products
    cannot cancel two equal orders), nor past -m_max or m_max.  Read-only.
    """
    e = np.arange(-m_max, m_max + 1)
    step = e[None, :] - e[:, None]   # from exponent e (row) to f (column)
    moves = ((np.abs(step) <= m_max) & ((e[None, :] != 0) | (step == 0))
             & ((step >= 0) | (e[:, None] != 0)))
    moves.flags.writeable = False
    return moves


@functools.lru_cache(maxsize=None)
def tp_paths(m_max: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """All fusion paths of v feature sets with orders <= m_max, as two
    read-only int arrays ``(orders, signs)`` of shape (v, P): column p is
    path p's input orders (m_1, ..., m_v) and its per-factor signs, the
    first +1.  Its final order is ``|sum_k s_k m_k|``.

    Paths chain left to right: the first factor starts the signed exponent
    at its order, and each further factor makes one of the :func:`_moves`,
    so only valid prefixes are extended.  Columns run lexicographically in
    (orders, signs) with +1 before -1, the order that maps the checkpoint
    weight ``L{n}/tp/w/{k}`` to its path; there are no duplicates, since
    the exponents fix a path.  Built once per (m_max, v).
    """
    if v < 2:
        raise ValueError(f"tensor product arity must be >= 2, got {v}")
    moves = _moves(m_max)
    exponents = np.arange(m_max + 1)[None, :]   # (factors so far, paths)
    for _ in range(v - 1):
        path, f = np.nonzero(moves[exponents[-1] + m_max])
        exponents = np.concatenate([exponents[:, path], f[None, :] - m_max])
    step = np.diff(exponents, axis=0, prepend=0)
    orders, signs = np.abs(step), np.where(step < 0, -1, 1)
    ranked = np.lexsort(np.concatenate([-signs[::-1], orders[::-1]]))
    orders, signs = orders[:, ranked], signs[:, ranked]
    orders.flags.writeable = signs.flags.writeable = False
    return orders, signs


@functools.lru_cache(maxsize=None)
def tp_path_count(m_max: int, v: int) -> int:
    """The number of paths of :func:`tp_paths` (m_max, v), without
    enumerating them: the first factor starts each exponent 0..m_max once,
    and the v - 1 further factors are a power of the :func:`_moves`
    matrix, in exact (Python integer) arithmetic.
    """
    moves = _moves(m_max).astype(object)
    start = (np.arange(-m_max, m_max + 1) >= 0).astype(object)
    return int(np.sum(start @ np.linalg.matrix_power(moves, v - 1)))


@dataclass(frozen=True)
class _TpTables:
    """Index tables of the P paths of :func:`tp_paths` (M, v).

    Blocks of orders 0..M concatenated on the last axis give ``2M + 1``
    columns ``(x_0, x_{-1}, x_{+1}, ...)``; a zero column ``2M + 1`` is
    the imaginary part of order 0.  Factor k of path p reads its real part
    from column ``cols[k, p]`` and its imaginary part from
    ``cols[k, P + p]``, times ``conj[k, p]`` (-1 where step k subtracts);
    ``scatter[k]`` is the one-hot map of ``cols[k]``.  ``final[p]`` is -1
    where the signed exponent ends negative: the path's block is then the
    conjugate of its product.  Weighted path terms sit in columns
    ``(re_0 .. re_{P-1}, im_0 .. im_{P-1}, 0)``: output column j adds the
    columns ``slots[:, j]`` (paths in path order, padded with the zero
    column 2P), and ``out_cols`` reads back each term's output column.
    ``multiplies`` is the "so2_tp" count per channel and item.
    """

    cols: np.ndarray
    scatter: np.ndarray
    conj: np.ndarray
    final: np.ndarray
    slots: np.ndarray
    out_cols: np.ndarray
    multiplies: int


@functools.lru_cache(maxsize=None)
def _tp_tables(m_max: int, arity: int) -> _TpTables:
    orders, signs = tp_paths(m_max, arity)
    n, zero = orders.shape[1], 2 * m_max + 1
    exponent = np.cumsum(signs * orders, axis=0)   # the running signed exponent
    final = np.where(exponent[-1] < 0, -1.0, 1.0)
    m_out = np.abs(exponent[-1])
    # a pair product costs 2 ** (operands of nonzero order), the channel weight 1 or 2
    pairs = (exponent[:-1] != 0).astype(np.int64) + (orders[1:] != 0)
    multiplies = int((2 ** pairs).sum() + (2 ** (m_out > 0)).sum())
    conj = signs.astype(np.float64)

    def columns(m):   # real and imaginary column of orders m
        return np.concatenate([2 * m, np.where(m > 0, 2 * m - 1, zero)], axis=-1)

    cols, out_cols = columns(orders), columns(m_out)
    terms = [np.flatnonzero(out_cols == j) for j in range(zero)]
    slots = np.full((max(1, *map(len, terms)), zero), 2 * n)
    for j, idx in enumerate(terms):
        slots[:len(idx), j] = idx
    scatter = (cols[..., None] == np.arange(zero + 1)).astype(np.float64)
    return _TpTables(cols, scatter, conj, final, slots, out_cols, multiplies)


def so2_tp_contract(u: So2Features, arity: int, weights) -> So2Features:
    """The v-fold product of ``u`` with itself, weighted per fusion path.

    ``u`` has orders 0..M with a uniform channel count C; ``weights`` holds
    one channel weight array of shape (C,) for each path of
    :func:`tp_paths` (M, ``arity``), in its order.  Path outputs
    accumulate by final order; the result keeps ``u``'s layout.

    All paths run at once, as one tape node plus one slice per output
    order, whatever their number P.  A path's running block holds its
    product ``w`` for a non-negative signed exponent and ``conj(w)`` for a
    negative one, where ``w`` multiplies the blocks of ``u`` of orders
    m_1, ..., m_v (read as ``x_{+m} + i x_{-m}``), conjugated where a step
    subtracts.  So every factor is gathered into a path axis (conjugation
    is a constant sign on the imaginary part), the v - 1 complex products
    are chained elementwise, paths ending at a negative exponent are
    conjugated, and each is weighted by its channel weights and added into
    its output order, in path order.  The products and sums are those of
    the pairwise chain (:func:`so2_tp_pair`) up to the sign of zeros.  The
    index tables are built once per (M, ``arity``).
    """
    layout = u.layout
    mults = {c for _, c in layout.entries}
    if len(mults) != 1:
        raise ValueError("tensor product layout must have uniform multiplicity")
    if layout.indices != tuple(range(layout.max_index + 1)):
        raise ValueError("tensor product layout must hold every order from 0 up")
    channels = mults.pop()
    batch = u.batch_shape
    m_max = layout.max_index
    tables = _tp_tables(m_max, arity)
    n = tables.final.size
    if len(weights) != n:
        raise ValueError(f"{n} paths but {len(weights)} weight arrays")

    zero = np.zeros(batch + (channels, 1))
    columns = np.concatenate([ad.value_of(b) for b in u.blocks] + [zero], axis=-1)
    factors = []
    for k in range(arity):
        gathered = columns[..., tables.cols[k]]
        factors.append((gathered[..., :n], gathered[..., n:] * tables.conj[k]))
    prefix = [factors[0]]
    for br, bi in factors[1:]:
        ar, ai = prefix[-1]
        prefix.append((ar * br - ai * bi, ar * bi + ai * br))
    wr, wi = prefix[-1]
    wi = wi * tables.final
    w = np.array([ad.value_of(x) for x in weights]).reshape(n, channels).T
    terms = np.concatenate([wr * w, wi * w, zero], axis=-1)
    value = np.add.accumulate(terms[..., tables.slots], axis=-2)[..., -1, :]
    count("so2_tp", tables.multiplies * channels * math.prod(batch))

    def vjp(g):
        g_terms = np.concatenate([g, zero], axis=-1)[..., tables.out_cols]
        gr, gi = g_terms[..., :n], g_terms[..., n:]
        d_w = (gr * wr + gi * wi).sum(axis=tuple(range(len(batch))))
        gr, gi = gr * w, gi * w * tables.final
        d_columns = np.zeros(columns.shape)
        for k in range(arity - 1, -1, -1):
            if k:
                (ar, ai), (br, bi) = prefix[k - 1], factors[k]
                d_r, d_i = gr * ar + gi * ai, gi * ar - gr * ai
                gr, gi = gr * br + gi * bi, gi * br - gr * bi
            else:
                d_r, d_i = gr, gi
            d_columns += np.tensordot(
                np.concatenate([d_r, d_i * tables.conj[k]], axis=-1), tables.scatter[k], axes=1)
        return [d_columns[..., max(0, 2 * m - 1):2 * m + 1]
                for m in range(m_max + 1)] + list(d_w.T)

    out = ad.primitive(value, list(u.blocks) + list(weights), vjp)
    return So2Features(layout, [ad.take(out, (..., slice(max(0, 2 * m - 1), 2 * m + 1)))
                                for m in range(m_max + 1)])


# ---------------------------------------------------------------------------
# off-diagonal feed-forward
# ---------------------------------------------------------------------------

def concat_orders(a: So2Features, b: So2Features) -> So2Features:
    """Concatenate two feature sets channel-wise per order."""
    if a.layout.indices != b.layout.indices:
        raise ValueError("order sets differ")
    entries, blocks = [], []
    for (m, ca), (_, cb) in zip(a.layout.entries, b.layout.entries):
        entries.append((m, ca + cb))
        blocks.append(ad.concat([a.block(m), b.block(m)], axis=-2))
    return So2Features(so2_layout(entries), blocks)


def so2_ffn(m_i: So2Features, m_j: So2Features, params: dict, prefix: str) -> So2Features:
    """Off-diagonal update: Linear(Gate(Linear(m_i || m_j))).

    Weights are read under ``{prefix}/lin1``, ``{prefix}/gate`` and
    ``{prefix}/lin2``.
    """
    if m_i.layout != m_j.layout:
        raise ValueError("pair inputs must share a layout")
    stacked = concat_orders(m_i, m_j)
    hidden = so2_gate(so2_linear(stacked, params, f"{prefix}/lin1"), params, f"{prefix}/gate")
    return so2_linear(hidden, params, f"{prefix}/lin2")
