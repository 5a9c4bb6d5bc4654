"""Minimal reverse-mode automatic differentiation on numpy arrays.

Every differentiable operation in this package is built from the
primitives below: :func:`add`, :func:`sub`, :func:`mul`, :func:`matmul`,
:func:`einsum`, :func:`reshape`, :func:`concat`, :func:`take`,
:func:`sum_axis`, :func:`mean_all`, :func:`absolute` and
:func:`segment_sum`, plus the fused operations made with
:func:`primitive`.  A :class:`Var` records its parents and a closure
computing the vector-Jacobian product; :func:`backward` replays the tape
in reverse topological order.  There is deliberately no broadcasting
magic beyond what the primitives need and no higher-order gradients.

All primitives dispatch: if none of the arguments is a :class:`Var` the
plain numpy result is returned, so the same forward code serves both the
inference path (ndarrays) and the training path (Vars).

Operands are whole batches (all nodes or all edges of a molecule), so a
tape records one node per batched operation, not one per item;
:func:`segment_sum` is the order-independent aggregation over neighbors,
``segment_sum(slots, *parts)``: it stacks its row blocks itself, in the
copy that pads them, so an aggregation over several blocks (an atom's own
features and its messages) is one node.

Every channel mix, a matrix product by a learned weight matrix, runs
through :func:`matmul_apply`, the kernel of :func:`matmul` that the fused
primitives call too: a 2-D weight shared by every item of a batch gets
its cotangent from one product over all items, in this one place.  (The
frame rotations and tensor-product tables are constants; only their
inputs get cotangents.)

Fused primitives: an operation that would otherwise record a chain of
small nodes can be one node of its own.  It computes its value with plain
numpy, keeps what its adjoint needs in a closure and returns
``primitive(value, parents, vjp)``, where ``vjp`` maps the output
cotangent to one cotangent (or None) per parent.  These are fused this
way, each evaluating the numpy expressions of the primitives it stands
for in their order, so it gives their values with fewer nodes:

* in :mod:`so2frames.so2ops`, the LayerNorm (one node per block), the MLP
  (one per call), the Linear (one per order), the gate (one per call,
  whose output blocks are :func:`take` slices of it) and the row scaling
  of the model's messages (:func:`so2ops.scale_rows`, one per order);
* in :mod:`so2frames.frames`, the frame rotations (one per order or
  degree); ``to_local`` also reads the gather of its items inside, so
  its adjoint scatter-adds into the un-gathered blocks;
* in :mod:`so2frames.model`, the degree inner products over the edges
  (one per call) and the self-interaction of per-degree linear and gate
  (one per call, through the gate's kernel :func:`so2ops.gate_apply`,
  whose output blocks are :func:`take` slices of it).

The SO(2) tensor product is one node for all its fusion paths, whose
output blocks are :func:`take` slices of it.  The Hamiltonian assembly
(:func:`hamiltonian.assemble`) is one node for its gathers, contractions,
block placement and symmetrization; it contracts weights with features
before the CG tables, as :func:`cg.expansion` does, so before the
symmetrization each block has the bits of one ``cg.expansion`` call.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A node in the reverse-mode tape wrapping a float64 ndarray."""

    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def is_var(x) -> bool:
    return isinstance(x, Var)


_FLOAT64 = np.dtype(np.float64)


def value_of(x) -> np.ndarray:
    """The float64 ndarray of a Var or an array-like; a native float64
    ndarray is returned as it is, without a call into ``np.asarray``."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over the axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def primitive(value, parents, vjp):
    """Create a Var if any parent is a Var, else return the raw value.

    ``vjp(g)`` returns one cotangent per parent, shaped like that parent
    (None for a parent that gets none)."""
    if Var in map(type, parents):  # Var has no subclasses; a concat may have hundreds of parents
        return Var(value, tuple(parents), vjp)
    return value


def backward(out: Var) -> None:
    """Accumulate gradients of ``out`` into ``.grad`` of every leaf
    ancestor (a Var without a VJP), seeded with ones (use a scalar output
    for a plain gradient).

    Existing ``.grad`` fields in the subgraph are reset first.  A non-leaf
    node's cotangent is released once its VJP has run, so afterwards every
    non-leaf ``.grad`` is None and only the leaves hold theirs.
    """
    if not is_var(out):
        raise TypeError("backward needs a Var output")
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if type(parent) is Var and id(parent) not in seen:
                stack.append((parent, False))
    for node in order:
        node.grad = None
    out.grad = np.ones_like(out.value)
    for node in reversed(order):
        if node.grad is None or node.vjp is None:
            continue
        grads = node.vjp(node.grad)
        node.grad = None
        for parent, g in zip(node.parents, grads):
            if g is None or type(parent) is not Var:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    va, vb = value_of(a), value_of(b)
    out = va + vb

    def vjp(g):
        return unbroadcast(g, va.shape), unbroadcast(g, vb.shape)

    return primitive(out, (a, b), vjp)


def sub(a, b):
    va, vb = value_of(a), value_of(b)
    out = va - vb

    def vjp(g):
        return unbroadcast(g, va.shape), -unbroadcast(g, vb.shape)

    return primitive(out, (a, b), vjp)


def mul(a, b):
    va, vb = value_of(a), value_of(b)
    out = va * vb

    def vjp(g):
        return unbroadcast(g * vb, va.shape), unbroadcast(g * va, vb.shape)

    return primitive(out, (a, b), vjp)


def _rows(a):
    """The columns of every item of a batched ``(..., R, C)`` array as the
    rows of one ``(items * C, R)`` array."""
    return np.swapaxes(a, -1, -2).reshape(-1, a.shape[-2])


def matmul_apply(va, vb):
    """``va @ vb`` of arrays that are at least 2-D, and its adjoint, which
    maps the output cotangent to those of ``va`` and ``vb``.

    A 2-D ``va`` is a weight shared by every item of ``vb``: its cotangent
    is one product over all items and columns, ``rows(g).T @ rows(vb)``,
    with no per-item temporary.  Any other operand sums the per-item
    products over its broadcast axes."""
    def vjp(g):
        ga = (_rows(g).T @ _rows(vb) if va.ndim == 2
              else unbroadcast(g @ np.swapaxes(vb, -1, -2), va.shape))
        return ga, unbroadcast(np.swapaxes(va, -1, -2) @ g, vb.shape)

    return va @ vb, vjp


def matmul(a, b):
    """Batched matrix product ``a @ b`` of operands that are at least 2-D."""
    out, vjp = matmul_apply(value_of(a), value_of(b))
    return primitive(out, (a, b), vjp)


def einsum(subscripts: str, *operands):
    """Differentiable einsum for pure contractions.

    Every index of a differentiated operand must also appear in the output
    or in another operand (no internal traces), which holds for all uses in
    this package.  Constant operands (CG and Wigner tables) get no cotangent,
    so their subscripts may lack the ``...`` of a batched output.
    """
    values = [value_of(op) for op in operands]
    out = np.einsum(subscripts, *values)
    in_specs, out_spec = subscripts.replace(" ", "").split("->")
    specs = in_specs.split(",")

    def vjp(g):
        grads = []
        for i, spec in enumerate(specs):
            if not is_var(operands[i]):
                grads.append(None)
                continue
            others = [s for j, s in enumerate(specs) if j != i]
            other_vals = [values[j] for j in range(len(values)) if j != i]
            sub = ",".join([out_spec] + others) + "->" + spec
            grads.append(np.einsum(sub, g, *other_vals))
        return tuple(grads)

    return primitive(out, operands, vjp)


def reshape(a, shape):
    va = value_of(a)
    out = va.reshape(shape)

    def vjp(g):
        return (g.reshape(va.shape),)

    return primitive(out, (a,), vjp)


def concat(parts, axis=0):
    values = [p.value if isinstance(p, Var) else p for p in parts]
    out = np.concatenate(values, axis=axis, dtype=np.float64)

    def vjp(g):
        index = [slice(None)] * g.ndim
        grads, start = [], 0
        for v in values:
            index[axis] = slice(start, start + np.shape(v)[axis])
            grads.append(g[tuple(index)])
            start = index[axis].stop
        return grads

    return primitive(out, tuple(parts), vjp)


def take(a, key):
    """Slice/index view.  The adjoint assigns into zeros for a basic key
    (slices, integers, ``...``), which reads each entry once, and
    scatter-adds for index arrays, which may repeat entries."""
    va = value_of(a)
    out = va[key]

    def vjp(g):
        full = np.zeros_like(va)
        parts = key if isinstance(key, tuple) else (key,)
        if all(k is Ellipsis or isinstance(k, (slice, int)) for k in parts):
            full[key] = g
        else:
            np.add.at(full, key, g)
        return (full,)

    return primitive(out, (a,), vjp)


def sum_axis(a, axis):
    va = value_of(a)
    out = va.sum(axis=axis)

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis), va.shape).copy(),)

    return primitive(out, (a,), vjp)


def mean_all(a):
    va = value_of(a)
    n = va.size
    out = np.asarray(va.mean())

    def vjp(g):
        return (np.broadcast_to(g / n, va.shape).copy(),)

    return primitive(out, (a,), vjp)


def absolute(a):
    va = value_of(a)
    out = np.abs(va)

    def vjp(g):
        return (g * np.sign(va),)

    return primitive(out, (a,), vjp)


def segment_sum(slots, *parts):
    """Order-independent sums of gathered rows.  The row blocks ``parts``
    stack in turn into one array of rows, ``out[n]`` is the sum of its rows
    ``slots[n, t]`` over t, and slot -1 adds zero (padding).

    The stack and its zero padding row are one copy, so a caller with rows
    in several blocks records no concat of its own.  ``slots`` comes first:
    a float array in its place cannot index, so a call with the arguments
    swapped fails at once.

    Each segment's terms are sorted along the term axis before one fixed
    reduction, so every sum depends only on the multiset of its terms and
    on the padded width, not on their order or on the segment's position;
    this is what makes neighbor aggregation permutation-equivariant bit
    for bit.  The adjoint hands the cotangent of each sum to all its terms.
    """
    values = [value_of(p) for p in parts]
    stacked = np.concatenate([*values, np.zeros((1,) + values[0].shape[1:])])
    padded = stacked[slots]
    out = np.sort(padded, axis=1).sum(axis=1)

    def vjp(g):
        grad = np.zeros(stacked.shape)
        np.add.at(grad, slots, np.broadcast_to(g[:, None], padded.shape))
        return np.split(grad, np.cumsum([len(v) for v in values]))[:-1]

    return primitive(out, parts, vjp)
