"""Rotations, real-basis Wigner-D matrices, and SO(2) local frames.

The fixed target axis of all local frames is the z-axis:

    TARGET_AXIS = (0, 0, 1)

so the stabilizer subgroup consists of rotations about z, and the real
spherical-harmonic basis of :mod:`so2frames.irreps` (polar axis z) makes
stabilizer rotations act block-diagonally on each degree: the component
pair ``(x_{-m}, x_{+m})`` transforms by the order-m planar rotation
matrix.  A frame for a unit direction ``r`` is the minimal-angle rotation
``h`` with ``h^{-1} r = TARGET_AXIS``.  It keeps only ``D_l(h^{-1})`` per
degree, with its rows in the order-aligned basis (0, -1,+1, -2,+2, ...)
of :func:`order_alignment_permutation`, where the stabilizer acts as
``diag(1, R_1, ..., R_l)``; mapping features into the frame ("to local")
applies it per degree and reads order m from the rows
``[max(2m-1, 0), 2m+1)`` of every degree.

Wigner-D construction: for active ZYZ angles the real-basis matrix
factors as ``D(a,b,g) = Z(a) d(b) Z(g)``, where each Z is a per-order
planar rotation of the ``(x_{-m}, x_{+m})`` pairs and the real little-d
``d(b)`` is a polynomial in ``cos(b/2)`` and ``sin(b/2)``.  Its
coefficients come once per degree from the standard factorial sum,
conjugated into the real basis with the fixed unitary U, and are cached;
:func:`wigner_d_batch` then evaluates any number of rotations as arrays,
every degree up to ``l_max`` in one pass: the powers of ``cos(b/2)`` and
``sin(b/2)`` and the order trigonometry of both Z factors are computed
once and each degree reads its own columns, so a degree gets the same
bits whatever ``l_max`` it is evaluated with.  The matrices satisfy
``Y(R r) = D(R) Y(r)``.

Frames are built in batches (:func:`frames_from_directions`): the angles
of ``h = Rz(phi) Ry(theta) Rz(-phi)`` come straight from the direction,
``phi = atan2(y, x)`` and ``theta = atan2(hypot(x, y), z)``, which stays
accurate next to both poles, and ``D(h^{-1})`` is evaluated for all
directions and degrees in one :func:`wigner_d_batch` pass, with its rows
put in the order-aligned order; its degree-1 block, which is ``h^T``, is
checked to map each direction to TARGET_AXIS.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import autodiff as ad
from .counters import count
from .irreps import (DEFAULT_L_CAP, SO3, IrrepsLayout, So2Features,
                     So3Features, batch_size, rotate_so2, so2_layout)

TARGET_AXIS = np.array([0.0, 0.0, 1.0])
# antipodal fallback: pi rotation about this axis maps -TARGET_AXIS to TARGET_AXIS
FALLBACK_AXIS = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class Rotation:
    """A proper 3D rotation with its ZYZ Euler angles."""

    matrix: np.ndarray
    euler: tuple[float, float, float]

    def __post_init__(self):
        R = self.matrix
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-12:
            raise ValueError("rotation matrix is not orthogonal")
        if abs(np.linalg.det(R) - 1.0) > 1e-12:
            raise ValueError("rotation matrix must have determinant +1")

    def inverse(self) -> "Rotation":
        """The inverse rotation; its angles are the exact negated reverse
        ``(-gamma, -beta, -alpha)``, not re-derived from the matrix."""
        alpha, beta, gamma = self.euler
        return Rotation(self.matrix.T, (-gamma, -beta, -alpha))


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_from_euler(alpha: float, beta: float, gamma: float) -> Rotation:
    """Active ZYZ composition R = Rz(alpha) Ry(beta) Rz(gamma)."""
    return Rotation(_rot_z(alpha) @ _rot_y(beta) @ _rot_z(gamma),
                    (float(alpha), float(beta), float(gamma)))


def euler_from_matrix(R: np.ndarray) -> tuple[float, float, float]:
    """ZYZ angles reproducing the matrix; beta in [0, pi].

    beta comes from atan2, which keeps a small tilt from either pole.  Next
    to a pole alpha and gamma are each ill-determined, but alpha + gamma
    (upper hemisphere) or alpha - gamma (lower hemisphere) is not: it is
    read off the upper-left 2x2 block, and gamma is taken from it, so the
    angles reproduce R to rounding at every tilt.
    """
    beta = math.atan2(math.hypot(R[0, 2], R[1, 2]), R[2, 2])
    alpha = math.atan2(R[1, 2], R[0, 2])
    if R[2, 2] >= 0.0:
        gamma = math.atan2(R[1, 0] - R[0, 1], R[0, 0] + R[1, 1]) - alpha
    else:
        gamma = alpha - math.atan2(-(R[0, 1] + R[1, 0]), R[1, 1] - R[0, 0])
    return alpha, beta, gamma


def rotation_from_matrix(R) -> Rotation:
    R = np.asarray(R, dtype=np.float64)
    return Rotation(R, euler_from_matrix(R))


# ---------------------------------------------------------------------------
# Wigner-D in the real basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _u_matrix(l: int) -> np.ndarray:
    """Unitary change of basis: real components = U @ complex components."""
    U = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
    U[l, l] = 1.0
    rt2 = 1.0 / math.sqrt(2.0)
    for m in range(1, l + 1):
        sign = -1.0 if m % 2 else 1.0
        U[l + m, l + m] = sign * rt2
        U[l + m, l - m] = rt2
        U[l - m, l + m] = -1j * sign * rt2
        U[l - m, l - m] = 1j * rt2
    return U


@lru_cache(maxsize=None)
def _small_d_table(l: int) -> np.ndarray:
    """Real-basis little-d as a polynomial in ``(cos(b/2), sin(b/2))``.

    Row q holds the flattened ``(2l+1, 2l+1)`` coefficient matrix of
    ``cos(b/2)^(2l-q) sin(b/2)^q``, so ``d(b) = monomials(b) @ table``.
    The complex-basis coefficients come from the standard factorial sum
    (each (m', m, q) gets exactly one term) and are conjugated into the
    real basis with U.  Row 0 is the identity and is stored exactly, so
    ``d(0)`` is the exact identity.
    """
    n = 2 * l + 1
    f = math.factorial
    C = np.zeros((n, n, n))
    for mp in range(-l, l + 1):
        for m in range(-l, l + 1):
            num = f(l + mp) * f(l - mp) * f(l + m) * f(l - m)
            for k in range(max(0, m - mp), min(l + m, l - mp) + 1):
                den = f(l + m - k) * f(k) * f(mp - m + k) * f(l - mp - k)
                sign = -1.0 if (mp - m + k) % 2 else 1.0
                C[mp - m + 2 * k, l + mp, l + m] = sign * math.sqrt(Fraction(num, den * den))
    U = _u_matrix(l)
    real = U @ C @ np.conj(U).T
    if np.max(np.abs(real.imag)) > 1e-12:
        raise AssertionError(f"real little-d has imaginary residue at l={l}")
    table = np.ascontiguousarray(real.real.reshape(n, n * n))
    table[0] = np.eye(n).ravel()
    table.setflags(write=False)
    return table


def wigner_d_batch(l_max: int, alpha, beta, gamma) -> list[np.ndarray]:
    """Real-basis Wigner-D of ``Rz(alpha) Ry(beta) Rz(gamma)`` for arrays of
    ZYZ angles, every degree in one pass; returns the list over degrees
    l = 0..l_max of arrays ``(E, 2l+1, 2l+1)``.

    ``D = Z(alpha) d(beta) Z(gamma)``: little-d is one matmul of the
    monomials ``cos(b/2)^(2l-q) sin(b/2)^q`` with the cached coefficient
    table, and each Z is a planar rotation of the ``(x_{-m}, x_{+m})``
    pairs applied elementwise.  The powers ``cos(b/2)^e`` and
    ``sin(b/2)^e`` (e <= 2 l_max) and the cos and sin of ``k alpha`` and
    ``k gamma`` (k = l_max..-l_max) are computed once; each degree reads
    its own columns.  Every value is an elementwise function of its angle
    and exponent, so a degree's bits do not depend on ``l_max``, and every
    output matrix depends only on its own angles, so reordering the batch
    reorders the output.
    """
    if l_max < 0 or l_max > DEFAULT_L_CAP:
        raise ValueError(f"degree must be in [0, {DEFAULT_L_CAP}], got {l_max}")
    alpha, beta, gamma = (np.asarray(a, dtype=np.float64).reshape(-1)
                          for a in (alpha, beta, gamma))
    e = np.arange(2 * l_max + 1)
    c_pow = np.cos(beta / 2.0)[:, None] ** e
    s_pow = np.sin(beta / 2.0)[:, None] ** e
    # Z(a) acts on component r of degree l through order k = l - r, the
    # columns [l_max - l, l_max + l] of the order arrays:
    # rows  Z(a) A = cos(k a) A + sin(k a) A[::-1],
    # cols  A Z(a) = cos(k a) A - sin(k a) A[:, ::-1].
    k = np.arange(l_max, -l_max - 1, -1)
    ka, kg = np.multiply.outer(alpha, k), np.multiply.outer(gamma, k)
    cos_a, sin_a, cos_g, sin_g = np.cos(ka), np.sin(ka), np.cos(kg), np.sin(kg)
    out = []
    for l in range(l_max + 1):
        n = 2 * l + 1
        d = ((c_pow[:, 2 * l::-1] * s_pow[:, :n]) @ _small_d_table(l)).reshape(-1, n, n)
        cols = slice(l_max - l, l_max + l + 1)
        d = cos_a[:, cols, None] * d + sin_a[:, cols, None] * d[:, ::-1, :]
        out.append(cos_g[:, None, cols] * d - sin_g[:, None, cols] * d[:, :, ::-1])
    return out


def wigner_d(l: int, rotation: Rotation) -> np.ndarray:
    """Real-basis Wigner-D matrix of a rotation for degree l.

    Orthogonal, and consistent with the harmonics:
    ``Y_l(R r) = wigner_d(l, R) @ Y_l(r)``.  A batch of one through
    :func:`wigner_d_batch`.
    """
    return wigner_d_batch(l, *rotation.euler)[l][0]


@lru_cache(maxsize=None)
def _alignment_rows(l: int) -> np.ndarray:
    """Degree-l component indices in the order (0, -1,+1, -2,+2, ...); shared,
    read-only."""
    rows = np.array([l] + [i for m in range(1, l + 1) for i in (l - m, l + m)])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def order_alignment_permutation(l: int) -> np.ndarray:
    """Permutation grouping degree-l components as (0, -1,+1, -2,+2, ...);
    shared, read-only.

    In the permuted basis a rotation about the target axis is
    block-diagonal ``diag(1, R_1(a), ..., R_l(a))``.  It is also
    ``d_in[l]`` of the identity frame, the frame of TARGET_AXIS.
    """
    permutation = np.eye(2 * l + 1)[_alignment_rows(l)]
    permutation.setflags(write=False)
    return permutation


# ---------------------------------------------------------------------------
# local frames
# ---------------------------------------------------------------------------

class Frame:
    """Minimal-angle canonicalization of one direction or a batch.

    For the unit direction r, h is the rotation with ``h^{-1} r =
    TARGET_AXIS``; ``d_in[l]`` holds ``D_l(h^{-1})`` up to ``l_max``, rows
    in the order-aligned basis and columns in the real m = -l..l order.
    Its transpose maps out of the frame, since ``D(h) = D(h^{-1})^T``.  A
    batch of E frames keeps the frame index as a leading axis, ``d_in[l]``
    (E, 2l+1, 2l+1); ``frames[k]`` is the k-th single frame (views into
    the batch), and only a single frame with ``l_max >= 1`` has a
    :class:`Rotation`, read from its degree-1 rows.
    """

    def __init__(self, d_in: list[np.ndarray]):
        self.d_in = d_in
        self.l_max = len(d_in) - 1

    @cached_property
    def rotation(self) -> Rotation:
        if self.l_max < 1:
            raise ValueError("a frame built at l_max 0 has no rotation: build it with l_max >= 1")
        # D_1(h^{-1}) = h^T with aligned rows (z, y, x) and real columns (y, z, x)
        return rotation_from_matrix(self.d_in[1][::-1][:, [2, 0, 1]].T)

    def __getitem__(self, k) -> "Frame":
        return Frame([d[k] for d in self.d_in])


# phi of the frame at -TARGET_AXIS: h = Rz(phi) Ry(pi) Rz(-phi) is the pi
# rotation about Rz(phi) (0, 1, 0) = FALLBACK_AXIS
_FALLBACK_PHI = math.atan2(-FALLBACK_AXIS[0], FALLBACK_AXIS[1])


def frames_from_directions(directions, l_max: int = 4) -> Frame:
    """Deterministic frames for a batch of directions (need not be
    normalized), one array pass for all of them; returns one batched
    :class:`Frame` in the order of the directions.

    The canonical choice is the minimal-angle rotation
    ``h = Rz(phi) Ry(theta) Rz(-phi)`` with ``phi = atan2(y, x)`` and
    ``theta = atan2(hypot(x, y), z)``.  On the axis it is exactly the
    identity for ``+TARGET_AXIS`` and the pi rotation about
    ``FALLBACK_AXIS`` for ``-TARGET_AXIS``, whatever the signs of the
    zero components.  Each frame depends only on its own direction.

    Every frame is checked on the matrices it returns: its degree-1 block
    ``D_1(h^{-1}) = h^T`` (aligned rows z, y, x; real columns y, z, x) must
    map r to TARGET_AXIS within 1e-12, else AssertionError.  Degree 1 is
    evaluated for the check even at ``l_max`` 0, which leaves degree 0's
    bits as they are.
    """
    r = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    norm = np.linalg.norm(r, axis=1)
    if not np.all(np.isfinite(norm) & (norm >= 1e-12)):
        raise ValueError("cannot build a frame from a zero-length or non-finite direction")
    r = r / norm[:, None]
    x, y, z = r.T
    on_axis = (x == 0.0) & (y == 0.0)
    phi = np.where(on_axis, np.where(z > 0.0, 0.0, _FALLBACK_PHI), np.arctan2(y, x))
    theta = np.arctan2(np.hypot(x, y), z)
    # l_max 0 evaluates degree 1 too; a negative l_max stays an error of wigner_d_batch
    d_in = [d.take(_alignment_rows(l), axis=1)
            for l, d in enumerate(wigner_d_batch(l_max or 1, phi, -theta, -phi))]
    # h^T r with r in the real order (y, z, x) gives (z, y, x), where TARGET_AXIS is (1, 0, 0)
    local = np.einsum("eij,ej->ei", d_in[1], r[:, [1, 2, 0]])
    residual = np.linalg.norm(local - TARGET_AXIS[::-1], axis=1)
    if np.any(residual > 1e-12):
        raise AssertionError(f"frame residual {residual.max()}")
    return Frame(d_in[:l_max + 1])


def frame_from_direction(direction, l_max: int = 4) -> Frame:
    """The single frame of one direction: :func:`frames_from_directions` on
    a batch of one."""
    return frames_from_directions(np.reshape(direction, (1, 3)), l_max)[0]


@lru_cache(maxsize=256)
def so2_layout_of(so3: IrrepsLayout) -> IrrepsLayout:
    """The SO(2) layout produced by regrouping an SO(3) layout by order.

    Order m collects the channels of every degree l >= m, ascending l.
    """
    if so3.kind != SO3:
        raise ValueError("expected an SO(3) layout")
    entries = []
    for m in range(so3.max_index + 1):
        mult = sum(c for l, c in so3.entries if l >= m)
        if mult > 0:
            entries.append((m, mult))
    return so2_layout(entries)


@dataclass(frozen=True)
class _Regrouping:
    """How :func:`to_local` and :func:`from_local` regroup one SO(3) layout.

    The degrees are stacked on the channel axis of one ``(..., channels,
    columns)`` buffer, degree l in the rows ``layout.rows`` of its entry and
    the columns ``[0, 2l+1)``.  ``orders[m]`` is ``(pos, row, cols)``:
    order m reads the degrees from entry ``pos`` on, which are the rows
    ``row:`` of the buffer, and of each the columns ``cols``.
    ``degree_rows[k]`` lists, for the degree of entry k and each order
    m = 0..l, that degree's rows within the block of order m.
    """

    so2: IrrepsLayout
    orders: tuple
    degree_rows: tuple


@lru_cache(maxsize=256)
def _regrouping(so3: IrrepsLayout) -> _Regrouping:
    so2 = so2_layout_of(so3)
    orders = tuple((bisect.bisect_left(so3.indices, m), so3.first_row[m],
                    slice(max(2 * m - 1, 0), 2 * m + 1)) for m in so2.indices)
    degree_rows = tuple(tuple(slice(r.start - so3.first_row[m], r.stop - so3.first_row[m])
                              for m in range(l + 1))
                        for l, r in zip(so3.indices, so3.rows))
    return _Regrouping(so2, orders, degree_rows)


def to_local(frame: Frame, x: So3Features, index=None,
             so3_layout: IrrepsLayout | None = None) -> So2Features:
    """Rotate SO(3) features into the frame and regroup by order m.

    ``x'_l = D_l(h^{-1}) x_l`` per degree in the order-aligned basis, then
    order m gathers the ``(x_{-m}, x_{+m})`` columns ``[max(2m-1, 0), 2m+1)``
    of every degree l >= m (ascending l).  Each degree is rotated into its
    channel rows of one ``(..., channels, 2 l_max + 1)`` buffer; since the
    channels ascend by degree, the degrees l >= m are one row range of it,
    and order m is the view ``buffer[..., first_row[m]:, cols(m)]``, with
    no copy per order.
    A batch of frames rotates a batch of features item by item.  With an
    ``index`` array, the items rotated are ``x.block(l)[index]``: the
    gather is read inside, and the adjoint scatter-adds into the
    un-gathered blocks.  Each output order is one fused autodiff primitive
    whose parents are the degree blocks it reads.

    The orders are those of the regrouping of ``so3_layout`` (``x``'s own
    layout by default), whose lower entries ``x``'s layout must be.  The
    degrees ``x`` lacks are zero: they are not rotated, their rows of the
    buffer are zero, and the orders above ``x``'s highest degree, which
    would hold nothing else, are left out.  Features with degree 0 alone
    give order 0 alone: their channels, then zero rows.
    """
    layout = x.layout
    target = layout if so3_layout is None else so3_layout
    if layout is not target and layout.entries != target.entries[:len(layout.entries)]:
        raise ValueError(f"feature layout {layout} is not the lower degrees of {target}")
    if layout.max_index > frame.l_max:
        raise ValueError(
            f"feature degree {layout.max_index} exceeds frame cache l_max {frame.l_max}")
    plan = _regrouping(target)
    rotated = None
    multiplies = 0
    for (l, mult), block, rows in zip(layout.entries, x.blocks, layout.rows):
        items = ad.value_of(block) if index is None else ad.value_of(block)[index]
        part = items @ np.swapaxes(frame.d_in[l], -1, -2)
        if rotated is None:
            shape = part.shape[:-2] + (target.channels, 2 * layout.max_index + 1)
            rotated = np.empty(shape) if layout is target else np.zeros(shape)
        rotated[..., rows, :2 * l + 1] = part
        multiplies += mult * l * l
    count("frame_rotation", 0 if rotated is None else multiplies * batch_size(rotated))
    blocks = []
    for pos, row, cols in plan.orders[:layout.max_index + 1]:
        parents = x.blocks[pos:]
        blocks.append(ad.primitive(rotated[..., row:, cols], parents,
                                   _to_local_vjp(frame, layout.indices[pos:], cols, parents,
                                                 index)))
    so2 = plan.so2 if layout is target else so2_layout(plan.so2.entries[:len(blocks)])
    return So2Features(so2, blocks)


def _to_local_vjp(frame: Frame, degrees, cols, parents, index):
    """Adjoint of one order of :func:`to_local`: each degree's channel rows
    of the cotangent times the rows ``cols`` of ``D_l``, scattered back
    through ``index`` if the items were gathered."""
    def vjp(g):
        grads = []
        offset = 0
        for l, block in zip(degrees, parents):
            mult = block.shape[-2]
            part = g[..., offset:offset + mult, :] @ frame.d_in[l][..., cols, :]
            offset += mult
            if index is None:
                grads.append(ad.unbroadcast(part, block.shape))
            else:
                grads.append(np.zeros(block.shape))
                np.add.at(grads[-1], index, part)
        return grads

    return vjp


def from_local(frame: Frame, x: So2Features, so3_layout: IrrepsLayout) -> So3Features:
    """Exact inverse of :func:`to_local` for the given SO(3) layout.

    ``x`` holds the lower orders of the regrouping of ``so3_layout``: all
    of them, or orders 0..n-1 for some n >= 1.  The orders it lacks are
    zero, the rule :func:`to_local` has for missing degrees.  Each order's
    block is written into its rows and columns of one ``(..., channels,
    2n - 1)`` buffer, the layout of :func:`to_local`'s up to the columns
    of order n-1.  Degree l then reads the k = min(l + 1, n) orders
    present: its rows of the buffer's first 2k - 1 columns times the first
    2k - 1 rows of ``d_in[l]``, one fused autodiff primitive whose parents
    are the order blocks 0..k-1.
    """
    plan = _regrouping(so3_layout)
    present = len(x.blocks)
    if x.layout.entries != plan.so2.entries[:max(present, 1)]:
        raise ValueError("SO(2) layout is not the lower orders of the SO(3) layout's regrouping")
    aligned = None
    for (_, row, cols), block in zip(plan.orders, x.blocks):
        value = ad.value_of(block)
        if aligned is None:
            aligned = np.empty(value.shape[:-2] + (so3_layout.channels, 2 * present - 1))
        aligned[..., row:, cols] = value
    blocks = []
    multiplies = 0
    for (l, mult), rows, order_rows in zip(so3_layout.entries, so3_layout.rows,
                                           plan.degree_rows):
        parents = x.blocks[:l + 1]
        part = aligned[..., rows, :2 * len(parents) - 1]
        block = part @ frame.d_in[l][..., :part.shape[-1], :]
        blocks.append(ad.primitive(block, parents,
                                   _from_local_vjp(frame.d_in[l], part.shape, order_rows,
                                                   parents)))
        multiplies += mult * l * min(len(parents), l)
    count("frame_rotation", multiplies * batch_size(blocks[0]) if blocks else 0)
    return So3Features(so3_layout, blocks)


def _from_local_vjp(rotation, aligned_shape, rows, parents):
    """Adjoint of one degree of :func:`from_local`: the cotangent rotated
    back and cut to the columns of the orders present, with each order's
    columns scattered into its channel rows."""
    def vjp(g):
        back = (g @ np.swapaxes(rotation, -1, -2))[..., :aligned_shape[-1]]
        aligned = ad.unbroadcast(back, aligned_shape)
        grads = []
        for m, (r, block) in enumerate(zip(rows, parents)):
            grad = np.zeros(block.shape)
            grad[..., r, :] = aligned[..., max(2 * m - 1, 0):2 * m + 1]
            grads.append(grad)
        return grads

    return vjp


def rotate_so3(features: So3Features, rotation: Rotation) -> So3Features:
    """Apply a global rotation to SO(3) features (per-degree Wigner-D, every
    degree from one pass)."""
    d = wigner_d_batch(features.layout.max_index, *rotation.euler)
    return So3Features(features.layout, [ad.matmul(x, d[l][0].T) for l, x in features.items()])


def frame_average_check(phi, direction, x: So3Features, samples: int,
                        rng: np.random.Generator) -> float:
    """Deviation between stabilizer-averaged and single-frame evaluation.

    ``phi`` maps So2Features to So2Features.  Averages ``(hg) phi((hg)^{-1} x)``
    over ``samples`` uniformly sampled stabilizer rotations g and compares
    with ``h phi(h^{-1} x)``; for a stabilizer-equivariant phi the average
    collapses to the single term and the deviation vanishes.
    """
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    frame = frame_from_direction(direction, x.layout.max_index)
    local = to_local(frame, x)
    single = from_local(frame, phi(local), x.layout)
    acc = [np.zeros_like(b) for b in single.as_arrays()]
    for _ in range(samples):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        term = from_local(frame, rotate_so2(phi(rotate_so2(local, -theta)), theta), x.layout)
        for a, b in zip(acc, term.as_arrays()):
            a += b
    deviation = 0.0
    for a, b in zip(acc, single.as_arrays()):
        deviation = max(deviation, float(np.max(np.abs(a / samples - b))))
    return deviation
