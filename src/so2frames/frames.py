"""Rotations, real-basis Wigner-D matrices, and SO(2) local frames.

The fixed target axis of all local frames is the z-axis:

    TARGET_AXIS = (0, 0, 1)

so the stabilizer subgroup consists of rotations about z, and the real
spherical-harmonic basis of :mod:`so2frames.irreps` (polar axis z) makes
stabilizer rotations act block-diagonally on each degree: the component
pair ``(x_{-m}, x_{+m})`` transforms by the order-m planar rotation
matrix.  A frame for a unit direction ``r`` is the minimal-angle rotation
``h`` with ``h^{-1} r = TARGET_AXIS``; mapping features into the frame
("to local") applies ``D(h^{-1})`` per degree and regroups components by
order m.

Wigner-D construction: for active ZYZ angles the real-basis matrix
factors as ``D(a,b,g) = Z(a) d(b) Z(g)``, where each Z is a per-order
planar rotation of the ``(x_{-m}, x_{+m})`` pairs and the real little-d
``d(b)`` is a polynomial in ``cos(b/2)`` and ``sin(b/2)``.  Its
coefficients come once per degree from the standard factorial sum,
conjugated into the real basis with the fixed unitary U, and are cached;
:func:`wigner_d_batch` then evaluates any number of rotations as arrays.
The matrices satisfy ``Y(R r) = D(R) Y(r)``.

Frames are built in batches (:func:`frames_from_directions`): the angles
of ``h = Rz(phi) Ry(theta) Rz(-phi)`` come straight from the direction,
``phi = atan2(y, x)`` and ``theta = atan2(hypot(x, y), z)``, which stays
accurate next to both poles, and ``D(h^{-1})`` is evaluated for all
directions at once.
"""

from __future__ import annotations

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

    def compose(self, other: "Rotation") -> "Rotation":
        """self after other: matrix product self.matrix @ other.matrix."""
        return rotation_from_matrix(self.matrix @ other.matrix)

    def apply(self, vec) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=np.float64)


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


def rotation_from_axis_angle(axis, angle: float) -> Rotation:
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    R = np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
    return rotation_from_matrix(R)


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


def wigner_d_batch(l: int, alpha, beta, gamma) -> np.ndarray:
    """Real-basis Wigner-D of ``Rz(alpha) Ry(beta) Rz(gamma)`` for arrays of
    ZYZ angles; returns shape ``(E, 2l+1, 2l+1)``.

    ``D = Z(alpha) d(beta) Z(gamma)``: little-d is one matmul of the
    monomials with the cached coefficient table, and each Z is a planar
    rotation of the ``(x_{-m}, x_{+m})`` pairs applied elementwise.  Every
    output matrix depends only on its own angles, so reordering the batch
    reorders the output.
    """
    if l < 0 or l > DEFAULT_L_CAP:
        raise ValueError(f"degree must be in [0, {DEFAULT_L_CAP}], got {l}")
    alpha, beta, gamma = (np.asarray(a, dtype=np.float64).reshape(-1)
                          for a in (alpha, beta, gamma))
    n = 2 * l + 1
    q = np.arange(n)
    c, s = np.cos(beta / 2.0)[:, None], np.sin(beta / 2.0)[:, None]
    d = ((c ** (2 * l - q) * s ** q) @ _small_d_table(l)).reshape(-1, n, n)
    # Z(a) acts on component r through order k = l - r:
    # rows  Z(a) A = cos(k a) A + sin(k a) A[::-1],
    # cols  A Z(a) = cos(k a) A - sin(k a) A[:, ::-1].
    k = np.arange(l, -l - 1, -1)
    ka, kg = np.multiply.outer(alpha, k), np.multiply.outer(gamma, k)
    d = np.cos(ka)[:, :, None] * d + np.sin(ka)[:, :, None] * d[:, ::-1, :]
    return np.cos(kg)[:, None, :] * d - np.sin(kg)[:, None, :] * d[:, :, ::-1]


def wigner_d(l: int, rotation: Rotation) -> np.ndarray:
    """Real-basis Wigner-D matrix of a rotation for degree l.

    Orthogonal, and consistent with the harmonics:
    ``Y_l(R r) = wigner_d(l, R) @ Y_l(r)``.  A batch of one through
    :func:`wigner_d_batch`.
    """
    return wigner_d_batch(l, *rotation.euler)[0]


@lru_cache(maxsize=None)
def _alignment_rows(l: int) -> tuple[int, ...]:
    """Degree-l component indices in the order (0, -1,+1, -2,+2, ...)."""
    return (l,) + tuple(i for m in range(1, l + 1) for i in (l - m, l + m))


def order_alignment_permutation(l: int) -> np.ndarray:
    """Permutation grouping degree-l components as (0, -1,+1, -2,+2, ...).

    In the permuted basis a rotation about the target axis is
    block-diagonal ``diag(1, R_1(a), ..., R_l(a))``.
    """
    return np.eye(2 * l + 1)[list(_alignment_rows(l))]


# ---------------------------------------------------------------------------
# local frames
# ---------------------------------------------------------------------------

class Frame:
    """Minimal-angle canonicalization of one direction or a batch.

    ``rotation`` is h with ``h^{-1} r = TARGET_AXIS`` for the unit
    direction r; ``d_in[l]`` holds ``D_l(h^{-1})`` for every degree up to
    ``l_max``.  The same matrix maps out of the frame, transposed, since
    ``D(h) = D(h^{-1})^T``.  A batch of E frames keeps the frame index as a
    leading axis: ``matrix`` is (E, 3, 3), ``euler`` the ZYZ angles of h as
    (E, 3), and ``d_in[l]`` is (E, 2l+1, 2l+1).  ``frames[k]`` is
    the k-th single frame (views into the batch), and only a single frame
    has a :class:`Rotation`.
    """

    def __init__(self, matrix: np.ndarray, euler: np.ndarray, d_in: list[np.ndarray]):
        self.matrix = matrix
        self.euler = euler
        self.d_in = d_in
        self.l_max = len(d_in) - 1

    @cached_property
    def rotation(self) -> Rotation:
        return Rotation(self.matrix, tuple(self.euler))

    def __getitem__(self, k) -> "Frame":
        return Frame(self.matrix[k], self.euler[k], [d[k] for d in self.d_in])

    def take(self, index) -> "Frame":
        """The frames of a batch at an index array, where index -1 gives the
        TARGET_AXIS frame, the exact identity (for an item without a
        direction)."""
        def pick(a, identity):
            return np.concatenate([a, identity[None]])[index]

        return Frame(pick(self.matrix, np.eye(3)), pick(self.euler, np.zeros(3)),
                     [pick(d, np.eye(2 * l + 1)) for l, d in enumerate(self.d_in)])


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
    cp, sp, ct, st = np.cos(phi), np.sin(phi), np.cos(theta), np.sin(theta)
    h = np.stack([cp * cp * ct + sp * sp, cp * sp * (ct - 1.0), cp * st,
                  cp * sp * (ct - 1.0), sp * sp * ct + cp * cp, sp * st,
                  -cp * st, -sp * st, ct], axis=1).reshape(-1, 3, 3)
    residual = np.linalg.norm(np.einsum("eji,ej->ei", h, r) - TARGET_AXIS, axis=1)
    if np.any(residual > 1e-12):
        raise AssertionError(f"frame residual {residual.max()}")
    d_in = [wigner_d_batch(l, phi, -theta, -phi) for l in range(l_max + 1)]
    return Frame(h, np.stack([phi, theta, -phi], axis=1), d_in)


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


def to_local(frame: Frame, x: So3Features) -> So2Features:
    """Rotate SO(3) features into the frame and regroup by order m.

    ``x'_l = D_l(h^{-1}) x_l`` per degree, then order m gathers the
    ``(x_{-m}, x_{+m})`` column pairs of every degree l >= m (ascending l).
    A batch of frames rotates a batch of features item by item.  Each
    output order is one fused autodiff primitive whose parents are the
    degree blocks it reads.
    """
    if x.layout.max_index > frame.l_max:
        raise ValueError(
            f"feature degree {x.layout.max_index} exceeds frame cache l_max {frame.l_max}")
    rotated = {l: ad.value_of(block) @ np.swapaxes(frame.d_in[l], -1, -2)
               for l, block in x.items()}
    count("frame_rotation", sum(x.layout.mult(l) * l * l * batch_size(block)
                                for l, block in rotated.items()))
    out_layout = so2_layout_of(x.layout)
    blocks = []
    for m in out_layout.indices:
        degrees = [l for l in x.layout.indices if l >= m]
        # components l - m and l + m (one component l for m = 0)
        cols = [slice(l - m, l + m + 1, max(2 * m, 1)) for l in degrees]
        parts = [rotated[l][..., c] for l, c in zip(degrees, cols)]
        value = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2,
                                                                 dtype=np.float64)
        parents = tuple(x.block(l) for l in degrees)
        blocks.append(ad.primitive(value, parents, _to_local_vjp(frame, degrees, cols, parents)))
    return So2Features(out_layout, blocks)


def _to_local_vjp(frame: Frame, degrees, cols, parents):
    """Adjoint of one order of :func:`to_local`: each degree's channel rows
    of the cotangent times the rows of ``D_l`` its columns came from."""
    def vjp(g):
        grads = []
        offset = 0
        for l, c, block in zip(degrees, cols, parents):
            mult = block.shape[-2]
            part = g[..., offset:offset + mult, :]
            offset += mult
            grads.append(ad.unbroadcast(part @ frame.d_in[l][..., c, :], block.shape))
        return grads

    return vjp


def from_local(frame: Frame, x: So2Features, so3_layout: IrrepsLayout) -> So3Features:
    """Exact inverse of :func:`to_local` for the given SO(3) layout.

    Each output degree is one fused autodiff primitive whose parents are
    the order blocks 0..l.
    """
    if so2_layout_of(so3_layout) != x.layout:
        raise ValueError("SO(2) layout is not the regrouping of the SO(3) layout")
    order_offsets = {m: 0 for m in x.layout.indices}
    blocks = []
    multiplies = 0
    for l in so3_layout.indices:
        mult = so3_layout.mult(l)
        # the degree-l rows of orders 0..l hold its components in the
        # order-aligned basis, so the rotation reads D_l's rows in that order
        rows = []
        for m in range(l + 1):
            rows.append(slice(order_offsets[m], order_offsets[m] + mult))
            order_offsets[m] += mult
        parents = tuple(x.block(m) for m in range(l + 1))
        parts = [ad.value_of(p)[..., r, :] for p, r in zip(parents, rows)]
        aligned = parts[0] if l == 0 else np.concatenate(parts, axis=-1, dtype=np.float64)
        rotation = frame.d_in[l][..., _alignment_rows(l), :]
        block = aligned @ rotation
        blocks.append(ad.primitive(block, parents,
                                   _from_local_vjp(rotation, aligned.shape, rows, parents)))
        multiplies += mult * l * l * batch_size(block)
    count("frame_rotation", multiplies)
    return So3Features(so3_layout, blocks)


def _from_local_vjp(rotation, aligned_shape, rows, parents):
    """Adjoint of one degree of :func:`from_local`: the cotangent rotated
    back, with each order's columns scattered into its channel rows."""
    def vjp(g):
        aligned = ad.unbroadcast(g @ np.swapaxes(rotation, -1, -2), aligned_shape)
        grads = []
        for m, (r, block) in enumerate(zip(rows, parents)):
            grad = np.zeros(block.shape)
            grad[..., r, :] = aligned[..., max(2 * m - 1, 0):2 * m + 1]
            grads.append(grad)
        return grads

    return vjp


def rotate_so3(features: So3Features, rotation: Rotation) -> So3Features:
    """Apply a global rotation to SO(3) features (per-degree Wigner-D)."""
    blocks = [ad.matmul(block, wigner_d(l, rotation).T) for l, block in features.items()]
    return So3Features(features.layout, blocks)


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
