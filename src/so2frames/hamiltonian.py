"""Orbital layouts, Hamiltonian assembly, the block-rotation oracle, the
generalized eigenproblem, and evaluation metrics.

A matrix is addressed by (atom i, orbital s, atom j, orbital t) sub
blocks whose shapes come from the orbital degrees of a per-element basis
configuration.  Under a global rotation g the assembled matrix obeys the
block rule implemented by :func:`block_rotate`:

    H'[i s, j t] = D_{l_s}(g) H[i s, j t] D_{l_t}(g)^T

which is the independent oracle every end-to-end equivariance check is
measured against.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import autodiff as ad
from .frames import Rotation, from_local, wigner_d
from .graph import MoleculeGraph
from .irreps import So2Features, So3Features


@dataclass(frozen=True)
class OrbitalLayout:
    """Per-atom orbital degrees plus the global row-offset table."""

    degrees: tuple[tuple[int, ...], ...]     # per atom, orbital degrees
    offsets: tuple[tuple[int, ...], ...]     # per atom, per orbital start row
    dim: int

    def atom_slice(self, i: int) -> slice:
        start = self.offsets[i][0]
        last = self.offsets[i][-1] + 2 * self.degrees[i][-1] + 1
        return slice(start, last)

    def orbital_slice(self, i: int, s: int) -> slice:
        start = self.offsets[i][s]
        return slice(start, start + 2 * self.degrees[i][s] + 1)

    def to_json_obj(self):
        return [list(d) for d in self.degrees]


def build_orbital_layout(atomic_numbers, basis_config: dict[int, tuple[int, ...]]) -> OrbitalLayout:
    """Offsets for atoms in input order, orbitals in basis-config order."""
    degrees = []
    offsets = []
    row = 0
    for z in atomic_numbers:
        z = int(z)
        if z not in basis_config:
            raise ValueError(f"element {z} missing from basis configuration")
        orbs = tuple(basis_config[z])
        starts = []
        for l in orbs:
            starts.append(row)
            row += 2 * l + 1
        degrees.append(orbs)
        offsets.append(tuple(starts))
    return OrbitalLayout(tuple(degrees), tuple(offsets), row)


def layout_from_degrees(per_atom_degrees) -> OrbitalLayout:
    numbers = range(len(per_atom_degrees))
    return build_orbital_layout(numbers, {i: tuple(d) for i, d in enumerate(per_atom_degrees)})


@dataclass
class BlockMatrix:
    """Dense symmetric matrix with block addressing by orbital layout."""

    data: object  # (dim, dim) ndarray or autodiff Var
    layout: OrbitalLayout | None

    @property
    def array(self) -> np.ndarray:
        return np.asarray(ad.value_of(self.data), dtype=np.float64)

    def block(self, i: int, s: int, j: int, t: int) -> np.ndarray:
        return self.array[self.layout.orbital_slice(i, s), self.layout.orbital_slice(j, t)]

    def symmetry_error(self) -> float:
        a = self.array
        return float(np.max(np.abs(a - a.T)))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _expand_block(feature: So3Features, params, prefix: str, ls: int, lt: int):
    from .cg import expansion

    w = {}
    for l3 in range(abs(ls - lt), ls + lt + 1):
        key = f"{prefix}/{l3}"
        if key in params and feature.layout.mult(l3) > 0:
            w[l3] = params[key]
    return expansion(feature, w, ls, lt)


def assemble(h: list[So3Features], x_pair: dict[tuple[int, int], So2Features],
             edge_frames, params, layout: OrbitalLayout, graph: MoleculeGraph,
             config) -> BlockMatrix:
    """Dense matrix from node features (diagonal atom blocks) and pair
    features (off-diagonal atom blocks, rotated out of their edge frames),
    followed by symmetrization ``(H + H^T) / 2``.

    Atom pairs without an edge (beyond cutoff) remain zero blocks.
    """
    node_layout = config.node_layout
    placed = []
    for i in range(graph.n_atoms):
        z = int(graph.numbers[i])
        orbs = layout.degrees[i]
        for s, ls in enumerate(orbs):
            for t, lt in enumerate(orbs):
                block = _expand_block(h[i], params, f"expand/diag/{z}/{s}.{t}", ls, lt)
                placed.append((layout.offsets[i][s], layout.offsets[i][t], block))
    for (i, j), feats in sorted(x_pair.items()):
        zi, zj = int(graph.numbers[i]), int(graph.numbers[j])
        frame = edge_frames[(i, j)]
        so3 = from_local(frame, feats, node_layout)
        for s, ls in enumerate(layout.degrees[i]):
            for t, lt in enumerate(layout.degrees[j]):
                block = _expand_block(so3, params, f"expand/off/{zi}.{zj}/{s}.{t}", ls, lt)
                placed.append((layout.offsets[i][s], layout.offsets[j][t], block))
    dense = ad.paste_blocks((layout.dim, layout.dim), placed)
    sym = ad.mul(ad.add(dense, ad.transpose(dense)), 0.5)
    return BlockMatrix(sym, layout)


def block_rotate(H: BlockMatrix, g: Rotation) -> BlockMatrix:
    """Independent equivariance oracle: conjugate every orbital sub-block.

    Builds the block-diagonal direct sum T of per-orbital Wigner-D
    matrices and returns T H T^T, which equals applying
    ``D_{l_s}(g) . D_{l_t}(g)^T`` block-wise.
    """
    layout = H.layout
    T = np.zeros((layout.dim, layout.dim))
    for i, orbs in enumerate(layout.degrees):
        for s, l in enumerate(orbs):
            sl = layout.orbital_slice(i, s)
            T[sl, sl] = wigner_d(l, g)
    return BlockMatrix(T @ H.array @ T.T, layout)


# ---------------------------------------------------------------------------
# generalized eigenproblem
# ---------------------------------------------------------------------------

def generalized_eigensolve(H: BlockMatrix | np.ndarray, S: BlockMatrix | np.ndarray):
    """Solve H C = S C diag(eps) for symmetric H and SPD S.

    Uses LAPACK's symmetric-definite solver (``scipy.linalg.eigh``), so
    the eigenvector columns are S-orthonormal and the eigenvalues ascend.
    Raises ValueError when S is not positive definite.
    """
    Ha = H.array if isinstance(H, BlockMatrix) else np.asarray(H, dtype=np.float64)
    Sa = S.array if isinstance(S, BlockMatrix) else np.asarray(S, dtype=np.float64)
    if Ha.shape != Sa.shape:
        raise ValueError(f"shape mismatch {Ha.shape} vs {Sa.shape}")
    try:
        return scipy.linalg.eigh(Ha, Sa)
    except np.linalg.LinAlgError as err:
        raise ValueError("overlap matrix is not positive definite") from err


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _diag_mask(layout: OrbitalLayout) -> np.ndarray:
    mask = np.zeros((layout.dim, layout.dim), dtype=bool)
    for i in range(len(layout.degrees)):
        sl = layout.atom_slice(i)
        mask[sl, sl] = True
    return mask


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))


def _degenerate_clusters(eigvals: np.ndarray, n_occ: int, gap: float = 1e-8):
    clusters = []
    current = [0]
    for k in range(1, n_occ):
        if abs(eigvals[k] - eigvals[k - 1]) < gap:
            current.append(k)
        else:
            clusters.append(current)
            current = [k]
    clusters.append(current)
    return clusters


def metrics(H_pred: BlockMatrix, H_true: BlockMatrix, S=None, n_occ: int | None = None) -> dict:
    """Matrix MAEs plus spectral metrics of the generalized eigenproblem.

    ``mae_diag`` / ``mae_offdiag`` average over entries inside / outside
    the diagonal atom blocks; ``mae_eps`` averages |eps_pred - eps_true|
    over all eigenvalues; ``cosine_psi`` averages the absolute cosine
    similarity of coefficient columns over the n_occ lowest states (the
    absolute value absorbs the arbitrary eigenvector sign).  Columns whose
    true eigenvalues are degenerate within 1e-8 are compared by principal
    angles between the spanned subspaces instead of column-by-column.
    """
    layout = H_pred.layout if H_pred.layout is not None else H_true.layout
    if layout is None:
        raise ValueError("at least one matrix needs an orbital layout")
    A, B = H_pred.array, H_true.array
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    if (H_pred.layout is not None and H_true.layout is not None
            and H_pred.layout != H_true.layout):
        raise ValueError("orbital layouts differ")
    if S is None:
        S = np.eye(A.shape[0])
    Sa = S.array if isinstance(S, BlockMatrix) else np.asarray(S, dtype=np.float64)
    n_occ = A.shape[0] // 2 if n_occ is None else int(n_occ)
    if not 1 <= n_occ <= A.shape[0]:
        raise ValueError(f"n_occ {n_occ} outside [1, {A.shape[0]}]")
    diff = np.abs(A - B)
    mask = _diag_mask(layout)
    eps_p, C_p = generalized_eigensolve(A, Sa)
    eps_t, C_t = generalized_eigensolve(B, Sa)
    cosines = np.zeros(n_occ)
    for cluster in _degenerate_clusters(eps_t, n_occ):
        if len(cluster) == 1:
            k = cluster[0]
            cosines[k] = abs(_cosine(C_p[:, k], C_t[:, k]))
        else:
            Qp, _ = np.linalg.qr(C_p[:, cluster])
            Qt, _ = np.linalg.qr(C_t[:, cluster])
            sv = np.linalg.svd(Qp.T @ Qt, compute_uv=False)
            cosines[cluster] = np.minimum(sv, 1.0)
    return {
        "mae_diag": float(diff[mask].mean()),
        "mae_offdiag": float(diff[~mask].mean()) if (~mask).any() else 0.0,
        "mae_all": float(diff.mean()),
        "mae_eps": float(np.mean(np.abs(eps_p - eps_t))),
        "cosine_psi": float(np.mean(cosines)),
    }


# ---------------------------------------------------------------------------
# synthetic targets
# ---------------------------------------------------------------------------

def gen_synthetic_target(graph: MoleculeGraph, seed: int, config=None,
                         spd_overlap: bool = False):
    """Deterministic (H, S) targets from a frozen random reference model.

    H comes from a full forward + assembly pass with parameters drawn from
    the seed, so it is exactly symmetric and block-equivariant by
    construction.  S is the identity by default; with ``spd_overlap`` a
    diagonally dominant SPD matrix is built from a second reference pass.
    """
    from .model import default_fit_config, init_params, predict
    from .sampling import stream
    from dataclasses import replace

    config = default_fit_config(graph) if config is None else config
    rng = stream(seed, "synthetic-target")
    params = init_params(replace(config, seed=seed), rng=rng)
    H = predict(graph, params, config)
    # normalize by a rotation-invariant scale (the Frobenius norm is
    # preserved by block rotation) so targets stay exactly equivariant
    rms = max(np.linalg.norm(H.array) / H.array.shape[0], 1e-12)
    H = BlockMatrix(H.array * (0.02 / rms), H.layout)
    if spd_overlap:
        rng2 = stream(seed, "synthetic-overlap")
        params2 = init_params(replace(config, seed=seed), rng=rng2)
        B = predict(graph, params2, config).array
        B = 0.02 * B / max(np.linalg.norm(B) / B.shape[0], 1e-12)
        lam = 1.0 + np.max(np.sum(np.abs(B), axis=1))
        S = BlockMatrix(B + lam * np.eye(B.shape[0]), H.layout)
    else:
        S = BlockMatrix(np.eye(H.array.shape[0]), H.layout)
    return H, S


# ---------------------------------------------------------------------------
# matrix file I/O
# ---------------------------------------------------------------------------

BINARY_MAGIC = b"SO2FBMT1"


def matrix_dumps(H: BlockMatrix) -> str:
    return json.dumps({
        "layout": H.layout.to_json_obj() if H.layout is not None else None,
        "data": H.array.tolist(),
    })


def matrix_loads(text: str) -> BlockMatrix:
    doc = json.loads(text)
    data = np.asarray(doc["data"], dtype=np.float64)
    layout = layout_from_degrees(doc["layout"]) if doc.get("layout") else None
    return BlockMatrix(data, layout)


def matrix_to_bytes(H: BlockMatrix) -> bytes:
    """Raw binary format: magic, N as int64 LE, then N^2 float64 LE row-major."""
    a = H.array
    n = a.shape[0]
    return BINARY_MAGIC + struct.pack("<q", n) + a.astype("<f8").tobytes(order="C")


def matrix_from_bytes(blob: bytes) -> BlockMatrix:
    if blob[:8] != BINARY_MAGIC:
        raise ValueError("bad magic in binary matrix file")
    (n,) = struct.unpack("<q", blob[8:16])
    data = np.frombuffer(blob[16:16 + 8 * n * n], dtype="<f8").reshape(n, n).copy()
    return BlockMatrix(data, None)


def write_matrix(path: str, H: BlockMatrix) -> None:
    if str(path).endswith(".bin"):
        with open(path, "wb") as f:
            f.write(matrix_to_bytes(H))
    else:
        with open(path, "w") as f:
            f.write(matrix_dumps(H))


def read_matrix(path: str) -> BlockMatrix:
    if str(path).endswith(".bin"):
        with open(path, "rb") as f:
            return matrix_from_bytes(f.read())
    with open(path) as f:
        return matrix_loads(f.read())
