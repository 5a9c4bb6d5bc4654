"""Orbital layouts, batched Hamiltonian assembly (one CG expansion per
orbital degree pair for all atoms and edges), the block-rotation oracle,
the generalized eigenproblem, and evaluation metrics.

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
from itertools import accumulate, zip_longest

import numpy as np
import scipy.linalg

from . import autodiff as ad
from .cg import expansion
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
    """Offsets for atoms in input order, orbitals in basis-config order;
    every atom needs a non-empty list of non-negative integer degrees."""
    degrees, offsets, row = [], [], 0
    for z in atomic_numbers:
        z = int(z)
        if z not in basis_config:
            raise ValueError(f"element {z} missing from basis configuration")
        orbs = tuple(basis_config[z])
        if not orbs or not all(isinstance(l, (int, np.integer)) and l >= 0 for l in orbs):
            raise ValueError(f"basis entry {z} is not a non-empty list of non-negative "
                             f"integer degrees: {list(orbs)}")
        sizes = [2 * l + 1 for l in orbs]
        degrees.append(orbs)
        offsets.append(tuple(accumulate(sizes[:-1], initial=row)))
        row += sum(sizes)
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

def assemble(h: So3Features, x_pair: So2Features, prepared, params,
             layout: OrbitalLayout, graph: MoleculeGraph, config) -> BlockMatrix:
    """Dense matrix from node features (diagonal atom blocks) and pair
    features (off-diagonal atom blocks), symmetrized as ``(H + H^T) / 2``.

    Atoms (i, i) and edges (i, j), with ``x_pair`` rotated out of the edge
    frames, are one batch of items that differ only in their weight prefix,
    ``expand/diag/{z}`` or ``expand/off/{z_i}.{z_j}``.  The orbital blocks of
    all items run as one batched :func:`cg.expansion` per degree pair
    (l_s, l_t), and one gather through a (dim, dim) index map places them;
    atom pairs without an edge (beyond cutoff) read a zero.
    """
    n = graph.n_atoms
    pair = from_local(prepared.frame, x_pair, config.node_layout)
    items = So3Features(h.layout, [ad.concat([a, b]) for a, b in zip(h.blocks, pair.blocks)])
    rows, cols = (np.concatenate([np.arange(n), ends]) for ends in (prepared.src, prepared.dst))
    starts = np.array(list(zip_longest(*layout.offsets, fillvalue=0))).T  # (atom, orbital)
    # the items of one kind (atom or edge, elements) share their weights, and
    # add one segment to the group of each (l_s, l_t) of their orbital pairs
    kinds = np.stack([np.arange(len(rows)) >= n, graph.numbers[rows], graph.numbers[cols]], 1)
    unique_kinds, kind_of = np.unique(kinds, axis=0, return_inverse=True)
    groups: dict[tuple[int, int], list] = {}
    for u, (off, zi, zj) in enumerate(unique_kinds):
        k = np.flatnonzero(kind_of.ravel() == u)
        prefix = f"expand/off/{zi}.{zj}" if off else f"expand/diag/{zi}"
        for s, ls in enumerate(layout.degrees[rows[k[0]]]):
            for t, lt in enumerate(layout.degrees[cols[k[0]]]):
                groups.setdefault((ls, lt), []).append(
                    (f"{prefix}/{s}.{t}", k, starts[rows[k], s], starts[cols[k], t]))
    # index -1 reads the zero appended to the flattened group outputs
    index = np.full((layout.dim, layout.dim), -1)
    outputs, size = [], 0
    for (ls, lt), segments in groups.items():
        names, members, r0, c0 = zip(*segments)
        k, r0, c0 = np.concatenate(members), np.concatenate(r0), np.concatenate(c0)
        seg = np.repeat(np.arange(len(names)), [len(m) for m in members])
        w = {}
        for l3 in range(abs(ls - lt), ls + lt + 1):
            mult, keys = items.layout.mult(l3), [f"{name}/{l3}" for name in names]
            if mult and any(key in params for key in keys):
                stacked = ad.concat([params.get(key, np.zeros(mult)) for key in keys])
                w[l3] = ad.take(ad.reshape(stacked, (len(keys), mult)), seg)
        block = expansion(items.map_blocks(lambda b: ad.take(b, k)), w, ls, lt)
        d1, d2 = 2 * ls + 1, 2 * lt + 1
        index[r0[:, None, None] + np.arange(d1)[:, None], c0[:, None, None] + np.arange(d2)] = \
            size + np.arange(len(k) * d1 * d2).reshape(len(k), d1, d2)
        outputs.append(ad.reshape(block, (-1,)))
        size += len(k) * d1 * d2
    dense = ad.take(ad.concat(outputs + [np.zeros(1)]), index)
    return BlockMatrix(ad.mul(ad.add(dense, ad.transpose(dense)), 0.5), layout)


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


def checked_matrix(data, layout: OrbitalLayout | None) -> BlockMatrix:
    """BlockMatrix of outside data; ValueError unless it is (dim, dim) for the layout."""
    data = np.asarray(data, dtype=np.float64)
    if layout is not None and data.shape != (layout.dim, layout.dim):
        raise ValueError(f"layout of dimension {layout.dim} does not fit a {data.shape} matrix")
    return BlockMatrix(data, layout)


def matrix_loads(text: str) -> BlockMatrix:
    doc = json.loads(text)
    return checked_matrix(doc["data"],
                          layout_from_degrees(doc["layout"]) if doc.get("layout") else None)


def matrix_to_bytes(H: BlockMatrix) -> bytes:
    """Raw binary format: magic, N as int64 LE, then N^2 float64 LE row-major."""
    a = H.array
    n = a.shape[0]
    return BINARY_MAGIC + struct.pack("<q", n) + a.astype("<f8").tobytes(order="C")


def matrix_from_bytes(blob: bytes) -> BlockMatrix:
    if blob[:8] != BINARY_MAGIC:
        raise ValueError("bad magic in binary matrix file")
    if len(blob) < 16:
        raise ValueError("binary matrix file ends inside its header")
    (n,) = struct.unpack("<q", blob[8:16])
    if n < 0 or len(blob) != 16 + 8 * n * n:
        raise ValueError(f"binary matrix file has {len(blob)} bytes, but N = {n} "
                         f"needs 16 + 8 N^2")
    data = np.frombuffer(blob[16:], dtype="<f8").reshape(n, n).copy()
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
