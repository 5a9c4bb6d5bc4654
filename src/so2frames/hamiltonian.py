"""Orbital layouts, batched Hamiltonian assembly (one CG expansion per
orbital degree pair for all atoms and edges, each block written at its
flat matrix positions), the block-rotation oracle, the generalized
eigenproblem, and evaluation metrics.

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
import operator
import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest

import numpy as np

from . import autodiff as ad
from .cg import stacked_cg_table
from .frames import Rotation, wigner_d_batch
from .graph import MoleculeGraph, finite_array, is_integer, read_file
from .irreps import IrrepsLayout, So3Features, layout_parse, so3_layout
from .so2ops import uniform_init


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
    every atom needs a non-empty list of non-negative integer degrees (a
    boolean is not one)."""
    degrees, offsets, row = [], [], 0
    checked = {}  # each element's degrees and orbital sizes, checked once
    for z in atomic_numbers:
        z = int(z)
        if z not in checked:
            if z not in basis_config:
                raise ValueError(f"element {z} missing from basis configuration")
            orbs = tuple(basis_config[z])
            if not orbs or not all(map(is_integer, orbs)) or min(orbs) < 0:
                raise ValueError(f"basis entry {z} is not a non-empty list of non-negative "
                                 f"integer degrees: {list(orbs)}")
            checked[z] = orbs, [2 * l + 1 for l in orbs]
        orbs, sizes = checked[z]
        degrees.append(orbs)
        offsets.append(tuple(accumulate(sizes[:-1], initial=row)))
        row += sum(sizes)
    return OrbitalLayout(tuple(degrees), tuple(offsets), row)


def layout_from_degrees(per_atom_degrees) -> OrbitalLayout:
    """Layout of per-atom degree lists, as a matrix file stores it."""
    if not all(isinstance(d, (list, tuple)) for d in per_atom_degrees):
        raise ValueError("a layout must list each atom's orbital degrees")
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


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def expansion_degrees(ls: int, lt: int, node_layout: IrrepsLayout) -> IrrepsLayout:
    """The node degrees l3 that expand an (l_s, l_t) orbital block: the
    triangle range |l_s - l_t| .. l_s + l_t cut to the degrees of the node
    layout, with their multiplicities.  Each orbital pair (s, t) of an item
    kind has one weight per degree, keyed by :func:`_expansion_key`."""
    return so3_layout([(l3, node_layout.mult(l3)) for l3 in range(abs(ls - lt), ls + lt + 1)
                       if node_layout.mult(l3)])


def _expansion_key(edge: bool, zi: int, zj: int, s: int, t: int, l3: int) -> str:
    """The weight key of orbital pair (s, t) and node degree l3 of an item
    kind: ``expand/diag/{z}/{s}.{t}/{l3}`` for an atom z (then zi = zj =
    z), ``expand/off/{z_i}.{z_j}/{s}.{t}/{l3}`` for an edge."""
    kind = f"off/{zi}.{zj}" if edge else f"diag/{zi}"
    return f"expand/{kind}/{s}.{t}/{l3}"


def init_expansion(params: dict, config, rng) -> None:
    """Draw the expansion weights of every configured element (``expand/diag/{z}``)
    and ordered element pair (``expand/off/{z_i}.{z_j}``), in that order,
    each over (s, t, l3), scaled by 1 / (number of orbitals of z_i)."""
    basis, layout = config.basis_map, config.node_layout
    kinds = [(False, z, z) for z in config.elements]
    kinds += [(True, zi, zj) for zi in config.elements for zj in config.elements]
    for edge, zi, zj in kinds:
        for s, ls in enumerate(basis[zi]):
            for t, lt in enumerate(basis[zj]):
                for l3, mult in expansion_degrees(ls, lt, layout).entries:
                    weights = uniform_init(rng, (mult,)) / len(basis[zi])
                    params[_expansion_key(edge, zi, zj, s, t, l3)] = weights


@dataclass(frozen=True)
class AssemblyGroup:
    """The orbital blocks of one degree pair (l_s, l_t).

    Block b expands item ``k[b]`` (atoms, then edges) with the weights of
    segment ``seg[b]``, one orbital pair (s, t) of one item kind, and its
    entries go to the flat (row-major) matrix positions
    ``position[b * n:(b + 1) * n]``, ``n = (2 l_s + 1)(2 l_t + 1)``,
    row-major within the block.  For each node degree l3 that the
    expansion reads, in ascending order, ``weights[l3]`` is ``(offset,
    mult, segments)``: the group's weights of that degree are
    ``stacked[offset:offset + segments * mult]`` of the plan's stacked
    weights, one row of ``mult`` per segment.  ``table`` is the degrees'
    :func:`cg.stacked_cg_table`.
    """

    ls: int
    lt: int
    k: np.ndarray
    seg: np.ndarray
    position: np.ndarray
    weights: dict[int, tuple[int, int, int]]
    table: np.ndarray


@dataclass(frozen=True)
class AssemblyPlan:
    """Everything of an assembly that does not depend on the parameters.

    ``keys`` are the weight keys that the molecule's kinds read, in the
    order they are stacked (group, l3, segment), and ``fetch(params)``
    returns their parameters as a tuple in that order.  The groups'
    positions cover the diagonal atom blocks and the blocks of atom pairs
    within the cutoff once each; no group places the blocks of a pair
    beyond the cutoff.  Only ``k``, ``seg`` and ``position`` are per
    molecule: the segments, weights, tables, keys and ``fetch`` come from a
    cache keyed on the kinds present.
    """

    groups: tuple[AssemblyGroup, ...]
    keys: tuple[str, ...]
    fetch: Callable[[dict], tuple]


@lru_cache(maxsize=256)
def _segments(basis, node_irreps: str, kinds: tuple) -> tuple:
    """The segments of a set of item kinds, grouped by degree pair (l_s, l_t).

    A kind is (edge, z_i, z_j): an atom z is (False, z, z).  A segment is
    one orbital pair (s, t) of one kind; a group lists its segments kind by
    kind, then (s, t) row-major.  Returns the groups that read a node
    degree l3, each as (l_s, l_t, the range [lo, hi) of its segments, the
    :class:`AssemblyGroup` ``weights`` and ``table``); then each segment's
    kind index, s and t, the groups' segments in turn; then the weight keys
    of their segments in stacking order (group, l3, segment), and one
    ``operator.itemgetter`` of them that always returns a tuple.
    """
    orbitals, node_layout = dict(basis), layout_parse(node_irreps)
    found: dict[tuple[int, int], list] = {}
    for u, (edge, zi, zj) in enumerate(kinds):
        for s, ls in enumerate(orbitals[zi]):
            for t, lt in enumerate(orbitals[zj]):
                found.setdefault((ls, lt), []).append((u, s, t))
    groups, listed, keys, stacked = [], [], [], 0
    for (ls, lt), segments in sorted(found.items()):
        degrees = expansion_degrees(ls, lt, node_layout)
        if not degrees.entries:  # the group's blocks stay zero
            continue
        weights = {}
        for l3, mult in degrees.entries:
            weights[l3] = (stacked, mult, len(segments))
            stacked += len(segments) * mult
            keys += [_expansion_key(*kinds[u], s, t, l3) for u, s, t in segments]
        groups.append((ls, lt, len(listed), len(listed) + len(segments), weights,
                       stacked_cg_table(ls, lt, degrees.indices)))
        listed += segments
    table = np.array(listed, dtype=np.intp).reshape(-1, 3)
    table.flags.writeable = False
    keys = tuple(keys)
    fetch = (operator.itemgetter(*keys) if len(keys) > 1
             else lambda params: tuple(params[key] for key in keys))
    return tuple(groups), table.T, keys, fetch


def assembly_plan(numbers, src, dst, layout: OrbitalLayout, config) -> AssemblyPlan:
    """The assembly plan of a molecule with directed edges (src, dst).

    Items are the atoms (i, i), then the edges (i, j).  Each group lists
    its segments in ascending kind (atoms before edges, then z_i, z_j),
    then (s, t) row-major, and the items of a segment in ascending order.
    The segments, weight offsets, tables and weight keys come from a cache
    keyed on the basis, the node irreps and the kinds present; the items
    and corners of all groups' blocks are found in one pass of array
    operations, and each group then slices its own and lists its blocks'
    flat matrix positions.
    """
    numbers = np.asarray(numbers)
    n, dim = len(numbers), layout.dim
    rows, cols = (np.concatenate([np.arange(n), ends]) for ends in (src, dst))
    base = int(numbers.max(initial=0)) + 1
    codes, kind_of = np.unique((np.arange(len(rows)) >= n) * base * base
                               + numbers[rows] * base + numbers[cols], return_inverse=True)
    kinds = tuple((bool(c // base // base), int(c // base % base), int(c % base)) for c in codes)
    counts = np.bincount(kind_of, minlength=len(codes))
    by_kind = np.argsort(kind_of, kind="stable")
    first = np.cumsum(counts) - counts          # each kind's start in by_kind
    starts = np.array(list(zip_longest(*layout.offsets, fillvalue=0))).T  # (atom, orbital)
    segment_groups, (kind, s, t), keys, fetch = _segments(config.basis, config.node_irreps,
                                                          kinds)
    # one block per segment and item of its kind, for the segments of all groups
    width = counts[kind]
    bounds = np.concatenate([[0], np.cumsum(width)])   # each segment's first block
    seg = np.repeat(np.arange(len(kind)), width)
    k = by_kind[np.arange(len(seg)) + np.repeat(first[kind] - bounds[:-1], width)]
    corner = starts[rows[k], s[seg]] * dim + starts[cols[k], t[seg]]
    groups = []
    for ls, lt, lo, hi, weights, table in segment_groups:
        blocks = slice(bounds[lo], bounds[hi])
        # the flat matrix position of each block entry, row-major per block
        entry = np.arange(2 * ls + 1)[:, None] * dim + np.arange(2 * lt + 1)
        position = (corner[blocks, None] + entry.ravel()).ravel()
        groups.append(AssemblyGroup(ls, lt, k[blocks], seg[blocks] - lo, position, weights,
                                    table))
    return AssemblyPlan(tuple(groups), keys, fetch)


def assemble(h: So3Features, pair: So3Features, prepared, params) -> BlockMatrix:
    """Dense matrix from node features (diagonal atom blocks) and pair
    features (off-diagonal atom blocks), symmetrized as ``(H + H^T) / 2``.

    ``h`` (batched over atoms) and ``pair`` (over the directed edges of
    ``prepared``) are global-frame features of one layout, as
    :func:`model.forward` returns them.  Atoms (i, i) and edges (i, j) are
    one batch of items that differ only in their weight prefix,
    ``expand/diag/{z}`` or ``expand/off/{z_i}.{z_j}``.  Following the
    per-graph ``prepared.plan``, each degree pair (l_s, l_t) gathers its
    items and weights and makes the two contractions of
    :func:`cg.expansion` for all its blocks at once: weights with features
    per degree l3, then the group's stacked CG table.  A degree's weights
    are one (segments, mult) view of the stacked weights, and block b
    reads row ``seg[b]`` of it.  Each group writes its blocks into a zero
    (dim, dim) matrix at its ``position`` entries, so the blocks of atom
    pairs beyond the cutoff stay zero, and the result is symmetrized.

    One fused autodiff primitive whose parents are the blocks of ``h``,
    then those of ``pair``, then the weights in ``plan.keys`` order.  Its
    adjoint symmetrizes the cotangent, reads each group's blocks back at
    its ``position`` entries, multiplies them by the table, and scatter-adds
    the feature cotangents into their items and the weight cotangents,
    by segment, into the same (segments, mult) views of the stacked
    weights' cotangent.
    """
    plan = prepared.plan
    weights = plan.fetch(params)
    # an untaped call stacks the arrays as they are, without a call per key
    stacked = np.concatenate([ad.value_of(w) for w in weights] if ad.Var in map(type, weights)
                             else weights, dtype=np.float64)
    items = {l: np.concatenate([ad.value_of(a), ad.value_of(b)])
             for (l, a), b in zip(h.items(), pair.blocks)}
    dim = prepared.layout.dim
    dense = np.zeros(dim * dim)   # the blocks of pairs beyond the cutoff stay zero
    gathered = []
    for group in plan.groups:
        feats = [(items[l3][group.k],
                  stacked[off:off + segs * mult].reshape(segs, mult).take(group.seg, axis=0))
                 for l3, (off, mult, segs) in group.weights.items()]
        y = [np.einsum("...uc,...u->...c", x, w) for x, w in feats]
        y = y[0] if len(y) == 1 else np.concatenate(y, axis=-1)
        gathered.append(feats)
        dense[group.position] = np.einsum("...c,nc->...n", y, group.table).ravel()
    dense = dense.reshape(dim, dim)
    value = (dense + dense.T) * 0.5

    def vjp(g):
        d_dense = ((g + g.T) * 0.5).ravel()
        d_items = {l: np.zeros(x.shape) for l, x in items.items()}
        d_stacked = np.zeros(stacked.shape)
        for group, feats in zip(plan.groups, gathered):
            d_out = d_dense[group.position].reshape(len(group.k), -1)
            d_y = np.einsum("...n,nc->...c", d_out, group.table)
            col = 0
            for (l3, (off, mult, segs)), (x, w) in zip(group.weights.items(), feats):
                d_part = d_y[..., col:col + 2 * l3 + 1]
                col += 2 * l3 + 1
                np.add.at(d_items[l3], group.k, w[..., None] * d_part[..., None, :])
                np.add.at(d_stacked[off:off + segs * mult].reshape(segs, mult), group.seg,
                          np.einsum("...uc,...c->...u", x, d_part))
        n = h.batch_shape[0]
        sizes = [w.shape[0] for w in weights]
        return ([d[:n] for d in d_items.values()] + [d[n:] for d in d_items.values()]
                + [d_stacked[end - size:end] for size, end in zip(sizes, accumulate(sizes))])

    return BlockMatrix(ad.primitive(value, (*h.blocks, *pair.blocks, *weights), vjp),
                       prepared.layout)


def block_rotate(H: BlockMatrix, g: Rotation) -> BlockMatrix:
    """Independent equivariance oracle: conjugate every orbital sub-block.

    Builds the block-diagonal direct sum T of per-orbital Wigner-D
    matrices, every degree from one Wigner pass, and returns T H T^T,
    which equals applying ``D_{l_s}(g) . D_{l_t}(g)^T`` block-wise.
    """
    layout = H.layout
    d = wigner_d_batch(max((l for orbs in layout.degrees for l in orbs), default=0), *g.euler)
    T = np.zeros((layout.dim, layout.dim))
    for i, orbs in enumerate(layout.degrees):
        for s, l in enumerate(orbs):
            sl = layout.orbital_slice(i, s)
            T[sl, sl] = d[l][0]
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
    import scipy.linalg  # not at module level: it is most of the package's import time
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
    """True inside the diagonal atom blocks: where row and column atoms agree."""
    atom = np.repeat(np.arange(len(layout.degrees)),
                     [sum(2 * l + 1 for l in orbs) for orbs in layout.degrees])
    return atom[:, None] == atom


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))


def _degenerate_clusters(eigvals: np.ndarray, n_occ: int, gap: float = 1e-8):
    """Index ranges of the runs of the n_occ lowest (ascending) eigenvalues
    whose neighbours lie within ``gap`` of each other."""
    cuts = [0, *(np.flatnonzero(np.diff(eigvals[:n_occ]) >= gap) + 1).tolist(), n_occ]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


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
    """BlockMatrix of outside data; ValueError unless its entries are finite
    numbers and it is (dim, dim) for the layout."""
    data = finite_array(data, "matrix data")
    if layout is not None and data.shape != (layout.dim, layout.dim):
        raise ValueError(f"layout of dimension {layout.dim} does not fit a {data.shape} matrix")
    return BlockMatrix(data, layout)


def matrix_loads(text: str | bytes) -> BlockMatrix:
    """Matrix of a JSON document with its "data" rows and a "layout" of
    per-atom degree lists or null."""
    doc = json.loads(text)
    layout = doc.get("layout") if isinstance(doc, dict) else None
    if not (isinstance(doc, dict) and "data" in doc
            and (layout is None or isinstance(layout, list))):
        raise ValueError('a matrix must be a JSON object with "data" and a "layout" list or null')
    return checked_matrix(doc["data"], layout_from_degrees(layout) if layout else None)


def matrix_to_bytes(H: BlockMatrix) -> bytes:
    """Raw binary format: magic, N as int64 LE, then N^2 float64 LE row-major."""
    a = H.array
    n = a.shape[0]
    return BINARY_MAGIC + struct.pack("<q", n) + a.astype("<f8").tobytes(order="C")


def matrix_from_bytes(blob: bytes) -> BlockMatrix:
    """Matrix of the raw binary format of :func:`matrix_to_bytes`, without a
    layout; ValueError unless the header and length fit and every entry is
    finite (:func:`checked_matrix`, as for a JSON matrix)."""
    if blob[:8] != BINARY_MAGIC:
        raise ValueError("bad magic in binary matrix file")
    if len(blob) < 16:
        raise ValueError("binary matrix file ends inside its header")
    (n,) = struct.unpack("<q", blob[8:16])
    if n < 0 or len(blob) != 16 + 8 * n * n:
        raise ValueError(f"binary matrix file has {len(blob)} bytes, but N = {n} "
                         f"needs 16 + 8 N^2")
    return checked_matrix(np.frombuffer(blob[16:], dtype="<f8").reshape(n, n).copy(), None)


def write_matrix(path: str, H: BlockMatrix) -> None:
    if str(path).endswith(".bin"):
        with open(path, "wb") as f:
            f.write(matrix_to_bytes(H))
    else:
        with open(path, "w") as f:
            f.write(matrix_dumps(H))


def read_matrix(path: str) -> BlockMatrix:
    """The matrix in the file at ``path``: the binary format if the path
    ends in ``.bin``, else JSON.  A ValueError of the parser names the file."""
    return read_file(path, matrix_from_bytes if str(path).endswith(".bin") else matrix_loads)
