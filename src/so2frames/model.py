"""Forward architecture for block-equivariant matrix prediction.

Two feature tracks per layer (node and pair), all nonlinear work done
inside SO(2) local frames:

* node track: gated self-interaction, per-edge messages mixed by SO(2)
  Linear + Gate inside the edge frame and scaled by an invariant MLP of
  pair geometry, order-independent aggregation, gated self-interaction,
  skip, norm-based equivariant LayerNorm, then a v-fold SO(2)
  tensor-product update averaged over the atom's nearest-edge frames.
* pair track: per-edge SO(2) features kept in their own edge frame,
  updated by an SO(2) feed-forward block on the frame projections of the
  two endpoint features, with skip connection and SO(2) LayerNorm, and
  rotated out of the edge frames once, at the end of the forward pass.

Features are batched: the node track is one So3Features whose blocks are
(N, C, 2l+1), the pair track one So2Features whose blocks are (E, C, 1|2)
over the directed edges in (i, j) order (an So3Features of (E, C, 2l+1)
blocks once rotated out), and every stage is a fixed number of array
operations per layer, whatever the size of the molecule.

The element embedding is invariant, degree 0 alone, and so is the pair
embedding, order 0 alone.  Layer 0 gets them as they are: an invariant
rotated into an edge frame has order 0 alone, so layer 0's message runs
on order 0, and its ops skip the blocks that would be zero.  Hence the
first layer's degree/order mixers above 0 get no gradient, and Adam
leaves them and their moments untouched.

Parameters live in a flat ``{name: array}`` dict so that checkpointing,
gradient bookkeeping, and the optimizer stay trivial.  The forward pass
runs on plain ndarrays for inference and on autodiff Vars for training;
model code never branches on which.

Each item's result depends only on that item, and messages and node-frame
updates are added by a sorted segment sum (:func:`autodiff.segment_sum`),
so atom relabeling permutes outputs bit-for-bit; only relative positions
are consumed, so rigid translations leave outputs unchanged.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .counters import OpCounter, counting
from .frames import (Frame, frames_from_directions, from_local, order_alignment_permutation,
                     so2_layout_of, to_local)
from .graph import (MAX_ATOMIC_NUMBER, MoleculeGraph, finite_array, is_atomic_number,
                    is_integer, is_real)
from .hamiltonian import (AssemblyPlan, BlockMatrix, OrbitalLayout, assemble, assembly_plan,
                          build_orbital_layout, init_expansion)
from .irreps import (DEFAULT_L_CAP, SO3, IrrepsLayout, LayoutError, So2Features, So3Features,
                     layout_parse, so2_layout, so3_layout)
from .sampling import stream
from .so2ops import (enumerate_tp_paths, gate_apply, init_mlp, init_so2_ffn, init_so2_gate,
                     init_so2_layernorm, init_so2_linear, mlp, mlp_weights, scale_rows,
                     so2_ffn, so2_gate, so2_layernorm, so2_linear, so2_tp_contract,
                     tp_path_count, uniform_init)

DEFAULT_BASIS: dict[int, tuple[int, ...]] = {
    1: (0, 0, 1),
    6: (0, 0, 0, 1, 1, 2),
    7: (0, 0, 0, 1, 1, 2),
    8: (0, 0, 0, 1, 1, 2),
    9: (0, 0, 0, 1, 1, 2),
}


# the config fields a JSON config holds as they are, in file order
_SCALAR_FIELDS = ("node_irreps", "layers", "tp_arity", "tp_channels", "ffn_channels",
                  "invariant_width", "rbf_size", "cutoff")
# the integer config fields besides the seed, with their least values
_INTEGER_FIELDS = {"layers": 0, "tp_arity": 2, "tp_channels": 1, "ffn_channels": 1,
                   "invariant_width": 1, "rbf_size": 1}
# the largest tensor product a config may ask for: enumerate_tp_paths walks all
# (l_max + 1) ** tp_arity order tuples, and every path has its weights; at
# l_max 4, arity 6 has 28847 paths and arity 7 has 165580
MAX_TP_ARITY = 16
MAX_TP_PATHS = 10 ** 5


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; everything needed to rebuild a model."""

    node_irreps: str = "8x0e+8x1e+4x2e+4x3e+2x4e"
    layers: int = 2
    tp_arity: int = 3
    tp_channels: int = 8
    ffn_channels: int = 8
    invariant_width: int = 16
    rbf_size: int = 32
    cutoff: float = 15.0
    elements: tuple[int, ...] = (1, 6, 7, 8, 9)
    basis: tuple[tuple[int, tuple[int, ...]], ...] = tuple(sorted(DEFAULT_BASIS.items()))
    seed: int = 0

    def __post_init__(self):
        for name, least in _INTEGER_FIELDS.items():
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        cutoff = self.cutoff  # NaN fails the comparison
        if not is_real(cutoff) or not 0.0 < cutoff < math.inf:
            raise ValueError(f"cutoff must be finite and positive, got {cutoff!r}")
        if not isinstance(self.node_irreps, str):
            raise ValueError(f"node_irreps must be a string, got {self.node_irreps!r}")
        try:
            layout = layout_parse(self.node_irreps)
        except LayoutError as err:
            raise ValueError(f"node_irreps {self.node_irreps!r}: {err}") from None
        if layout.max_index > DEFAULT_L_CAP:
            raise ValueError(f"node_irreps degree {layout.max_index} exceeds {DEFAULT_L_CAP}")
        # the embedding, the gates and the invariants live in the 0e channels
        if layout.kind != SO3 or layout.mult(0) == 0:
            raise ValueError(f"node_irreps {self.node_irreps!r} has no 0e channels")
        arity, l_max = self.tp_arity, layout.max_index
        if arity > MAX_TP_ARITY or tp_path_count(l_max, arity) > MAX_TP_PATHS:
            raise ValueError(f"tp_arity {arity} at l_max {l_max} is too large to build: the "
                             f"limits are {MAX_TP_ARITY} factors and {MAX_TP_PATHS} fusion paths")
        if not all(is_atomic_number(z) for z in self.elements):
            raise ValueError(f"elements must be integers in 1..{MAX_ATOMIC_NUMBER}, "
                             f"got {list(self.elements)}")
        if not self.elements or len(set(self.elements)) != len(self.elements):
            raise ValueError(f"elements must be distinct and not empty, got {self.elements}")
        keys = [z for z, _ in self.basis]
        if not all(is_atomic_number(z) for z in keys) or len(set(keys)) != len(keys):
            raise ValueError(f"basis must name distinct elements in 1..{MAX_ATOMIC_NUMBER}, "
                             f"got {keys}")
        for z, degrees in self.basis:
            if not degrees or not all(is_integer(l) and 0 <= l <= DEFAULT_L_CAP
                                      for l in degrees):
                raise ValueError(f"basis of element {z} must be a non-empty list of degrees "
                                 f"in [0, {DEFAULT_L_CAP}], got {list(degrees)}")
        missing = [z for z in self.elements if z not in self.basis_map]
        if missing:
            raise ValueError(f"element {missing[0]} has no basis")

    @property
    def node_layout(self) -> IrrepsLayout:
        return layout_parse(self.node_irreps)

    @property
    def l_max(self) -> int:
        return self.node_layout.max_index

    @property
    def basis_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.basis)

    def to_json_obj(self):
        return {**{name: getattr(self, name) for name in _SCALAR_FIELDS},
                "elements": list(self.elements),
                "basis": {str(z): list(orbs) for z, orbs in self.basis},
                # SO(2) orders always run up to l_max; the key keeps the format
                "m_max": None,
                "seed": self.seed}

    @classmethod
    def from_json_obj(cls, doc) -> "ModelConfig":
        """Config of a JSON document; ValueError names the first bad field,
        and a missing field reads as null."""
        if not isinstance(doc, dict):
            raise ValueError("a config must be a JSON object")
        elements, basis = doc.get("elements"), doc.get("basis")
        if not (isinstance(elements, list) and isinstance(basis, dict)
                and all(isinstance(orbs, list) for orbs in basis.values())):
            raise ValueError("config elements must be a list and basis an object of lists")
        try:
            numbers = [int(z) for z in basis]
        except ValueError:
            numbers = []
        # keys as to_json_obj writes them: int() also reads "01", "+1", " 1",
        # "1_0" and the Arabic-Indic "\u0661"
        if [str(z) for z in numbers] != list(basis):
            raise ValueError(f"basis keys must be atomic numbers, got {list(basis)}")
        basis = sorted(zip(numbers, map(tuple, basis.values())), key=lambda entry: entry[0])
        config = cls(**{name: doc.get(name) for name in _SCALAR_FIELDS},
                     elements=tuple(elements), basis=tuple(basis), seed=doc.get("seed", 0))
        # the regrouped node layout has every order up to l_max, and the
        # tensor-product layouts must have the same orders
        m_max = doc.get("m_max")
        if m_max is not None and m_max != config.l_max:
            raise ValueError(f"m_max {m_max} is not supported: it must equal "
                             f"l_max {config.l_max} or be null")
        return config


# ---------------------------------------------------------------------------
# geometry preparation (parameter independent, cached per graph)
# ---------------------------------------------------------------------------

TAU = 1e-9  # relative tie tolerance: far above rotation rounding, far below bond-length gaps


@dataclass(frozen=True)
class PreparedGraph:
    """Per-graph geometry as arrays over the directed edges in (i, j) order,
    and everything else of a forward pass that does not depend on the
    parameters.

    ``src`` and ``dst`` (E,) are the endpoints of each edge; ``frame`` is
    the batched frame of the edge directions, ``d_in[l]`` of shape
    (E, 2l+1, 2l+1) with its rows in the order-aligned basis; ``rbf``
    (E, K) holds the radial features of the edge lengths; ``receivers``
    (N, 1 + max degree) lists each atom's rows of [own features (N);
    messages (E)].  The node-frame items ``node_atom``, ``node_edge`` (I,)
    pair each atom with its edges within a relative TAU of its shortest,
    in edge order, then each atom without an edge with edge -1, in atom
    order; ``node_slots`` (N, T) lists each atom's items.  ``node_frame``
    holds the items' frames: the edge's rows of ``frame``, or the identity
    frame of TARGET_AXIS (:func:`frames.order_alignment_permutation`) for
    an atom without an edge.  ``node_mean`` holds the (N, 1, 1) factors
    that turn an atom's sum of node-frame updates into the update it adds:
    ``1 / items`` for degree 0 and ``connected / items`` for higher
    degrees, where ``items`` counts the atom's items and ``connected`` is 1
    for an atom with an edge and 0 without one.  ``layout`` is the orbital
    layout of the atoms and ``plan`` the :class:`hamiltonian.AssemblyPlan`
    of :func:`hamiltonian.assemble`.
    """

    src: np.ndarray
    dst: np.ndarray
    frame: Frame
    rbf: np.ndarray
    receivers: np.ndarray
    node_atom: np.ndarray
    node_edge: np.ndarray
    node_slots: np.ndarray
    node_frame: Frame
    node_mean: tuple[np.ndarray, np.ndarray]
    layout: OrbitalLayout
    plan: AssemblyPlan


def rbf(distance, config: ModelConfig) -> np.ndarray:
    """Gaussian radial basis with a smooth cosine cutoff envelope.

    Centers are uniform on (0, cutoff], width cutoff/K; the envelope
    0.5 (1 + cos(pi r / cutoff)) brings every basis value to zero at the
    cutoff.  Distances of shape (...) give (..., K).  Raises ValueError
    for a distance outside (0, cutoff].
    """
    K = config.rbf_size
    cut = config.cutoff
    d = np.asarray(distance, dtype=np.float64)
    inside = (d > 0.0) & (d <= cut)
    if not np.all(inside):
        raise ValueError(f"distance {d[~inside].ravel()[0]} outside (0, {cut}]")
    centers = np.linspace(cut / K, cut, K)
    width = cut / K
    envelope = 0.5 * (1.0 + np.cos(np.pi * d / cut))
    return envelope[..., None] * np.exp(-((d[..., None] - centers) ** 2) / (2.0 * width * width))


def _slots(owner: np.ndarray, n_atoms: int) -> np.ndarray:
    """Row n lists the items owned by atom n in item order, padded with -1."""
    counts = np.bincount(owner, minlength=n_atoms)
    order = np.argsort(owner, kind="stable")
    rank = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner[order]]
    slots = np.full((n_atoms, counts.max(initial=0)), -1)
    slots[owner[order], rank] = order
    return slots


def prepare_graph(graph: MoleculeGraph, config: ModelConfig) -> PreparedGraph:
    n = graph.n_atoms
    src, dst = graph.edges.T
    nearest = np.full(n, np.inf)
    np.minimum.at(nearest, src, graph.distances)
    tied = np.flatnonzero(graph.distances <= nearest[src] * (1.0 + TAU))
    isolated = np.flatnonzero(np.isinf(nearest))
    node_atom = np.concatenate([src[tied], isolated])
    frame = frames_from_directions(graph.directions, config.l_max)
    # the items' frames: each tied edge's, then one identity per atom without an edge
    node_frame = Frame([np.concatenate([d.take(tied, 0)] + [order_alignment_permutation(l)[None]]
                                       * len(isolated)) for l, d in enumerate(frame.d_in)])
    items = np.bincount(node_atom, minlength=n)[:, None, None]
    connected = np.isfinite(nearest)[:, None, None]
    layout = build_orbital_layout(graph.numbers, config.basis_map)
    return PreparedGraph(src, dst, frame, rbf(graph.distances, config),
                         _slots(np.concatenate([np.arange(n), src]), n),  # own row first
                         node_atom, np.concatenate([tied, np.full(len(isolated), -1)]),
                         _slots(node_atom, n), node_frame, (1.0 / items, connected / items),
                         layout, assembly_plan(graph.numbers, src, dst, layout, config))


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def uniform_so2(order_max: int, channels: int) -> IrrepsLayout:
    return so2_layout([(m, channels) for m in range(order_max + 1)])


def init_params(config: ModelConfig, rng=None) -> dict[str, np.ndarray]:
    """Fresh parameter dict; deterministic given config.seed (or rng)."""
    rng = stream(config.seed, "model-init") if rng is None else rng
    layout = config.node_layout
    reg = so2_layout_of(layout)
    s_width = layout.channels
    F = config.invariant_width
    K = config.rbf_size
    tp_layout = uniform_so2(config.l_max, config.tp_channels)
    ffn_layout = uniform_so2(config.l_max, config.ffn_channels)
    params: dict[str, np.ndarray] = {}

    params["embed/table"] = uniform_init(rng, (len(config.elements), layout.mult(0)))
    params["pair0/s_lin"] = uniform_init(rng, (F, s_width))
    params["pair0/r_lin"] = uniform_init(rng, (F, K))
    init_mlp(params, "pair0/mlp", [F, F, F, reg.mult(0)], rng)

    paths = enumerate_tp_paths(config.l_max, config.tp_arity)
    for n in range(config.layers):
        p = f"L{n}"
        for half in ("self1", "self2"):
            for l, c in layout.entries:
                params[f"{p}/{half}/lin/{l}"] = uniform_init(rng, (c, c))
            init_so2_gate(params, f"{p}/{half}/gate", layout, rng)
        init_so2_linear(params, f"{p}/msg/lin", reg, reg, rng)
        init_so2_gate(params, f"{p}/msg/gate", reg, rng)
        params[f"{p}/msg/scale/s_lin"] = uniform_init(rng, (F, s_width))
        params[f"{p}/msg/scale/r_lin"] = uniform_init(rng, (F, K))
        init_mlp(params, f"{p}/msg/scale/mlp", [F, F, F, s_width], rng)
        init_so2_layernorm(params, f"{p}/ln_node", layout)
        init_so2_linear(params, f"{p}/tp/pre", reg, tp_layout, rng)
        for k in range(len(paths)):
            params[f"{p}/tp/w/{k}"] = uniform_init(rng, (config.tp_channels,)) / len(paths)
        init_so2_linear(params, f"{p}/tp/post", tp_layout, reg, rng)
        init_so2_ffn(params, f"{p}/ffn", reg, ffn_layout, reg, rng)
        init_so2_layernorm(params, f"{p}/ln_pair", reg)

    init_expansion(params, config, rng)
    return params


def _self_interaction(h: So3Features, params, prefix) -> So3Features:
    """Per-degree channel-mixing linear ``{prefix}/lin/{l}`` followed by the
    SO(3) gate ``{prefix}/gate``, through the kernel of
    :func:`so2ops.so2_gate`.

    One fused autodiff primitive whose parents are the blocks of ``h``, the
    per-degree weights and the gate MLP's weights; its adjoint chains the
    mix's onto :func:`so2ops.gate_apply`'s.  Its value stacks the output
    degrees on the channel axis, each padded to 2 l_max + 1 components, and
    the output blocks are slices of it.
    """
    layout = h.layout
    lins = [params[f"{prefix}/lin/{l}"] for l in layout.indices]
    gate = mlp_weights(params, f"{prefix}/gate/mlp")
    mixes = [ad.matmul_apply(ad.value_of(w), ad.value_of(x)) for w, x in zip(lins, h.blocks)]
    value, rows, gate_vjp = gate_apply([ad.value_of(w) for w in gate],
                                       [out for out, _ in mixes], layout)

    def vjp(g):
        d_mixed = gate_vjp(g)   # the blocks' cotangents, then the gate weights'
        d_lins, d_blocks = zip(*(mix_vjp(d) for (_, mix_vjp), d in zip(mixes, d_mixed)))
        return [*d_blocks, *d_lins, *d_mixed[len(lins):]]

    fused = ad.primitive(value, (*h.blocks, *lins, *gate), vjp)
    return So3Features(layout, [ad.take(fused, (..., r, slice(0, 2 * l + 1)))
                                for l, r in zip(layout.indices, rows)])


def _padded_blocks(x: So3Features, layout: IrrepsLayout) -> list:
    """The blocks of ``x``, whose layout holds the lower entries of
    ``layout``, then zero blocks for the entries it lacks."""
    return list(x.blocks) + [np.zeros(x.batch_shape + shape)
                             for shape in layout.shapes[len(x.blocks):]]


def add_features(a, b):
    """Blockwise sum of two feature containers of one type, where ``a``'s
    layout holds the lower entries of ``b``'s (all of them, or index 0
    alone for an invariant ``a``): the blocks ``a`` lacks are ``b``'s."""
    return type(b)(b.layout, [ad.add(x, y) for x, y in zip(a.blocks, b.blocks)]
                   + list(b.blocks[len(a.blocks):]))


# ---------------------------------------------------------------------------
# architecture pieces
# ---------------------------------------------------------------------------

def node_embed(numbers, params, config: ModelConfig) -> So3Features:
    """Element embedding: the learned l = 0 row, as the invariant features
    it is, of layout ``{c0}x0e`` (the node layout's degree-0 entry); the
    higher degrees of the node layout are zero, and the ops of the first
    message pass read the degrees it lacks as zero.  One :func:`autodiff.take`
    gathers each atom's row of ``embed/table`` as its (c0, 1) column.

    ``numbers`` is one atomic number or an array of them, whose shape
    becomes the leading batch shape of the features.
    """
    numbers = np.asarray(numbers)
    match = numbers[..., None] == np.asarray(config.elements)
    known = match.any(axis=-1)
    if not np.all(known):
        raise ValueError(f"element {numbers[~known].ravel()[0]} not in configured set "
                         f"{config.elements}")
    column = ad.take(params["embed/table"], (match.argmax(axis=-1), ..., None))
    return So3Features(so3_layout(config.node_layout.entries[:1]), [column])


def degree_inner_products(h: So3Features, src, dst, layout: IrrepsLayout):
    """Channel-wise per-degree inner products of the items ``src`` and
    ``dst`` of batched features ``h`` (rotation invariant), as the column
    (..., layout.channels, 1) for index arrays (...): degree l's products
    fill that degree's rows of ``layout``, the node layout.  ``h``'s layout
    holds the lower entries of ``layout`` (all of them, or the embedding's
    degree 0 alone), and the rows of the degrees it lacks are zero, as
    :func:`frames.to_local` reads a missing degree.  One fused autodiff
    primitive whose parents are the blocks of ``h``; its adjoint
    scatter-adds into the items."""
    values = [ad.value_of(b) for b in h.blocks]
    value = np.zeros(np.shape(src) + (layout.channels, 1))
    for rows, v in zip(layout.rows, values):
        value[..., rows, :] = (v[src] * v[dst]).sum(axis=-1, keepdims=True)

    def vjp(g):
        grads = []
        for rows, v in zip(layout.rows, values):
            part = g[..., rows, :]
            grads.append(np.zeros(v.shape))
            np.add.at(grads[-1], src, part * v[dst])
            np.add.at(grads[-1], dst, part * v[src])
        return grads

    return ad.primitive(value, h.blocks, vjp)


def _invariant_mix(params, prefix, s, rbf_vec):
    """MLP(Linear(s) * Linear(rbf)), the shared invariant mixing block.

    ``s`` is the invariant column (..., S, 1) of
    :func:`degree_inner_products` and ``rbf_vec`` (..., K) the radial
    features; the result is a column (..., out, 1).
    """
    a = ad.matmul(params[f"{prefix}/s_lin"], s)
    b = ad.matmul(params[f"{prefix}/r_lin"], np.asarray(rbf_vec)[..., None])
    return mlp(ad.mul(a, b), params, f"{prefix}/mlp")


def pair_embed(params, s, rbf_vec):
    """Invariant node-pair embedding feeding the pair track at layer 0."""
    return _invariant_mix(params, "pair0", s, rbf_vec)


def message_pass(h: So3Features, s, params, config: ModelConfig,
                 prepared: PreparedGraph, layer: int) -> So3Features:
    """Frame-based message passing, all edges at once.

    Gated self-interaction on the inputs; every edge (i, j) projects the
    features of j into its frame, mixes them by SO(2) Linear + Gate,
    scales them by an invariant MLP of (inner products, radial basis) and
    projects them back; each atom's own gated features and its messages
    are added by one order-independent segment sum over both blocks,
    ``segment_sum(receivers, own, incoming)``, and passed through a second
    gated self-interaction.  ``s`` is the invariant column of the layer
    inputs' inner products over the edges,
    ``degree_inner_products(h, src, dst, layout)``.

    ``h`` may hold the lower degrees of the node layout alone, and the
    degrees it lacks are zero: invariant inputs (the embedding, degree 0)
    give order 0 alone in the edge frames, since an invariant rotated into
    a frame has no other order, so the first self-interaction, the
    rotations, the SO(2) Linear, the gate and the scaling skip the zero
    blocks, and the message is rotated out from order 0.  The aggregation
    adds zero own rows for the missing degrees, and the result has the
    node layout.
    """
    p = f"L{layer}"
    layout = config.node_layout
    g1 = _self_interaction(h, params, f"{p}/self1")
    local = to_local(prepared.frame, g1, prepared.dst, so3_layout=layout)
    mixed = so2_gate(so2_linear(local, params, f"{p}/msg/lin"), params, f"{p}/msg/gate")
    scale = _invariant_mix(params, f"{p}/msg/scale", s, prepared.rbf)
    # the scale has one slot per (degree, channel), ascending degree; order
    # m holds the channels of every degree l >= m, so it takes the slots
    # from degree m on, and a channel keeps one scale across all its orders
    scaled = [scale_rows(block, scale, slice(layout.first_row[m], None))
              for m, block in mixed.items()]
    msg = from_local(prepared.frame, So2Features(mixed.layout, scaled), layout)
    agg = [ad.segment_sum(prepared.receivers, own, incoming)
           for own, incoming in zip(_padded_blocks(g1, layout), msg.blocks)]
    return _self_interaction(So3Features(layout, agg), params, f"{p}/self2")


def node_update_so2tp(h: So3Features, params, config: ModelConfig,
                      prepared: PreparedGraph, layer: int) -> So3Features:
    """v-fold SO(2) tensor-product update, averaged over the frames of each
    atom's nearest edges (ties rotate with the molecule as a set, so the
    mean does not depend on rounding or atom labels).

    Per (atom, edge) item, the regrouped frame features are projected to a
    uniform-width order layout (the channel-wise fusion paths need equal
    channel counts at every order), multiplied with itself along all
    v-fold fusion paths, projected back, and the atom's mean is added to
    the input (skip).

    An atom without neighbors (invariant features, degree 0 only) adds
    only the degree-0 update of the target-axis frame: that block is the
    same in every frame, while higher degrees would not rotate with it.
    """
    p = f"L{layer}"
    layout = config.node_layout
    paths = enumerate_tp_paths(config.l_max, config.tp_arity)
    weights = [params[f"{p}/tp/w/{k}"] for k in range(len(paths))]
    frame = prepared.node_frame
    local = to_local(frame, h, prepared.node_atom)
    u = so2_linear(local, params, f"{p}/tp/pre")
    fused = so2_tp_contract(u, config.tp_arity, weights)
    y = so2_linear(fused, params, f"{p}/tp/post")
    update = from_local(frame, y, layout)
    scalar, directional = prepared.node_mean
    return So3Features(layout, [ad.add(b, ad.mul(ad.segment_sum(prepared.node_slots, du),
                                                 scalar if l == 0 else directional))
                                for (l, b), du in zip(h.items(), update.blocks)])


def offdiag_update(h: So3Features, x_pair: So2Features, params,
                   config: ModelConfig, prepared: PreparedGraph, layer: int) -> So2Features:
    """Pair-track update: FFN on the frame projections, skip, SO(2) LayerNorm."""
    p = f"L{layer}"
    mi = to_local(prepared.frame, h, prepared.src)
    mj = to_local(prepared.frame, h, prepared.dst)
    f = so2_ffn(mi, mj, params, f"{p}/ffn")
    return so2_layernorm(add_features(x_pair, f), params, f"{p}/ln_pair")


def forward(graph: MoleculeGraph, params, config: ModelConfig,
            prepared: PreparedGraph | None = None):
    """Full forward pass.

    Returns ``(h, pair)``, both So3Features of the node layout in the
    global frame: ``h`` batched over atoms, ``pair`` over the directed
    edges of ``prepared``, rotated out of the edge frames by one
    :func:`frames.from_local` at the end.  Deterministic, and each atom's
    and edge's result is independent of its position in the batch.

    The embedding is invariant (degree 0 alone), and layer 0 gets it as it
    is, so its message runs on order 0 in the edge frames
    (:func:`message_pass`); from the skip connection on, the node track
    has every degree.  The pair track starts as order 0 alone, the pair
    embedding, and gets the other orders from the first pair update.  So
    the first layer's degree/order mixers above 0 (``L0/self1/lin/{l}``,
    ``L0/msg/lin/{m}``) act on zero blocks: they get no gradient, and
    Adam leaves them and their moments untouched.
    """
    if prepared is None:
        prepared = prepare_graph(graph, config)
    layout = config.node_layout
    h = node_embed(graph.numbers, params, config)
    s = degree_inner_products(h, prepared.src, prepared.dst, layout)
    x_pair = So2Features(so2_layout(so2_layout_of(layout).entries[:1]),
                         [pair_embed(params, s, prepared.rbf)])
    for n in range(config.layers):
        if n > 0:  # layer 0 reads the embedding's inner products, as the pair track does
            s = degree_inner_products(h, prepared.src, prepared.dst, layout)
        msg = message_pass(h, s, params, config, prepared, n)
        h = so2_layernorm(add_features(h, msg), params, f"L{n}/ln_node")
        h = node_update_so2tp(h, params, config, prepared, n)
        x_pair = offdiag_update(h, x_pair, params, config, prepared, n)
    if h.layout is not layout:   # no layer ran: the embedding's higher degrees are zero
        h = So3Features(layout, _padded_blocks(h, layout))
    return h, from_local(prepared.frame, x_pair, layout)


def predict(graph: MoleculeGraph, params, config: ModelConfig,
            prepared: PreparedGraph | None = None,
            counter: OpCounter | None = None):
    """:func:`forward` then :func:`hamiltonian.assemble`; returns a
    BlockMatrix.  With a ``counter`` the whole call counts into it, as
    inside ``with counting(counter):``; without one it opens no block, so
    an enclosing block counts every kernel."""
    with nullcontext() if counter is None else counting(counter):
        if prepared is None:
            prepared = prepare_graph(graph, config)
        return assemble(*forward(graph, params, config, prepared), prepared, params)


# ---------------------------------------------------------------------------
# training demo
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CLIP = 1.0  # bound on each entry's bias-corrected step, in units of lr
AVERAGE_DECAY = 0.995  # Polyak average of the fit iterates


@dataclass
class AdamState:
    """Adam moments as flat vectors in the order of the parameter buffer."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(params: np.ndarray, grad: np.ndarray, live: np.ndarray, state: AdamState,
              lr: float) -> None:
    """One constant-rate Adam update with per-entry update clipping, in place.

    ``params``, ``grad`` and the boolean ``live`` are flat vectors over all
    parameter entries; entries outside ``live`` (parameters that got no
    gradient) keep their value and both moments bit for bit.  The
    bias-corrected ratio m / sqrt(v) is clamped to [-ADAM_CLIP, ADAM_CLIP],
    so a single update never moves a parameter by more than
    lr * ADAM_CLIP; this suppresses the transient blow-ups Adam exhibits on
    kinked losses when a gradient reappears after its second moment has
    decayed.
    """
    state.t += 1
    t = state.t
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * (grad * grad)
    np.copyto(state.m, m, where=live)
    np.copyto(state.v, v, where=live)
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    update = np.clip(m_hat / (np.sqrt(v_hat) + ADAM_EPS), -ADAM_CLIP, ADAM_CLIP)
    np.subtract(params, lr * update, out=params, where=live)


def _views(buffer: np.ndarray, like: dict) -> dict:
    """Named views into a flat buffer laid out in the dict order of ``like``."""
    views, offset = {}, 0
    for name, array in like.items():
        views[name] = buffer[offset:offset + array.size].reshape(array.shape)
        offset += array.size
    return views


def fit_demo(graph: MoleculeGraph, target, steps: int, seed: int,
             config: ModelConfig | None = None, lr: float = 1e-3):
    """Adam on the mean absolute entry error against a target matrix.

    The optimizer iterates are Polyak-averaged (exponential moving average
    of the parameters with decay AVERAGE_DECAY, warmup-corrected); the
    averaged model is what the demo returns and whose MAE the trajectory
    reports, which removes the kink chatter a constant learning rate leaves
    in the raw iterates.

    The parameters of :func:`init_params` are held in one flat float64
    buffer in dict order, and the named entries are views into it; the
    Polyak average is a second buffer.  Each step concatenates the leaf
    gradients into one vector with a mask of the parameters that got one,
    so :func:`adam_step` and the average are each one array expression.
    The first layer's degree/order mixers above 0 never get one: the
    embedding is invariant, so layer 0's message runs on order 0 and they
    act on no block (:func:`forward`), and Adam leaves them and their
    moments untouched.

    Returns ``(losses, params)`` where ``losses[k]`` is the averaged
    model's MAE after k updates (``losses[0]`` is the untrained error and
    the array has ``steps + 1`` entries), and ``params`` holds copies of
    the averaged parameters.  Before the first update the average equals
    the live parameters, and a taped ``predict`` gives the bits of an
    untaped one, so ``losses[0]`` is read off the first step's taped loss
    when there is a step.  Deterministic given the seed.  Raises
    ValueError for negative ``steps``, a learning rate that is not a
    finite positive number, or a target that is not the molecule's
    (dim, dim) matrix (in its orbital layout, if the target carries one),
    and RuntimeError if the loss goes non-finite.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError(f"learning rate must be a finite positive number, got {lr}")
    config = default_fit_config(graph) if config is None else config
    config = replace(config, seed=seed)
    init = init_params(config)
    flat = np.concatenate([array.ravel() for array in init.values()])
    sizes = [array.size for array in init.values()]
    params = _views(flat, init)
    average = flat.copy()
    averaged = _views(average, init)
    prepared = prepare_graph(graph, config)
    target_data = np.asarray(getattr(target, "data", target), dtype=np.float64)
    layout = getattr(target, "layout", None)
    if target_data.shape != (prepared.layout.dim,) * 2 or layout not in (None, prepared.layout):
        raise ValueError(f"target must be a {prepared.layout.dim}-square matrix in the "
                         f"molecule's orbital layout, got shape {target_data.shape}")
    state = AdamState(np.zeros(flat.size), np.zeros(flat.size))
    losses = []

    def record(pred: BlockMatrix) -> None:
        value = float(np.mean(np.abs(pred.array - target_data)))
        if not math.isfinite(value):
            raise RuntimeError(f"non-finite loss {value} at step {len(losses)}")
        losses.append(value)

    if not steps:
        record(predict(graph, averaged, config, prepared))
    for step in range(steps):
        leaves = {k: ad.Var(v) for k, v in params.items()}
        live = predict(graph, leaves, config, prepared)
        if step == 0:  # no update yet, so the average is the live parameters
            record(live)
        loss = ad.mean_all(ad.absolute(ad.sub(live.data, target_data)))
        if not math.isfinite(float(loss.value)):
            raise RuntimeError(f"non-finite training loss at step {step}")
        ad.backward(loss)
        grads = [leaf.grad for leaf in leaves.values()]
        grad = np.concatenate([np.zeros(n) if g is None else g.ravel()
                               for g, n in zip(grads, sizes)])
        adam_step(flat, grad, np.repeat([g is not None for g in grads], sizes), state, lr)
        w = min(AVERAGE_DECAY, (step + 1.0) / (step + 2.0))
        average[:] = w * average + (1.0 - w) * flat
        record(predict(graph, averaged, config, prepared))
    return np.array(losses), {k: v.copy() for k, v in averaged.items()}


def fit_node_irreps(l_max: int) -> str:
    """Node irreps of the fitting configs: 8 channels at degree 0, halved
    per degree down to 2, for every degree up to ``l_max``."""
    return "+".join(f"{max(8 // (2 ** l), 2)}x{l}e" for l in range(l_max + 1))


def default_fit_config(graph: MoleculeGraph) -> ModelConfig:
    """Small configuration sized for the desk-scale fitting demo."""
    elements = tuple(sorted({int(z) for z in graph.numbers}))
    for z in elements:
        if z not in DEFAULT_BASIS:
            raise ValueError(f"element {z} has no default basis (known: {sorted(DEFAULT_BASIS)})")
    basis = tuple((z, DEFAULT_BASIS[z]) for z in elements)
    l_orb = max(l for _, orbs in basis for l in orbs)
    l_max = min(2 * l_orb, 4) if l_orb > 0 else 1
    l_max = max(l_max, 1)
    return ModelConfig(node_irreps=fit_node_irreps(l_max), layers=1, tp_arity=2,
                       tp_channels=4, ffn_channels=4, invariant_width=8,
                       rbf_size=16, cutoff=graph.cutoff, elements=elements,
                       basis=basis)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def checkpoint_dumps(config: ModelConfig, params: dict) -> str:
    return json.dumps({
        "config": config.to_json_obj(),
        "params": {k: np.asarray(ad.value_of(v)).tolist() for k, v in sorted(params.items())},
    })


def checkpoint_loads(text: str | bytes) -> tuple[ModelConfig, dict]:
    """Config and parameters of a checkpoint; ValueError unless the parameters
    have the names and shapes that :func:`init_params` gives the config."""
    doc = json.loads(text)
    if not (isinstance(doc, dict) and isinstance(doc.get("params"), dict)):
        raise ValueError('a checkpoint must be a JSON object with a "params" object')
    config = ModelConfig.from_json_obj(doc.get("config"))
    params = {k: finite_array(v, f"parameter {k}") for k, v in doc["params"].items()}
    shapes = {k: v.shape for k, v in params.items()}
    needed = {k: v.shape for k, v in init_params(config).items()}
    if shapes != needed:
        name = min(k for k in shapes.keys() | needed.keys() if shapes.get(k) != needed.get(k))
        raise ValueError(f"parameter {name} is {shapes.get(name, 'missing')} in the checkpoint "
                         f"and {needed.get(name, 'unknown')} in its config")
    return config, params
