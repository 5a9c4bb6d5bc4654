"""Forward architecture for block-equivariant matrix prediction.

Two feature tracks per layer (node and pair), all nonlinear work done
inside SO(2) local frames:

* node track: gated self-interaction, per-edge messages mixed by SO(2)
  Linear + Gate inside the edge frame and scaled by an invariant MLP of
  pair geometry, exact-sum aggregation, gated self-interaction, skip,
  norm-based equivariant LayerNorm, then a v-fold SO(2) tensor-product
  update inside the nearest-neighbor frame.
* pair track: per-edge SO(2) features kept in their own edge frame,
  updated by an SO(2) feed-forward block on the frame projections of the
  two endpoint features, with skip connection and SO(2) LayerNorm.

Parameters live in a flat ``{name: array}`` dict so that checkpointing,
gradient bookkeeping, and the optimizer stay trivial.  The forward pass
runs on plain ndarrays for inference and on autodiff Vars for training;
model code never branches on which.

Edge aggregation uses exact (order-independent) summation, so atom
relabeling permutes outputs bit-for-bit, and only relative positions are
consumed, so rigid translations leave outputs unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .counters import OpCounter
from .frames import Frame, frame_from_direction, from_local, so2_layout_of, to_local, TARGET_AXIS
from .graph import MoleculeGraph
from .irreps import IrrepsLayout, So2Features, So3Features, layout_parse, so2_layout
from .sampling import stream
from .so2ops import (enumerate_tp_paths, init_mlp, init_so2_ffn, init_so2_gate,
                     init_so2_layernorm, init_so2_linear, mlp, so2_ffn, so2_gate,
                     so2_layernorm, so2_linear, so2_tp_contract, uniform_init)

DEFAULT_BASIS: dict[int, tuple[int, ...]] = {
    1: (0, 0, 1),
    6: (0, 0, 0, 1, 1, 2),
    7: (0, 0, 0, 1, 1, 2),
    8: (0, 0, 0, 1, 1, 2),
    9: (0, 0, 0, 1, 1, 2),
}


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
    m_max: int | None = None
    seed: int = 0

    @property
    def node_layout(self) -> IrrepsLayout:
        return layout_parse(self.node_irreps)

    @property
    def l_max(self) -> int:
        return self.node_layout.max_index

    @property
    def order_max(self) -> int:
        return self.l_max if self.m_max is None else self.m_max

    @property
    def basis_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.basis)

    def to_json_obj(self):
        return {
            "node_irreps": self.node_irreps,
            "layers": self.layers,
            "tp_arity": self.tp_arity,
            "tp_channels": self.tp_channels,
            "ffn_channels": self.ffn_channels,
            "invariant_width": self.invariant_width,
            "rbf_size": self.rbf_size,
            "cutoff": self.cutoff,
            "elements": list(self.elements),
            "basis": {str(z): list(orbs) for z, orbs in self.basis},
            "m_max": self.m_max,
            "seed": self.seed,
        }

    @classmethod
    def from_json_obj(cls, doc) -> "ModelConfig":
        return cls(
            node_irreps=doc["node_irreps"],
            layers=doc["layers"],
            tp_arity=doc["tp_arity"],
            tp_channels=doc["tp_channels"],
            ffn_channels=doc["ffn_channels"],
            invariant_width=doc["invariant_width"],
            rbf_size=doc["rbf_size"],
            cutoff=doc["cutoff"],
            elements=tuple(doc["elements"]),
            basis=tuple(sorted((int(z), tuple(orbs)) for z, orbs in doc["basis"].items())),
            m_max=doc.get("m_max"),
            seed=doc.get("seed", 0),
        )


# ---------------------------------------------------------------------------
# geometry preparation (parameter independent, cached per graph)
# ---------------------------------------------------------------------------

@dataclass
class PreparedGraph:
    """Per-graph caches: frames, radial features, neighbor lists."""

    edge_frames: dict[tuple[int, int], Frame]
    node_frames: list[Frame]
    edge_rbf: dict[tuple[int, int], np.ndarray]
    neighbor_lists: list[list[tuple[int, int]]]  # per node, ascending-j edge keys
    edge_keys: list[tuple[int, int]]             # sorted directed edges


def rbf(distance: float, config: ModelConfig) -> np.ndarray:
    """Gaussian radial basis with a smooth cosine cutoff envelope.

    Centers are uniform on (0, cutoff], width cutoff/K; the envelope
    0.5 (1 + cos(pi r / cutoff)) brings every basis value to zero at the
    cutoff.  Raises ValueError outside (0, cutoff].
    """
    K = config.rbf_size
    cut = config.cutoff
    if not 0.0 < distance <= cut:
        raise ValueError(f"distance {distance} outside (0, {cut}]")
    centers = np.linspace(cut / K, cut, K)
    width = cut / K
    envelope = 0.5 * (1.0 + math.cos(math.pi * distance / cut))
    return envelope * np.exp(-((distance - centers) ** 2) / (2.0 * width * width))


def prepare_graph(graph: MoleculeGraph, config: ModelConfig) -> PreparedGraph:
    l_max = config.l_max
    edge_frames = {}
    edge_rbf = {}
    keys = []
    for e in sorted(graph.edges, key=lambda e: (e.i, e.j)):
        key = (e.i, e.j)
        keys.append(key)
        edge_frames[key] = frame_from_direction(e.direction, l_max)
        edge_rbf[key] = rbf(e.distance, config)
    node_frames = []
    neighbor_lists = []
    identity = frame_from_direction(TARGET_AXIS, l_max)
    for i in range(graph.n_atoms):
        nbrs = graph.neighbors(i)
        neighbor_lists.append([(e.i, e.j) for e in nbrs])
        nearest = graph.nearest_neighbor(i)
        if nearest is None:
            node_frames.append(identity)  # isolated-node fallback
        else:
            node_frames.append(edge_frames[(nearest.i, nearest.j)])
    return PreparedGraph(edge_frames, node_frames, edge_rbf, neighbor_lists, keys)


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
    s_width = sum(c for _, c in layout.entries)
    F = config.invariant_width
    K = config.rbf_size
    tp_layout = uniform_so2(config.order_max, config.tp_channels)
    ffn_layout = uniform_so2(config.order_max, config.ffn_channels)
    params: dict[str, np.ndarray] = {}

    params["embed/table"] = uniform_init(rng, (len(config.elements), layout.mult(0)))
    params["pair0/s_lin"] = uniform_init(rng, (F, s_width))
    params["pair0/r_lin"] = uniform_init(rng, (F, K))
    init_mlp(params, "pair0/mlp", [F, F, F, reg.mult(0)], rng)

    paths = enumerate_tp_paths(config.order_max, config.tp_arity)
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

    basis = config.basis_map
    l_max = config.l_max
    for z in config.elements:
        orbs = basis[z]
        for s, ls in enumerate(orbs):
            for t, lt in enumerate(orbs):
                for l3 in range(abs(ls - lt), min(ls + lt, l_max) + 1):
                    params[f"expand/diag/{z}/{s}.{t}/{l3}"] = \
                        uniform_init(rng, (layout.mult(l3),)) / len(orbs)
    for zi in config.elements:
        for zj in config.elements:
            for s, ls in enumerate(basis[zi]):
                for t, lt in enumerate(basis[zj]):
                    for l3 in range(abs(ls - lt), min(ls + lt, l_max) + 1):
                        params[f"expand/off/{zi}.{zj}/{s}.{t}/{l3}"] = \
                            uniform_init(rng, (layout.mult(l3),)) / len(basis[zi])
    return params


def _self_interaction(h: So3Features, params, prefix) -> So3Features:
    """Per-degree channel-mixing linear followed by the SO(3) gate."""
    blocks = [ad.matmul(params[f"{prefix}/lin/{l}"], block) for l, block in h.items()]
    return so2_gate(So3Features(h.layout, blocks), params, f"{prefix}/gate")


def add_so3(a: So3Features, b: So3Features) -> So3Features:
    return So3Features(a.layout, [ad.add(x, y) for x, y in zip(a.blocks, b.blocks)])


def add_so2(a: So2Features, b: So2Features) -> So2Features:
    return So2Features(a.layout, [ad.add(x, y) for x, y in zip(a.blocks, b.blocks)])


# ---------------------------------------------------------------------------
# architecture pieces
# ---------------------------------------------------------------------------

def node_embed(z: int, params, config: ModelConfig) -> So3Features:
    """Element embedding: learned l = 0 row, zero higher degrees."""
    if z not in config.elements:
        raise ValueError(f"element {z} not in configured set {config.elements}")
    idx = config.elements.index(z)
    layout = config.node_layout
    row = ad.take(params["embed/table"], idx)
    blocks = [ad.reshape(row, (layout.mult(0), 1))]
    for l in layout.indices[1:]:
        blocks.append(np.zeros(layout.block_shape(l)))
    return So3Features(layout, blocks)


def degree_inner_products(hi: So3Features, hj: So3Features):
    """Concatenated channel-wise per-degree inner products (rotation invariant)."""
    if hi.layout != hj.layout:
        raise ValueError("inner products need a shared layout")
    parts = [ad.sum_axis(ad.mul(bi, bj), axis=1)
             for (_, bi), (_, bj) in zip(hi.items(), hj.items())]
    return ad.concat(parts, axis=0)


def _invariant_mix(params, prefix, s_ij, rbf_vec):
    """MLP(Linear(s) * Linear(rbf)), the shared invariant mixing block."""
    a = ad.matmul(params[f"{prefix}/s_lin"], s_ij)
    b = ad.matmul(params[f"{prefix}/r_lin"], rbf_vec)
    return mlp(ad.mul(a, b), params, f"{prefix}/mlp")


def pair_embed(params, s_ij, rbf_vec):
    """Invariant node-pair embedding feeding the pair track at layer 0."""
    return _invariant_mix(params, "pair0", s_ij, rbf_vec)


def _scale_per_order(scale_vec, node_layout: IrrepsLayout, reg: IrrepsLayout):
    """Broadcast per-(degree, channel) scales to regrouped order blocks.

    ``scale_vec`` has one entry per (degree, channel) slot of the node
    layout; each order-m block receives the slots of every degree >= m in
    ascending-degree order, so a channel keeps one scale across all its
    orders.
    """
    offsets = {}
    off = 0
    for l, c in node_layout.entries:
        offsets[l] = (off, c)
        off += c
    per_order = {}
    for m in reg.indices:
        parts = [ad.take(scale_vec, slice(o, o + c))
                 for l, (o, c) in offsets.items() if l >= m]
        vec = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
        per_order[m] = ad.reshape(vec, (reg.mult(m), 1))
    return per_order


def message_pass(graph: MoleculeGraph, h: list[So3Features], params, config: ModelConfig,
                 prepared: PreparedGraph, layer: int,
                 counter: OpCounter | None = None) -> list[So3Features]:
    """Frame-based message passing.

    Gated self-interaction on the inputs; per edge the source features are
    projected into the edge frame, mixed by SO(2) Linear + Gate, scaled by
    an invariant MLP of (inner products, radial basis), and projected
    back; the node's own gated features and its messages are aggregated by
    exact summation and passed through a second gated self-interaction.
    Inner products are taken on the layer inputs.
    """
    p = f"L{layer}"
    layout = config.node_layout
    reg = so2_layout_of(layout)
    g1 = [_self_interaction(hi, params, f"{p}/self1") for hi in h]
    out = []
    for i in range(graph.n_atoms):
        terms_per_degree = {l: [] for l in layout.indices}
        for l, block in g1[i].items():
            terms_per_degree[l].append(block)
        for (ei, ej) in prepared.neighbor_lists[i]:
            frame = prepared.edge_frames[(ei, ej)]
            local = to_local(frame, g1[ej], counter)
            mixed = so2_gate(so2_linear(local, params, f"{p}/msg/lin", counter),
                             params, f"{p}/msg/gate")
            s_ij = degree_inner_products(h[ei], h[ej])
            scale_vec = _invariant_mix(params, f"{p}/msg/scale", s_ij,
                                       prepared.edge_rbf[(ei, ej)])
            scales = _scale_per_order(scale_vec, layout, reg)
            scaled = So2Features(mixed.layout,
                                 [ad.mul(mixed.block(m), scales[m]) for m in mixed.layout.indices])
            msg = from_local(frame, scaled, layout, counter)
            for l, block in msg.items():
                terms_per_degree[l].append(block)
        agg = So3Features(layout, [ad.exact_sum(terms_per_degree[l]) for l in layout.indices])
        out.append(_self_interaction(agg, params, f"{p}/self2"))
    return out


def node_update_so2tp(graph: MoleculeGraph, h: list[So3Features], params,
                      config: ModelConfig, prepared: PreparedGraph, layer: int,
                      counter: OpCounter | None = None) -> list[So3Features]:
    """v-fold SO(2) tensor-product update in the nearest-neighbor frame.

    The regrouped frame features are first projected to a uniform-width
    order layout (the channel-wise fusion paths need equal channel counts
    at every order), contracted over all fusion paths, projected back,
    and added to the input (skip connection).
    """
    p = f"L{layer}"
    layout = config.node_layout
    paths = enumerate_tp_paths(config.order_max, config.tp_arity)
    weights = [params[f"{p}/tp/w/{k}"] for k in range(len(paths))]
    out = []
    for i in range(graph.n_atoms):
        frame = prepared.node_frames[i]
        local = to_local(frame, h[i], counter)
        u = so2_linear(local, params, f"{p}/tp/pre", counter)
        fused = so2_tp_contract([u] * config.tp_arity, paths, weights, counter)
        y = so2_linear(fused, params, f"{p}/tp/post", counter)
        update = from_local(frame, y, layout, counter)
        out.append(add_so3(h[i], update))
    return out


def offdiag_update(graph: MoleculeGraph, h: list[So3Features],
                   x_pair: dict[tuple[int, int], So2Features], params,
                   config: ModelConfig, prepared: PreparedGraph, layer: int,
                   counter: OpCounter | None = None) -> dict[tuple[int, int], So2Features]:
    """Pair-track update: FFN on the frame projections, skip, SO(2) LayerNorm."""
    p = f"L{layer}"
    out = {}
    for key in prepared.edge_keys:
        i, j = key
        frame = prepared.edge_frames[key]
        mi = to_local(frame, h[i], counter)
        mj = to_local(frame, h[j], counter)
        f = so2_ffn(mi, mj, params, f"{p}/ffn", counter)
        out[key] = so2_layernorm(add_so2(x_pair[key], f), params, f"{p}/ln_pair")
    return out


def forward(graph: MoleculeGraph, params, config: ModelConfig,
            prepared: PreparedGraph | None = None,
            counter: OpCounter | None = None):
    """Full forward pass.

    Returns (per-node So3Features, per-directed-edge So2Features in the
    edge's own frame).  Deterministic: edges are processed in sorted
    order and aggregation is exact summation.
    """
    if prepared is None:
        prepared = prepare_graph(graph, config)
    layout = config.node_layout
    reg = so2_layout_of(layout)
    h = [node_embed(int(z), params, config) for z in graph.numbers]
    x_pair = {}
    for key in prepared.edge_keys:
        i, j = key
        s_ij = degree_inner_products(h[i], h[j])
        inv = pair_embed(params, s_ij, prepared.edge_rbf[key])
        blocks = [ad.reshape(inv, (reg.mult(0), 1))]
        for m in reg.indices[1:]:
            blocks.append(np.zeros(reg.block_shape(m)))
        x_pair[key] = So2Features(reg, blocks)
    for n in range(config.layers):
        msg = message_pass(graph, h, params, config, prepared, n, counter)
        h = [so2_layernorm(add_so3(h[i], msg[i]), params, f"L{n}/ln_node")
             for i in range(graph.n_atoms)]
        h = node_update_so2tp(graph, h, params, config, prepared, n, counter)
        x_pair = offdiag_update(graph, h, x_pair, params, config, prepared, n, counter)
    return h, x_pair


def predict(graph: MoleculeGraph, params, config: ModelConfig,
            prepared: PreparedGraph | None = None,
            counter: OpCounter | None = None):
    """Forward pass plus matrix assembly; returns a BlockMatrix."""
    from .hamiltonian import assemble, build_orbital_layout

    if prepared is None:
        prepared = prepare_graph(graph, config)
    h, x_pair = forward(graph, params, config, prepared, counter)
    layout = build_orbital_layout(graph.numbers, config.basis_map)
    return assemble(h, x_pair, prepared.edge_frames, params, layout, graph, config)


# ---------------------------------------------------------------------------
# training demo
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              clip: float = 1.0) -> None:
    """One constant-rate Adam update with per-entry update clipping.

    The bias-corrected ratio m / sqrt(v) is clamped to [-clip, clip], so a
    single update never moves a parameter by more than lr * clip; this
    suppresses the transient blow-ups Adam exhibits on kinked losses when
    a gradient reappears after its second moment has decayed.
    """
    state.t += 1
    t = state.t
    for name, g in grads.items():
        if g is None:
            continue
        m = state.m[name] = beta1 * state.m.get(name, 0.0) + (1 - beta1) * g
        v = state.v[name] = beta2 * state.v.get(name, 0.0) + (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        update = np.clip(m_hat / (np.sqrt(v_hat) + eps), -clip, clip)
        params[name] = params[name] - lr * update


def fit_demo(graph: MoleculeGraph, target, steps: int, seed: int,
             config: ModelConfig | None = None, lr: float = 1e-3,
             average_decay: float = 0.995):
    """Adam on the mean absolute entry error against a target matrix.

    The optimizer iterates are Polyak-averaged (exponential moving average
    of the parameters, warmup-corrected); the averaged model is what the
    demo returns and whose MAE the trajectory reports, which removes the
    kink chatter a constant learning rate leaves in the raw iterates.

    Returns ``(losses, params)`` where ``losses[k]`` is the averaged
    model's MAE after k updates (``losses[0]`` is the untrained error and
    the array has ``steps + 1`` entries).  Deterministic given the seed.
    Aborts with RuntimeError if the loss goes non-finite.
    """
    config = default_fit_config(graph) if config is None else config
    config = replace(config, seed=seed)
    params = init_params(config)
    averaged = {k: v.copy() for k, v in params.items()}
    prepared = prepare_graph(graph, config)
    target_data = np.asarray(getattr(target, "data", target), dtype=np.float64)
    state = AdamState({}, {})
    losses = []
    for step in range(steps + 1):
        pred = predict(graph, averaged, config, prepared)
        value = float(np.mean(np.abs(pred.array - target_data)))
        if not math.isfinite(value):
            raise RuntimeError(f"non-finite loss {value} at step {step}")
        losses.append(value)
        if step == steps:
            break
        leaves = {k: ad.Var(v) for k, v in params.items()}
        live = predict(graph, leaves, config, prepared)
        loss = ad.mean_all(ad.absolute(ad.sub(live.data, target_data)))
        if not math.isfinite(float(loss.value)):
            raise RuntimeError(f"non-finite training loss at step {step}")
        ad.backward(loss)
        grads = {k: leaves[k].grad for k in params}
        adam_step(params, grads, state, lr)
        w = min(average_decay, (step + 1.0) / (step + 2.0))
        for k in averaged:
            averaged[k] = w * averaged[k] + (1.0 - w) * params[k]
    return np.array(losses), averaged


def default_fit_config(graph: MoleculeGraph) -> ModelConfig:
    """Small configuration sized for the desk-scale fitting demo."""
    elements = tuple(sorted({int(z) for z in graph.numbers}))
    basis = tuple((z, DEFAULT_BASIS[z]) for z in elements)
    l_orb = max(l for _, orbs in basis for l in orbs)
    l_max = min(2 * l_orb, 4) if l_orb > 0 else 1
    l_max = max(l_max, 1)
    parts = []
    for l in range(l_max + 1):
        parts.append(f"{max(8 // (2 ** l), 2)}x{l}e")
    return ModelConfig(node_irreps="+".join(parts), layers=1, tp_arity=2,
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


def checkpoint_loads(text: str) -> tuple[ModelConfig, dict]:
    doc = json.loads(text)
    config = ModelConfig.from_json_obj(doc["config"])
    params = {k: np.asarray(v, dtype=np.float64) for k, v in doc["params"].items()}
    return config, params
