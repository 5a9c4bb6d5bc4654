"""Verification harness: equivariance audits, complexity benchmarks, and
serializable run reports.

Reports contain only numbers derived from seeded computation (no wall
clock), so two runs with the same flags and seed produce bit-identical
artifacts; timing medians are printed for information but never stored.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .counters import OpCounter, counting
from .cg import escn_reference_apply, so3_tensor_product, valid_paths
from .frames import rotate_so3, rotation_from_matrix
from .graph import MoleculeGraph, build_graph
from .hamiltonian import assemble, block_rotate
from .irreps import So3Features, real_spherical_harmonics, so3_layout
from .model import ModelConfig, forward, prepare_graph
from .sampling import random_rotation_matrix, random_unit_vector, stream
from .so2ops import enumerate_tp_paths


@dataclass
class RunReport:
    """Outcome of one harness command: recorded numbers plus verdicts."""

    command: str
    config: dict
    seed: int
    checks: dict[str, dict] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)

    def record(self, name: str, passed: bool, **numbers) -> None:
        self.checks[name] = {k: v for k, v in sorted(numbers.items())}
        self.verdicts[name] = "PASS" if passed else "FAIL"

    @property
    def passed(self) -> bool:
        return all(v == "PASS" for v in self.verdicts.values())

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "checks": self.checks,
            "verdicts": self.verdicts,
            "passed": self.passed,
        }, sort_keys=True, indent=1)

    def summary_lines(self) -> list[str]:
        lines = []
        for name, verdict in self.verdicts.items():
            numbers = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in self.checks[name].items())
            lines.append(f"[{verdict}] {name}: {numbers}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


def _max_feature_dev(a: So3Features, b: So3Features) -> float:
    return max((float(np.max(np.abs(x - y), initial=0.0))
                for x, y in zip(a.as_arrays(), b.as_arrays())), default=0.0)


def check_equivariance(graph: MoleculeGraph, params: dict, config: ModelConfig,
                       trials: int = 20, tolerance: float = 1e-9, seed: int = 0,
                       corrupt_wigner: bool = False) -> RunReport:
    """Equivariance audit of the full model on one molecule.

    For each sampled rotation g the rotated-input forward pass is compared
    against the g-transformed baseline on three levels: node features and
    pair features, both as :func:`model.forward` returns them in the
    global frame (Wigner rotation), and the assembled matrix (block
    rotation oracle).  The first trial of the rotation stream is the
    identity so the zero-deviation case is always exercised.
    A rotation can move a bond at the cutoff across it, so the rotated
    molecule has other edges: such a trial compares nodes and blocks but
    not the pair tracks, and the report gets a failed ``edge_set`` check
    with the number of such trials, the first of them and the atom pairs
    whose edge came or went.  A molecule whose edges stay has no such
    check.
    ``corrupt_wigner`` perturbs the cached degree-1 matrix of the first
    edge frame, in the edge frames and in the node frames taken from it,
    to prove the audit detects broken rotations.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    report = RunReport("check-equiv", config.to_json_obj(), seed)
    rng = stream(seed, "check-equiv")
    prepared = prepare_graph(graph, config)
    if corrupt_wigner:   # every use of the first edge frame: its edge and its node items
        for f, at in (prepared.frame, slice(1)), (prepared.node_frame, prepared.node_edge == 0):
            f.d_in[1] = f.d_in[1].copy()
            f.d_in[1][at] += 0.05
    h0, pair0 = forward(graph, params, config, prepared)
    H0 = assemble(h0, pair0, prepared, params)
    node_dev = pair_dev = block_dev = 0.0
    identity_dev = None
    changed, edges = [], set()   # the trials whose edges differ, and the atom pairs
    for trial in range(trials):
        R = rotation_from_matrix(np.eye(3) if trial == 0
                                 else random_rotation_matrix(rng))
        rot_graph_positions = (R.matrix @ graph.positions.T).T
        rot_graph = build_graph(graph.numbers, rot_graph_positions, graph.cutoff)
        rot_prepared = prepare_graph(rot_graph, config)
        h1, pair1 = forward(rot_graph, params, config, rot_prepared)
        trial_node = _max_feature_dev(h1, rotate_so3(h0, R))
        node_dev = max(node_dev, trial_node)
        moved = {*map(tuple, graph.edges.tolist())} ^ {*map(tuple, rot_graph.edges.tolist())}
        if moved:   # a bond at the cutoff came or went: the pair tracks hold other edges
            changed.append(trial)
            edges |= moved
        trial_pair = 0.0 if moved else _max_feature_dev(pair1, rotate_so3(pair0, R))
        pair_dev = max(pair_dev, trial_pair)
        H1 = assemble(h1, pair1, rot_prepared, params)
        trial_block = float(np.max(np.abs(H1.array - block_rotate(H0, R).array)))
        block_dev = max(block_dev, trial_block)
        if trial == 0:
            identity_dev = max(trial_node, trial_pair, trial_block)
    report.record("identity_trial", identity_dev == 0.0, max_error=identity_dev)
    report.record("node_track_equivariance", node_dev < tolerance,
                  max_error=node_dev, trials=trials, tolerance=tolerance)
    report.record("pair_track_equivariance", pair_dev < tolerance,
                  max_error=pair_dev, trials=trials, tolerance=tolerance)
    report.record("block_equivariance", block_dev < tolerance,
                  max_error=block_dev, trials=trials, tolerance=tolerance)
    if changed:
        report.record("edge_set", False, trials=len(changed), first_trial=changed[0],
                      edges=sorted(edges))
    return report


def _fit_slope(xs, counts) -> float:
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(counts, dtype=np.float64))
    return float(np.polyfit(lx, ly, 1)[0])


def brute_force_pair_paths(m_max: int) -> int:
    """Independent pairwise path count: sum rule plus strict differences.

    Mirrors the selection rules directly: one path per (m1, m2) with
    m1 + m2 <= m_max, plus one difference path per (m1, m2) with both
    orders positive and distinct (zero-order differences coincide with
    the sum form since conjugating a real scalar is the identity).
    """
    count = 0
    for m1 in range(m_max + 1):
        for m2 in range(m_max + 1):
            if m1 + m2 <= m_max:
                count += 1
            if m1 > 0 and m2 > 0 and m1 != m2:
                count += 1
    return count


def bench(l_range=range(2, 9), m_range=range(2, 11), channels: int = 1,
          repeats: int = 3, seed: int = 0, emit=None) -> RunReport:
    """Deterministic complexity benchmark with multiply counters.

    For each L: the multiply count of (a) the full CG tensor product with
    a spherical-harmonic filter and (b) the rotate -> SO(2) Linear ->
    rotate-back route, over degrees 0..L at the given channel width; plus
    SO(2) pairwise path counts per M.  Log-log slopes are least-squares
    fits.  Wall-clock medians go to ``emit`` (a print-like callable) only;
    they are never part of the report.  Raises ValueError for ``repeats``
    below 1 or a range value below 1 (the fits take its logarithm).
    """
    for name, least in (("repeats", repeats), ("l_range", min(l_range, default=1)),
                        ("m_range", min(m_range, default=1))):
        if least < 1:
            raise ValueError(f"{name} must be at least 1, got {least}")
    report = RunReport("bench", {"l_range": list(l_range), "m_range": list(m_range),
                                 "channels": channels, "repeats": repeats}, seed)
    rng = stream(seed, "bench")
    tp_counts = []
    rot_counts = []
    for L in l_range:
        degrees = tuple(range(L + 1))
        layout = so3_layout([(l, channels) for l in degrees])
        x = So3Features(layout, [rng.normal(size=layout.block_shape(l)) for l in degrees])
        direction = random_unit_vector(rng)
        sh = real_spherical_harmonics(L, direction)
        weights = {p: rng.normal(size=channels) for p in valid_paths(degrees, degrees, L)}
        c_tp, c_rot = OpCounter(), OpCounter()
        times_tp, times_rot = [], []
        for k in range(repeats):  # only the first repeat counts
            t0 = time.perf_counter()
            with counting(c_tp if k == 0 else None):
                so3_tensor_product(x, sh, weights)
            times_tp.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            with counting(c_rot if k == 0 else None):
                escn_reference_apply(x, direction, weights, degrees)
            times_rot.append(time.perf_counter() - t0)
        tp_counts.append(c_tp.get("so3_tp"))
        rot_counts.append(c_rot.get("frame_rotation") + c_rot.get("so2_linear"))
        if emit is not None:
            emit(f"L={L}: so3_tp count={tp_counts[-1]} "
                 f"(median {np.median(times_tp) * 1e3:.2f} ms), "
                 f"rotate+so2linear count={rot_counts[-1]} "
                 f"(median {np.median(times_rot) * 1e3:.2f} ms)")
    slope_tp = _fit_slope(list(l_range), tp_counts)
    slope_rot = _fit_slope(list(l_range), rot_counts)
    report.record("so3_tp_slope", 5.0 <= slope_tp <= 6.5, slope=slope_tp,
                  counts=tp_counts)
    report.record("rotation_so2linear_slope", 2.5 <= slope_rot <= 3.5,
                  slope=slope_rot, counts=rot_counts)
    path_counts = []
    exact = True
    for M in m_range:
        enumerated = len(enumerate_tp_paths(M, 2))
        brute = brute_force_pair_paths(M)
        exact = exact and enumerated == brute
        path_counts.append(enumerated)
    slope_paths = _fit_slope(list(m_range), path_counts)
    report.record("so2_tp_path_counts", exact, counts=path_counts)
    report.record("so2_tp_path_slope", abs(slope_paths - 2.0) <= 0.3,
                  slope=slope_paths)
    return report
