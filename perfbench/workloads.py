"""The three workloads: seeded inputs, the timed op and its output check.

Each workload is one client in one process, closed loop: the next op
starts when the previous one and its check are done.  Inputs come in
cycles of fixed shape (the same sizes in a seeded order), so the medians
and the per-op counts of a run do not depend on which seed drew the
geometry.  Inputs and checks are untimed; only :meth:`op` is timed.

All library calls go through module attributes (``model.predict``), so
the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np
import scipy.linalg

from so2frames import graph, hamiltonian, model
from so2frames.frames import rotation_from_matrix
from so2frames.sampling import random_rotation_matrix

CUTOFF = 15.0
MIN_DIST = 1.4  # the `so2frames gen` default
ELEMENTS = (1, 6, 8)
EQUIV_TOL = 1e-9
EIG_TOL = 1e-8


class CheckFailed(Exception):
    """An op's output did not pass its check."""


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Workload:
    """Set-up happens in ``__init__(seed, workdir)``; a run then calls
    :meth:`cycle`, and :meth:`op` and :meth:`check` for each input of the
    cycle.  Files go under ``workdir``."""

    name = ""
    # Percentile reported as op_ms_tail.  It is the highest of 50, 75, 90,
    # 95, 99 that keeps at least ten samples beyond it in every run of
    # run_seconds at the commit that defined the benchmark.  It is fixed
    # because a percentile chosen from each run's op count would jump
    # (say from p75 to p90) when a change makes ops faster.
    tail_percentile = 75.0

    def cycle(self, c: int) -> list:
        raise NotImplementedError

    def op(self, inp, counter=None):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError

    def shape_key(self, inp):
        """Ops with equal keys must have equal traced counts."""
        raise NotImplementedError

    def run_problems(self) -> list[str]:
        """Checks on the run as a whole, made after the last op."""
        return []


def _balanced(n: int) -> np.ndarray:
    """H, C and O in turn: the element multiset of every n-atom molecule."""
    return np.array([ELEMENTS[k % len(ELEMENTS)] for k in range(n)])


def _reference_graph():
    """3-atom H/C/O molecule; its `default_fit_config` has l_max 4."""
    return graph.build_graph([1, 6, 8], [[0.0, 0.0, 0.0], [1.8, 0.3, 0.1], [0.5, 1.9, -0.4]],
                             CUTOFF)


class PredictStream(Workload):
    """Fresh 4-12 atom molecules through one fixed l_max 4 checkpoint.

    One op is ``build_graph`` then ``predict``.  A cycle holds one molecule
    of each size in a seeded order.  Geometry comes from ``sample_molecule``;
    an n-atom molecule always has the elements of :func:`_balanced` in a
    seeded order, since the element mix changes the cost of ``assemble``.
    One seeded op per cycle is also checked for block equivariance under a
    seeded rotation.
    """

    name = "predict-stream"
    SIZES = tuple(range(4, 13))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        ref = _reference_graph()
        self.config = replace(model.default_fit_config(ref), seed=seed)
        self.params = model.init_params(self.config)
        model.predict(ref, self.params, self.config)  # warm-up: fills the lazy caches

    def cycle(self, c: int) -> list:
        rng = _rng(self.seed, 1, c)
        sizes = rng.permutation(self.SIZES)
        deep = int(rng.integers(len(sizes)))
        inputs = []
        for k, n in enumerate(sizes):
            mol = graph.sample_molecule(_draw_seed(rng), int(n), ELEMENTS, MIN_DIST, CUTOFF)
            inputs.append({"numbers": rng.permutation(_balanced(int(n))),
                           "positions": mol.positions,
                           "deep": k == deep, "rot_seed": _draw_seed(rng)})
        return inputs

    def op(self, inp, counter=None):
        g = graph.build_graph(inp["numbers"], inp["positions"], CUTOFF)
        return model.predict(g, self.params, self.config, counter=counter)

    def check(self, inp, H) -> None:
        A = H.array
        dim = hamiltonian.build_orbital_layout(inp["numbers"], self.config.basis_map).dim
        _require(A.shape == (dim, dim), f"shape {A.shape}, layout dim {dim}")
        _require(bool(np.all(np.isfinite(A))), "non-finite entries")
        _require(bool(np.array_equal(A, A.T)), "not exactly symmetric")
        if inp["deep"]:
            R = random_rotation_matrix(_rng(inp["rot_seed"]))
            rotated = graph.build_graph(inp["numbers"], inp["positions"] @ R.T, CUTOFF)
            H1 = model.predict(rotated, self.params, self.config)
            oracle = hamiltonian.block_rotate(H, rotation_from_matrix(R))
            dev = float(np.max(np.abs(H1.array - oracle.array)))
            _require(dev <= EQUIV_TOL, f"block equivariance deviation {dev:.3e}")

    def shape_key(self, inp):
        return len(inp["numbers"])


class FitSteps(Workload):
    """`fit_demo` with K steps on the 3-atom H3 molecule of the fit-demo
    acceptance test, against its seed-11 target; a fresh fit seed per op."""

    name = "fit-steps"
    K = 4
    POSITIONS = ((0.0, 0.0, 0.0), (1.8, 0.3, 0.1), (0.5, 1.9, -0.4))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.graph = graph.build_graph([1, 1, 1], np.array(self.POSITIONS), CUTOFF)
        self.config = model.default_fit_config(self.graph)
        self.target, _ = hamiltonian.gen_synthetic_target(self.graph, seed=11, config=self.config)
        self.target_array = self.target.array
        self.ratios: list[float] = []
        model.fit_demo(self.graph, self.target, 1, seed, config=self.config)  # warm-up

    def cycle(self, c: int) -> list:
        return [{"fit_seed": _draw_seed(_rng(self.seed, 2, c))}]

    def op(self, inp, counter=None):
        return model.fit_demo(self.graph, self.target, self.K, inp["fit_seed"],
                              config=self.config)

    def _mae(self, params) -> float:
        pred = model.predict(self.graph, params, self.config)
        return float(np.mean(np.abs(pred.array - self.target_array)))

    def check(self, inp, result) -> None:
        losses, params = result
        losses = np.asarray(losses)
        _require(losses.shape == (self.K + 1,), f"{losses.shape[0]} losses, want {self.K + 1}")
        _require(bool(np.all(np.isfinite(losses))), "non-finite loss")
        init = model.init_params(replace(self.config, seed=inp["fit_seed"]))
        _require(losses[0] == self._mae(init), "losses[0] differs from a fresh predict")
        _require(losses[-1] == self._mae(params), "losses[-1] differs from the returned params")
        self.ratios.append(float(losses[-1] / losses[0]))

    def run_problems(self) -> list[str]:
        # Adam at lr 1e-3 with Polyak averaging overshoots in its first few
        # steps for some fit seeds, so the decrease is checked on the median.
        if self.ratios and not float(np.median(self.ratios)) < 1.0:
            return [f"median final/initial loss {np.median(self.ratios):.4f} is not below 1"]
        return []

    def shape_key(self, inp):
        return 3


class Evaluate(Workload):
    """Matrix I/O and `metrics` on a seeded pool of 5-7 atom molecules.

    Each molecule has a fixed element multiset in a seeded order, so the
    pool's matrix dimensions (34, 3 x 48, 62) are the same for every seed.
    An op's cost is set by the Jacobi sweep counts of its two solves, which
    differ between matrices of one size.  The three molecules of dimension
    48 fill the middle three fifths of every run's sorted op times: the
    median op is the middle one of the three, and p75 lies inside the
    costliest one, not on the edge between two matrices.  Targets and
    predictions are made during set-up; one op writes the prediction
    (``.bin``), reads it back, reads the JSON target and overlap and runs
    ``metrics``.  One seeded op per cycle is also checked against
    ``scipy.linalg.eigh``.
    """

    name = "evaluate"
    COMPOSITIONS = ((1, 1, 1, 1, 6), (1, 1, 1, 1, 6, 8), (1, 1, 1, 1, 6, 8),
                    (1, 1, 1, 1, 6, 8), (1, 1, 1, 1, 6, 6, 8))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = _rng(seed, 3)
        self.pool = []
        for k, comp in enumerate(self.COMPOSITIONS):
            n = len(comp)
            mol = graph.sample_molecule(_draw_seed(rng), n, ELEMENTS, MIN_DIST, CUTOFF)
            numbers = rng.permutation(np.array(comp))
            g = graph.build_graph(numbers, mol.positions, CUTOFF)
            config = model.default_fit_config(g)
            H, S = hamiltonian.gen_synthetic_target(g, _draw_seed(rng), config=config,
                                                    spd_overlap=True)
            params = model.init_params(replace(config, seed=_draw_seed(rng)))
            pred = model.predict(g, params, config)
            entry = {k2: os.path.join(workdir, f"{k2}-{k}.{ext}")
                     for k2, ext in (("pred", "bin"), ("target", "json"), ("overlap", "json"))}
            hamiltonian.write_matrix(entry["target"], H)
            hamiltonian.write_matrix(entry["overlap"], S)
            entry.update(index=k, H=pred, dim=H.array.shape[0])
            self.pool.append(entry)

    def cycle(self, c: int) -> list:
        rng = _rng(self.seed, 4, c)
        order = rng.permutation(len(self.pool))
        deep = int(rng.integers(len(order)))
        return [dict(self.pool[k], deep=i == deep) for i, k in enumerate(order)]

    def op(self, inp, counter=None):
        hamiltonian.write_matrix(inp["pred"], inp["H"])
        pred = hamiltonian.read_matrix(inp["pred"])
        target = hamiltonian.read_matrix(inp["target"])
        overlap = hamiltonian.read_matrix(inp["overlap"])
        return pred, target, overlap, hamiltonian.metrics(pred, target, overlap,
                                                          n_occ=inp["dim"] // 2)

    def check(self, inp, result) -> None:
        pred, target, overlap, values = result
        _require(bool(np.array_equal(pred.array, inp["H"].array)), "binary round trip differs")
        _require(all(math.isfinite(v) for v in values.values()), f"non-finite metric {values}")
        _require(0.0 <= values["cosine_psi"] <= 1.0, f"cosine_psi {values['cosine_psi']}")
        if inp["deep"]:
            H, S = pred.array, overlap.array
            eps, C = hamiltonian.generalized_eigensolve(H, S)
            ref = scipy.linalg.eigh(H, S, eigvals_only=True)
            _require(float(np.max(np.abs(eps - ref))) <= EIG_TOL, "eigenvalues differ from scipy")
            res = float(np.max(np.abs(H @ C - S @ C @ np.diag(eps))))
            _require(res <= EIG_TOL, f"eigen residual {res:.3e}")
            orth = float(np.max(np.abs(C.T @ S @ C - np.eye(len(eps)))))
            _require(orth <= EIG_TOL, f"S-orthonormality error {orth:.3e}")

    def shape_key(self, inp):
        return inp["index"]


WORKLOADS = {w.name: w for w in (PredictStream, FitSteps, Evaluate)}
