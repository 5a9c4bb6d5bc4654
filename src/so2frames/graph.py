"""Molecular graphs: atoms, radius-cutoff edges, and synthetic geometry.

Positions are in Bohr.  The edge relation is symmetric: both (i, j) and
(j, i) are stored, each with its own unit direction ``r_hat = (pos_j -
pos_i) / d`` and distance.  Only relative positions ever enter the edge
quantities, which is what makes the model translation invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .sampling import stream


@dataclass(frozen=True)
class Edge:
    i: int
    j: int
    direction: np.ndarray  # unit vector from i to j
    distance: float


@dataclass
class MoleculeGraph:
    numbers: np.ndarray       # (n,) atomic numbers
    positions: np.ndarray     # (n, 3) Bohr
    cutoff: float
    edges: list[Edge] = field(default_factory=list)
    overlap: np.ndarray | None = None
    hamiltonian: np.ndarray | None = None

    @property
    def n_atoms(self) -> int:
        return len(self.numbers)

    def neighbors(self, i: int) -> list[Edge]:
        """Edges leaving atom i, ascending neighbor index."""
        return sorted((e for e in self.edges if e.i == i), key=lambda e: e.j)

    def nearest_neighbor(self, i: int) -> Edge | None:
        """Closest neighbor of i; ties broken by smallest neighbor index."""
        best = None
        for e in self.neighbors(i):
            if best is None or (e.distance, e.j) < (best.distance, best.j):
                best = e
        return best

    def to_json(self) -> str:
        doc = {
            "atoms": [{"z": int(z), "pos": [float(x) for x in p]}
                      for z, p in zip(self.numbers, self.positions)],
            "cutoff": float(self.cutoff),
        }
        if self.overlap is not None:
            doc["overlap"] = self.overlap.tolist()
        if self.hamiltonian is not None:
            doc["hamiltonian"] = self.hamiltonian.tolist()
        return json.dumps(doc, indent=1)


def build_graph(numbers, positions, cutoff: float,
                overlap=None, hamiltonian=None) -> MoleculeGraph:
    numbers = np.asarray(numbers, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (len(numbers), 3):
        raise ValueError(f"positions shape {positions.shape} does not match "
                         f"{len(numbers)} atoms")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite (found NaN or inf)")
    graph = MoleculeGraph(numbers, positions, float(cutoff))
    n = len(numbers)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            delta = positions[j] - positions[i]
            d = float(np.linalg.norm(delta))
            if d <= 0.0:
                raise ValueError(f"atoms {i} and {j} coincide")
            if d <= cutoff:
                graph.edges.append(Edge(i, j, delta / d, d))
    if overlap is not None:
        graph.overlap = np.asarray(overlap, dtype=np.float64)
    if hamiltonian is not None:
        graph.hamiltonian = np.asarray(hamiltonian, dtype=np.float64)
    return graph


def graph_from_json(text: str) -> MoleculeGraph:
    doc = json.loads(text)
    numbers = [a["z"] for a in doc["atoms"]]
    positions = [a["pos"] for a in doc["atoms"]]
    return build_graph(numbers, positions, doc.get("cutoff", 15.0),
                       overlap=doc.get("overlap"), hamiltonian=doc.get("hamiltonian"))


def sample_molecule(seed: int, n_atoms: int, elements, min_dist: float,
                    cutoff: float, max_tries: int = 20000) -> MoleculeGraph:
    """Rejection-sampled synthetic molecule.

    Atoms are placed uniformly in a cube sized so that the geometry stays
    well inside the cutoff, with every pairwise distance >= min_dist.
    Deterministic given the seed.  Raises RuntimeError if max_tries
    placements fail.
    """
    if min_dist <= 0:
        raise ValueError("min_dist must be positive")
    elements = list(elements)
    rng = stream(seed, "molecule-gen")
    side = max(2.0 * min_dist, min_dist * (n_atoms ** (1.0 / 3.0)) * 2.0)
    side = min(side, 0.6 * cutoff)
    positions: list[np.ndarray] = []
    tries = 0
    while len(positions) < n_atoms:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(
                f"could not place {n_atoms} atoms with min_dist {min_dist} "
                f"after {max_tries} tries")
        cand = rng.uniform(-side / 2.0, side / 2.0, size=3)
        if all(np.linalg.norm(cand - p) >= min_dist for p in positions):
            positions.append(cand)
    numbers = rng.choice(np.asarray(elements, dtype=np.int64), size=n_atoms)
    return build_graph(numbers, np.array(positions), cutoff)
