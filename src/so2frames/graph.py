"""Molecular graphs: atoms, radius-cutoff edges, and synthetic geometry.

Positions are in Bohr.  The edge relation is symmetric: both (i, j) and
(j, i) are stored, in (i, j) order, with unit directions ``r_hat = (pos_j
- pos_i) / d`` and distances as arrays.  Only relative positions enter the
edge quantities, which is what makes the model translation invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .sampling import stream

MAX_ATOMIC_NUMBER = 118


def is_atomic_number(z) -> bool:
    """An integer in 1..MAX_ATOMIC_NUMBER, the rule of every reader of
    atomic numbers; a boolean is no number."""
    return isinstance(z, Integral) and not isinstance(z, bool) and 1 <= z <= MAX_ATOMIC_NUMBER


@dataclass
class MoleculeGraph:
    """Atoms and their directed edges, as arrays in (i, j) order."""

    numbers: np.ndarray       # (n,) atomic numbers
    positions: np.ndarray     # (n, 3) Bohr
    cutoff: float
    edges: np.ndarray         # (E, 2) atom pairs (i, j) within the cutoff
    directions: np.ndarray    # (E, 3) unit vectors from i to j
    distances: np.ndarray     # (E,) Bohr
    overlap: np.ndarray | None = None
    hamiltonian: np.ndarray | None = None

    @property
    def n_atoms(self) -> int:
        return len(self.numbers)

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


def _check_cutoff(cutoff) -> None:
    # NaN fails the comparison; a bool would pass as 1, a string would raise TypeError
    if isinstance(cutoff, bool) or not isinstance(cutoff, Real) or not cutoff > 0.0:
        raise ValueError(f"cutoff must be a positive number, got {cutoff!r}")


def build_graph(numbers, positions, cutoff: float,
                overlap=None, hamiltonian=None) -> MoleculeGraph:
    """Every ordered atom pair (i, j) within the cutoff, in one array pass;
    raises ValueError for an empty atom list, bad geometry or cutoff, naming
    the first coincident pair."""
    numbers = np.asarray(numbers, dtype=np.int64)
    if numbers.size == 0:
        raise ValueError("a molecule needs at least one atom, got an empty atom list")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (len(numbers), 3):
        raise ValueError(f"positions shape {positions.shape} does not match {len(numbers)} atoms")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite (found NaN or inf)")
    _check_cutoff(cutoff)
    i, j = np.nonzero(~np.eye(len(numbers), dtype=bool))
    delta = positions[j] - positions[i]
    # per-pair dot products match np.linalg.norm bit for bit (norm(axis=-1) does not)
    distance = np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
    if np.any(distance <= 0.0):
        k = np.argmax(distance <= 0.0)
        raise ValueError(f"atoms {i[k]} and {j[k]} coincide")
    keep = distance <= cutoff
    return MoleculeGraph(numbers, positions, float(cutoff),
                         np.stack([i[keep], j[keep]], axis=1),
                         delta[keep] / distance[keep, None], distance[keep],
                         overlap, hamiltonian)


def finite_array(value, name: str) -> np.ndarray:
    """``value`` of an input file as a float64 array; ValueError naming
    ``name`` unless every entry is a finite number."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):  # a string, object or ragged list
        raise ValueError(f"{name} must be an array of numbers") from None
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite (found NaN or inf)")
    return array


def read_file(path, parse):
    """``parse`` of the bytes of the file at ``path``; its ValueError names the file."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return parse(blob)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _is_point(pos) -> bool:
    """A list of three real numbers; a JSON boolean is no number."""
    return (isinstance(pos, list) and len(pos) == 3
            and all(isinstance(x, Real) and not isinstance(x, bool) for x in pos))


def graph_from_json(text: str | bytes) -> MoleculeGraph:
    """Molecule from its JSON file; :func:`build_graph` checks the geometry."""
    doc = json.loads(text)
    atoms = doc.get("atoms") if isinstance(doc, dict) else None
    if not isinstance(atoms, list) or not all(isinstance(a, dict) and is_atomic_number(a.get("z"))
                                              and _is_point(a.get("pos")) for a in atoms):
        raise ValueError('a molecule must be a JSON object with an "atoms" list of objects '
                         f'with an integer "z" in 1..{MAX_ATOMIC_NUMBER} and a "pos" of '
                         'three numbers')
    targets = {key: finite_array(doc[key], key) for key in ("overlap", "hamiltonian")
               if doc.get(key) is not None}
    return build_graph([a["z"] for a in atoms], [a["pos"] for a in atoms], doc.get("cutoff", 15.0),
                       **targets)


def sample_molecule(seed: int, n_atoms: int, elements, min_dist: float,
                    cutoff: float, max_tries: int = 20000) -> MoleculeGraph:
    """Rejection-sampled synthetic molecule.

    Atoms are placed uniformly in a cube sized so that the geometry stays
    well inside the cutoff (its side is at most ``0.6 * cutoff``), with
    every pairwise distance >= min_dist.  Deterministic given the seed.
    Raises ValueError, before sampling, for a bad ``n_atoms``, ``min_dist``
    or ``cutoff``, or for two or more atoms when the cube's diagonal
    ``0.6 * cutoff * sqrt(3)`` is shorter than ``min_dist``; and
    RuntimeError if max_tries placements fail.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    if not (isinstance(min_dist, Real) and 0.0 < min_dist < np.inf):   # NaN fails too
        raise ValueError(f"min_dist must be a finite positive number, got {min_dist!r}")
    _check_cutoff(cutoff)
    diagonal = 0.6 * cutoff * math.sqrt(3.0)
    if n_atoms >= 2 and diagonal < min_dist:
        raise ValueError(f"cutoff {cutoff} is too small for min_dist {min_dist}: atoms are "
                         f"placed in a cube of side 0.6 * cutoff, whose diagonal "
                         f"{diagonal:.4g} is shorter than min_dist")
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
