"""``predict`` and its taped gradients pinned against stored outputs.

``predict_reference.npz`` holds the dense ``predict`` matrix of seeded
H/C/O molecules at both configs and the parameter gradients of one taped
fit-demo loss on the ``test_08`` molecule.  A change that moves these
bytes on purpose reports its deviation and then regenerates the file:

    PYTHONPATH=src python tests/test_predict_reference.py
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from so2frames import autodiff as ad
from so2frames.graph import build_graph, sample_molecule
from so2frames.hamiltonian import gen_synthetic_target
from so2frames.model import ModelConfig, default_fit_config, init_params, predict

REFERENCE = os.path.join(os.path.dirname(__file__), "predict_reference.npz")
ATOMS = (3, 5, 10, 20)
CONFIGS = {"fit": default_fit_config, "l4": lambda graph: ModelConfig(elements=(1, 6, 8))}
# relative to each array's largest entry
TOLERANCE = 1e-12


def predictions() -> dict[str, np.ndarray]:
    out = {}
    for n in ATOMS:
        graph = sample_molecule(1, n, [1, 6, 8], 1.4, 15.0)
        for name, make in CONFIGS.items():
            config = make(graph)
            out[f"predict/{name}/{n}"] = predict(graph, init_params(config), config).array
    return out


def fit_gradients() -> dict[str, np.ndarray | None]:
    """The leaf gradients of the first taped loss of ``test_08``'s fit."""
    positions = np.array([[0.0, 0.0, 0.0], [1.8, 0.3, 0.1], [0.5, 1.9, -0.4]])
    graph = build_graph([1, 1, 1], positions, cutoff=15.0)
    config = default_fit_config(graph)
    target, _ = gen_synthetic_target(graph, seed=11, config=config)
    config = replace(config, seed=1)
    leaves = {k: ad.Var(v) for k, v in init_params(config).items()}
    live = predict(graph, leaves, config)
    ad.backward(ad.mean_all(ad.absolute(ad.sub(live.data, target.data))))
    return {k: leaf.grad for k, leaf in leaves.items()}


def reference_arrays() -> dict[str, np.ndarray]:
    grads = fit_gradients()
    return {**predictions(),
            **{f"grad/{k}": g for k, g in grads.items() if g is not None},
            "grad_none": np.array(sorted(k for k, g in grads.items() if g is None))}


@pytest.fixture(scope="module")
def stored():
    with np.load(REFERENCE) as data:
        return {k: data[k] for k in data.files}


def assert_close(got: np.ndarray, want: np.ndarray, name: str) -> None:
    assert got.shape == want.shape, name
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= TOLERANCE * scale, name


def test_predict_matches_reference(stored):
    got = predictions()
    assert sorted(got) == sorted(k for k in stored if k.startswith("predict/"))
    for name, array in got.items():
        assert_close(array, stored[name], name)


def test_fit_gradients_match_reference(stored):
    grads = fit_gradients()
    assert sorted(k for k, g in grads.items() if g is None) == list(stored["grad_none"])
    assert sorted(k for k, g in grads.items() if g is not None) == \
        sorted(k[len("grad/"):] for k in stored if k.startswith("grad/"))
    for name, g in grads.items():
        if g is not None:
            assert_close(g, stored[f"grad/{name}"], name)


if __name__ == "__main__":
    np.savez_compressed(REFERENCE, **reference_arrays())
