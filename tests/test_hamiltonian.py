import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from so2frames import autodiff as ad
from so2frames import frames, hamiltonian
from so2frames.cg import expansion
from so2frames.frames import rotation_from_euler, rotation_from_matrix, wigner_d_batch
from so2frames.graph import build_graph
from so2frames.hamiltonian import (BlockMatrix, _degenerate_clusters, _diag_mask, block_rotate,
                                   build_orbital_layout, gen_synthetic_target,
                                   generalized_eigensolve, layout_from_degrees, matrix_dumps,
                                   matrix_from_bytes, matrix_loads, matrix_to_bytes, metrics)
from so2frames.irreps import So3Features
from so2frames.model import (ModelConfig, default_fit_config, forward, init_params, predict,
                             prepare_graph)
from so2frames.sampling import random_rotation_matrix, stream

BASIS = {1: (0, 0, 1), 8: (0, 0, 0, 1, 1, 2)}
# node features without degree 1: blocks that only degree 1 expands get no weights
GAP_CONFIG = ModelConfig(node_irreps="8x0e+4x2e", elements=(1,))


class TestOrbitalLayout:
    def test_single_hydrogen_s(self):
        layout = build_orbital_layout([1], {1: (0,)})
        assert layout.dim == 1

    def test_water_dimension(self):
        layout = build_orbital_layout([1, 1, 8], BASIS)
        assert layout.dim == 2 * (1 + 1 + 3) + (1 + 1 + 1 + 3 + 3 + 5)
        assert layout.dim == 24

    def test_offsets_contiguous(self):
        layout = build_orbital_layout([1, 8], BASIS)
        rows = []
        for i, orbs in enumerate(layout.degrees):
            for s, l in enumerate(orbs):
                sl = layout.orbital_slice(i, s)
                rows.extend(range(sl.start, sl.stop))
        assert rows == list(range(layout.dim))

    def test_permutation_consistency(self):
        fwd = build_orbital_layout([1, 8], BASIS)
        rev = build_orbital_layout([8, 1], BASIS)
        assert fwd.degrees == ((0, 0, 1), (0, 0, 0, 1, 1, 2))
        assert rev.degrees == ((0, 0, 0, 1, 1, 2), (0, 0, 1))
        assert fwd.dim == rev.dim
        assert rev.atom_slice(0) == slice(0, 14)

    def test_unknown_element(self):
        with pytest.raises(ValueError):
            build_orbital_layout([2], BASIS)


@pytest.fixture(scope="module")
def molecule():
    positions = np.array([[0.0, 0.0, 0.0], [1.7, 0.2, 0.4],
                          [0.3, 1.9, -0.2], [-1.2, 0.4, 1.5]])
    graph = build_graph([1, 1, 1, 1], positions, cutoff=15.0)
    config = default_fit_config(graph)
    params = init_params(config)
    return graph, config, params


class TestAssemble:
    def test_zero_params_zero_matrix(self, molecule):
        graph, config, params = molecule
        zeroed = {k: (np.zeros_like(v) if k.startswith("expand/") else v)
                  for k, v in params.items()}
        H = predict(graph, zeroed, config)
        assert np.max(np.abs(H.array)) == 0.0

    def test_symmetry(self, molecule):
        graph, config, params = molecule
        H = predict(graph, params, config)
        assert np.max(np.abs(H.array - H.array.T)) < 1e-12

    def test_block_equivariance(self, molecule, rng):
        graph, config, params = molecule
        H = predict(graph, params, config)
        for _ in range(5):
            g = rotation_from_matrix(random_rotation_matrix(rng))
            rotated = build_graph(graph.numbers, (g.matrix @ graph.positions.T).T,
                                  graph.cutoff)
            H_rot = predict(rotated, params, config)
            assert np.max(np.abs(H_rot.array - block_rotate(H, g).array)) < 1e-10

    @pytest.mark.parametrize("numbers, positions, far", [
        # the last atom lies beyond the cutoff of all the others
        ([8, 1, 6, 1, 8], [[0.0, 0.0, 0.0], [0.96, 0.1, 0.0], [-0.5, 1.3, 0.2],
                           [-1.2, 1.9, -0.7], [25.0, 0.0, 0.0]], 4),
        # one C and one O: no C-C or O-O edges
        ([6, 8], [[0.0, 0.0, 0.0], [1.2, 0.3, -0.4]], None),
    ], ids=["far-atom", "unlike-pair"])
    @pytest.mark.parametrize("make_config", [default_fit_config,
                                             lambda graph: ModelConfig(elements=(1, 6, 8))],
                             ids=["fit-config", "lmax4-config"])
    def test_matches_per_block_reference(self, numbers, positions, far, make_config):
        # one expansion per orbital block of every atom and edge, written into
        # its slice: the batched assembly places the same bits
        graph = build_graph(numbers, positions, cutoff=15.0)
        config = make_config(graph)
        params = init_params(config)
        prepared = prepare_graph(graph, config)
        h, pair = forward(graph, params, config, prepared)
        layout = build_orbital_layout(numbers, config.basis_map)
        dense = np.zeros((layout.dim, layout.dim))

        def place(i, j, blocks, prefix):
            feats = So3Features(config.node_layout, blocks)
            for s, ls in enumerate(layout.degrees[i]):
                for t, lt in enumerate(layout.degrees[j]):
                    names = {l3: f"{prefix}/{s}.{t}/{l3}"
                             for l3 in range(abs(ls - lt), ls + lt + 1)}
                    w = {l3: params[name] for l3, name in names.items() if name in params}
                    dense[layout.orbital_slice(i, s), layout.orbital_slice(j, t)] = \
                        expansion(feats, w, ls, lt)

        for i, z in enumerate(numbers):
            place(i, i, [b[i] for b in h.blocks], f"expand/diag/{z}")
        for e, (i, j) in enumerate(zip(prepared.src, prepared.dst)):
            place(i, j, [b[e] for b in pair.blocks], f"expand/off/{numbers[i]}.{numbers[j]}")
        H = predict(graph, params, config, prepared)
        assert H.array.tobytes() == ((dense + dense.T) * 0.5).tobytes()
        if far is not None:
            far = layout.atom_slice(far)
            assert not np.any(H.array[far, :far.start]) and np.any(H.array[far, far])

    def test_init_params_with_degree_gap(self):
        params = init_params(GAP_CONFIG)
        assert params["expand/diag/1/2.2/2"].shape == (4,)
        assert not any(k.startswith("expand/") and k.endswith("/1") for k in params)

    @pytest.mark.parametrize("numbers, make_config", [
        ([1, 6, 8, 1, 6, 8], default_fit_config),
        ([1, 6, 8, 1, 6, 8], lambda graph: ModelConfig(elements=(1, 6, 8))),
        ([1, 1, 1], lambda graph: GAP_CONFIG),
    ], ids=["fit-config", "lmax4-config", "gap-config"])
    def test_plan_reads_every_initialized_weight(self, numbers, make_config):
        # two atoms of each configured element give every atom and edge kind,
        # so the plan reads exactly the expansion weights init_params draws
        positions = stream(5, "plan-keys").uniform(-2.0, 2.0, size=(len(numbers), 3))
        graph = build_graph(numbers, positions, cutoff=15.0)
        config = make_config(graph)
        keys = prepare_graph(graph, config).plan.keys
        assert len(set(keys)) == len(keys)
        assert set(keys) == {k for k in init_params(config) if k.startswith("expand/")}

    def test_prepared_graph_serves_many_params(self):
        # the assembly plan depends only on the graph: reused with other
        # parameters, it gives the bits of a fresh predict
        graph = build_graph([8, 1, 6, 1], [[0.0, 0.0, 0.0], [0.96, 0.1, 0.0],
                                           [-0.5, 1.3, 0.2], [-1.2, 1.9, -0.7]], cutoff=15.0)
        config = default_fit_config(graph)
        prepared = prepare_graph(graph, config)
        for seed in (1, 2):
            params = init_params(replace(config, seed=seed))
            assert (predict(graph, params, config, prepared).array.tobytes()
                    == predict(graph, params, config).array.tobytes())

    def test_absent_kinds_get_no_gradient(self):
        # C-O has no C-C, O-O or hydrogen kinds: their weights never enter the tape
        graph = build_graph([6, 8], [[0.0, 0.0, 0.0], [1.2, 0.3, -0.4]], cutoff=15.0)
        config = ModelConfig(elements=(1, 6, 8), layers=1, tp_arity=2)
        leaves = {k: ad.Var(v) for k, v in init_params(config).items()}
        ad.backward(ad.mean_all(ad.absolute(predict(graph, leaves, config).data)))
        present = ("expand/diag/6/", "expand/diag/8/", "expand/off/6.8/", "expand/off/8.6/")
        expand = {k: leaf.grad for k, leaf in leaves.items() if k.startswith("expand/")}
        assert all(grad is not None for k, grad in expand.items() if k.startswith(present))
        absent = [k for k in expand if not k.startswith(present)]
        assert absent and all(expand[k] is None for k in absent)

    @pytest.mark.parametrize("numbers, positions", [
        # the last atom lies beyond the cutoff of all the others
        ([8, 1, 6, 1, 8], [[0.0, 0.0, 0.0], [0.96, 0.1, 0.0], [-0.5, 1.3, 0.2],
                           [-1.2, 1.9, -0.7], [25.0, 0.0, 0.0]]),
        ([6], [[0.0, 0.0, 0.0]]),
        ([1, 6, 8, 1, 6], [[0.0, 0.0, 0.0], [1.1, 0.2, -0.1], [-0.4, 1.3, 0.5],
                           [2.0, 1.6, 0.3], [0.6, -1.2, 1.4]]),
    ], ids=["far-atom", "single-atom", "connected-hco"])
    @pytest.mark.parametrize("make_config", [default_fit_config,
                                             lambda graph: ModelConfig(elements=(1, 6, 8))],
                             ids=["fit-config", "lmax4-config"])
    def test_groups_place_every_block_once(self, numbers, positions, make_config):
        # the groups' positions are disjoint and cover exactly the diagonal
        # blocks and the blocks of pairs within the cutoff
        graph = build_graph(numbers, positions, cutoff=15.0)
        config = make_config(graph)
        prepared = prepare_graph(graph, config)
        dim = prepared.layout.dim
        placed = np.zeros(dim * dim, dtype=int)
        for group in prepared.plan.groups:
            assert len(group.position) == len(group.k) * (2 * group.ls + 1) * (2 * group.lt + 1)
            np.add.at(placed, group.position, 1)
        linked = np.eye(len(numbers), dtype=bool)
        linked[tuple(graph.edges.T)] = True
        atom = np.repeat(np.arange(len(numbers)),
                         [sum(2 * l + 1 for l in orbs) for orbs in prepared.layout.degrees])
        within = linked[np.ix_(atom, atom)]
        assert np.array_equal(placed.reshape(dim, dim), within.astype(int))
        H = predict(graph, init_params(config), config, prepared).array
        assert not np.any(H[~within])

    def test_beyond_cutoff_blocks_zero(self, molecule):
        graph, config, params = molecule
        far = build_graph([1, 1], [[0.0, 0.0, 0.0], [40.0, 0.0, 0.0]], cutoff=15.0)
        H = predict(far, params, config)
        off = H.array[H.layout.atom_slice(0), H.layout.atom_slice(1)]
        assert np.max(np.abs(off)) == 0.0


class TestBlockRotate:
    def test_identity(self, molecule, rng):
        graph, config, params = molecule
        H = predict(graph, params, config)
        same = block_rotate(H, rotation_from_euler(0.0, 0.0, 0.0))
        assert np.array_equal(H.array, same.array)

    def test_all_s_orbitals_invariant(self, rng):
        layout = layout_from_degrees([(0, 0), (0,)])
        H = BlockMatrix(rng.normal(size=(3, 3)), layout)
        g = rotation_from_matrix(random_rotation_matrix(rng))
        assert np.max(np.abs(block_rotate(H, g).array - H.array)) < 1e-15

    def test_composition(self, rng):
        layout = layout_from_degrees([(0, 1), (1, 2)])
        M = rng.normal(size=(layout.dim, layout.dim))
        H = BlockMatrix(0.5 * (M + M.T), layout)
        g1 = rotation_from_matrix(random_rotation_matrix(rng))
        g2 = rotation_from_matrix(random_rotation_matrix(rng))
        lhs = block_rotate(block_rotate(H, g1), g2)
        rhs = block_rotate(H, rotation_from_matrix(g2.matrix @ g1.matrix))
        assert np.max(np.abs(lhs.array - rhs.array)) < 1e-11

    def test_one_wigner_pass_per_rotation(self, rng, monkeypatch):
        # every orbital of every atom reads its degree from one Wigner pass,
        # with the bits of that degree's own matrix
        layout = build_orbital_layout([8, 1, 6, 1, 1], ModelConfig().basis_map)
        M = rng.normal(size=(layout.dim, layout.dim))
        H = BlockMatrix(0.5 * (M + M.T), layout)
        g = rotation_from_matrix(random_rotation_matrix(rng))
        T = scipy.linalg.block_diag(*[frames.wigner_d(l, g) for orbs in layout.degrees
                                      for l in orbs])
        calls = []

        def counted(*args):
            calls.append(args[0])
            return wigner_d_batch(*args)

        monkeypatch.setattr(frames, "wigner_d_batch", counted)
        monkeypatch.setattr(hamiltonian, "wigner_d_batch", counted, raising=False)
        rotated = block_rotate(H, g)
        assert calls == [max(max(orbs) for orbs in layout.degrees)]
        assert np.array_equal(rotated.array, T @ H.array @ T.T)


class TestEigensolve:
    def test_diagonal_identity_case(self):
        eigvals, C = generalized_eigensolve(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        assert np.allclose(eigvals, [1.0, 2.0, 3.0], atol=1e-14)
        assert np.max(np.abs(np.abs(C) - np.eye(3))) < 1e-14

    def test_residuals_random_pairs(self):
        rng = stream(21, "eig-tests")
        for trial in range(10):
            n = int(rng.integers(5, 31))
            M = rng.normal(size=(n, n))
            H = 0.5 * (M + M.T)
            A = rng.normal(size=(n, n))
            S = A @ A.T + n * np.eye(n)
            eigvals, C = generalized_eigensolve(H, S)
            assert np.max(np.abs(H @ C - S @ C @ np.diag(eigvals))) < 1e-8
            assert np.max(np.abs(C.T @ S @ C - np.eye(n))) < 1e-8
            assert np.all(np.diff(eigvals) >= -1e-12)
            ref = scipy.linalg.eigh(H, S, eigvals_only=True)
            assert np.max(np.abs(ref - eigvals)) < 1e-9

    def test_spectrum_invariant_under_block_rotation(self, rng):
        layout = layout_from_degrees([(0, 1), (0, 1, 2)])
        M = rng.normal(size=(layout.dim, layout.dim))
        H = BlockMatrix(0.5 * (M + M.T), layout)
        A = rng.normal(size=(layout.dim, layout.dim))
        S = BlockMatrix(A @ A.T + layout.dim * np.eye(layout.dim), layout)
        e0, _ = generalized_eigensolve(H, S)
        g = rotation_from_matrix(random_rotation_matrix(rng))
        e1, _ = generalized_eigensolve(block_rotate(H, g), block_rotate(S, g))
        assert np.max(np.abs(e0 - e1)) < 1e-9

    def test_not_spd_rejected(self):
        with pytest.raises(ValueError):
            generalized_eigensolve(np.eye(3), -np.eye(3))


class TestMetrics:
    layout = layout_from_degrees([(0, 0, 1), (0, 0, 1)])

    def _random_symmetric(self, rng):
        M = rng.normal(size=(self.layout.dim, self.layout.dim))
        return BlockMatrix(0.5 * (M + M.T), self.layout)

    def test_fixed_point(self, rng):
        H = self._random_symmetric(rng)
        out = metrics(H, H, None, 4)
        assert out["mae_diag"] == 0.0
        assert out["mae_offdiag"] == 0.0
        assert out["mae_all"] == 0.0
        assert out["mae_eps"] == 0.0
        assert out["cosine_psi"] == 1.0

    def test_identity_shift(self, rng):
        H = self._random_symmetric(rng)
        eps = 0.0375
        shifted = BlockMatrix(H.array + eps * np.eye(self.layout.dim), self.layout)
        out = metrics(shifted, H, None, 4)
        assert out["mae_eps"] == pytest.approx(eps, abs=1e-12)
        assert out["cosine_psi"] == pytest.approx(1.0, abs=1e-12)
        # only diagonal entries moved
        assert out["mae_offdiag"] == pytest.approx(0.0, abs=1e-15)

    def test_two_by_two_closed_form(self):
        # closed-form eigensystem of [[a, b], [b, c]]
        a, b, c = 1.25, 0.5, -0.75
        layout = layout_from_degrees([(0,), (0,)])
        H = BlockMatrix(np.array([[a, b], [b, c]]), layout)
        pred = BlockMatrix(np.array([[a + 0.1, b], [b, c - 0.3]]), layout)
        out = metrics(pred, H, None, 1)
        half = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        true_eps = np.array([half - rad, half + rad])
        ph = 0.5 * (a + 0.1 + c - 0.3)
        prad = np.hypot(0.5 * (a + 0.1 - (c - 0.3)), b)
        pred_eps = np.array([ph - prad, ph + prad])
        assert out["mae_eps"] == pytest.approx(float(np.mean(np.abs(pred_eps - true_eps))),
                                               abs=1e-12)
        theta = 0.5 * np.arctan2(2 * b, a - c)
        v_true = np.array([np.sin(theta), -np.cos(theta)])  # lowest state
        theta_p = 0.5 * np.arctan2(2 * b, (a + 0.1) - (c - 0.3))
        v_pred = np.array([np.sin(theta_p), -np.cos(theta_p)])
        assert out["cosine_psi"] == pytest.approx(abs(float(v_true @ v_pred)), abs=1e-10)

    def test_degenerate_subspace_comparison(self):
        # two exactly degenerate states compared by principal angles: any
        # orthogonal mixing inside the subspace must score cosine 1
        layout = layout_from_degrees([(0,), (0,), (0,)])
        H_true = BlockMatrix(np.diag([1.0, 1.0, 2.0]), layout)
        theta = 0.3
        Q = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                      [np.sin(theta), np.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        H_pred = BlockMatrix(Q @ np.diag([1.0, 1.0, 2.0]) @ Q.T, layout)
        out = metrics(H_pred, H_true, None, 2)
        assert out["cosine_psi"] == pytest.approx(1.0, abs=1e-10)

    def test_clusters_and_mask_match_loops(self, rng):
        # the array forms of the degenerate clusters and the diagonal mask
        # against the loops they replaced
        values = np.sort(np.repeat(rng.normal(size=6), [1, 3, 2, 1, 4, 1]))
        values[5] += 0.5e-8  # within the gap of its neighbour
        for n_occ in range(1, len(values) + 1):
            clusters, current = [], [0]
            for k in range(1, n_occ):
                if abs(values[k] - values[k - 1]) < 1e-8:
                    current.append(k)
                else:
                    clusters.append(current)
                    current = [k]
            clusters.append(current)
            assert [list(c) for c in _degenerate_clusters(values, n_occ)] == clusters
        layout = layout_from_degrees([(0, 1), (2,), (0, 0, 1)])
        mask = np.zeros((layout.dim, layout.dim), dtype=bool)
        for i in range(3):
            mask[layout.atom_slice(i), layout.atom_slice(i)] = True
        assert np.array_equal(_diag_mask(layout), mask)

    def test_dimension_mismatch(self, rng):
        H = self._random_symmetric(rng)
        other = BlockMatrix(np.eye(3), layout_from_degrees([(0, 0, 1)]))
        with pytest.raises(ValueError):
            metrics(H, other)

    def test_n_occ_validated(self, rng):
        H = self._random_symmetric(rng)
        with pytest.raises(ValueError):
            metrics(H, H, None, 0)


class TestSyntheticTargets:
    def test_determinism(self):
        graph = build_graph([1, 1, 1], np.array([[0.0, 0, 0], [1.5, 0, 0], [0, 1.7, 0]]),
                            cutoff=15.0)
        H1, S1 = gen_synthetic_target(graph, seed=9)
        H2, S2 = gen_synthetic_target(graph, seed=9)
        assert np.array_equal(H1.array, H2.array)
        assert np.array_equal(S1.array, S2.array)

    def test_block_equivariance_of_target(self, rng):
        positions = np.array([[0.0, 0, 0], [1.5, 0, 0], [0, 1.7, 0]])
        graph = build_graph([1, 1, 1], positions, cutoff=15.0)
        H, _ = gen_synthetic_target(graph, seed=9)
        for _ in range(10):
            g = rotation_from_matrix(random_rotation_matrix(rng))
            rotated = build_graph([1, 1, 1], (g.matrix @ positions.T).T, cutoff=15.0)
            H_rot, _ = gen_synthetic_target(rotated, seed=9)
            assert np.max(np.abs(H_rot.array - block_rotate(H, g).array)) < 1e-10

    def test_symmetric(self):
        graph = build_graph([1, 1], np.array([[0.0, 0, 0], [1.5, 0.3, 0.2]]), cutoff=15.0)
        H, _ = gen_synthetic_target(graph, seed=2)
        assert np.max(np.abs(H.array - H.array.T)) < 1e-12

    def test_spd_overlap_cholesky_succeeds(self):
        graph = build_graph([1, 1], np.array([[0.0, 0, 0], [1.5, 0.3, 0.2]]), cutoff=15.0)
        _, S = gen_synthetic_target(graph, seed=2, spd_overlap=True)
        np.linalg.cholesky(S.array)
        assert np.max(np.abs(S.array - np.eye(S.array.shape[0]))) > 1e-3


class TestMatrixFiles:
    def test_json_roundtrip(self, rng):
        layout = layout_from_degrees([(0, 0, 1), (0,)])
        M = rng.normal(size=(layout.dim, layout.dim))
        H = BlockMatrix(0.5 * (M + M.T), layout)
        back = matrix_loads(matrix_dumps(H))
        assert np.array_equal(back.array, H.array)
        assert back.layout == layout

    def test_binary_roundtrip(self, rng):
        layout = layout_from_degrees([(0, 1)])
        M = rng.normal(size=(layout.dim, layout.dim))
        H = BlockMatrix(M, layout)
        back = matrix_from_bytes(matrix_to_bytes(H))
        assert np.array_equal(back.array, H.array)
        assert back.layout is None  # binary format carries the matrix only

    @pytest.mark.parametrize("degrees", [[[0], [], [0]], [[0, 0, 0, -1]], [[0.5]], [[0, 1]]],
                             ids=["empty", "negative", "non-integer", "dim-mismatch"])
    def test_malformed_layout_rejected(self, degrees):
        # the first three would sum to dimension 2, the size of the matrix;
        # the last is valid but has dimension 4
        with pytest.raises(ValueError):
            matrix_loads(json.dumps({"layout": degrees, "data": np.eye(2).tolist()}))

    def test_binary_magic_checked(self):
        with pytest.raises(ValueError):
            matrix_from_bytes(b"NOTMAGIC" + b"\x00" * 16)
