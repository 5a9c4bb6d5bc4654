import hashlib
import json
import math

import numpy as np
import pytest

from so2frames import autodiff as ad
from so2frames.frames import rotate_so3, rotation_from_matrix
from so2frames.graph import build_graph
from so2frames.hamiltonian import gen_synthetic_target
from so2frames.model import (DEFAULT_BASIS, ModelConfig, checkpoint_dumps,
                             checkpoint_loads, default_fit_config,
                             degree_inner_products, fit_demo, forward, init_params, message_pass,
                             node_embed, node_update_so2tp, prepare_graph, predict,
                             rbf)
from so2frames.irreps import So3Features, layout_parse
from so2frames.sampling import random_rotation_matrix, stream
from so2frames.so2ops import so2_layernorm

POSITIONS = np.array([[0.0, 0.0, 0.0],
                      [1.8, 0.3, 0.1],
                      [0.5, 1.9, -0.4]])


@pytest.fixture(scope="module")
def setup():
    graph = build_graph([1, 1, 1], POSITIONS, cutoff=15.0)
    config = default_fit_config(graph)
    params = init_params(config)
    return graph, config, params


def features_dev(a, b):
    return max(np.max(np.abs(x - y))
               for fa, fb in zip(a, b)
               for x, y in zip(fa.as_arrays(), fb.as_arrays()))


class TestNodeEmbed:
    def test_same_element_same_embedding(self, setup):
        graph, config, params = setup
        e1 = node_embed(1, params, config)
        e2 = node_embed(1, params, config)
        assert features_dev([e1], [e2]) == 0.0

    def test_scalar_only(self, setup):
        _, config, params = setup
        emb = node_embed(1, params, config)
        for l, block in emb.items():
            if l > 0:
                assert np.max(np.abs(np.asarray(block))) == 0.0

    def test_unknown_element(self, setup):
        _, config, params = setup
        with pytest.raises(ValueError):
            node_embed(79, params, config)


class TestRbf:
    config = ModelConfig(cutoff=10.0, rbf_size=16)

    def test_zero_at_cutoff(self):
        values = rbf(10.0, self.config)
        assert np.max(np.abs(values)) == 0.0

    def test_out_of_range(self):
        for bad in (0.0, -1.0, 10.5):
            with pytest.raises(ValueError):
                rbf(bad, self.config)

    def test_nearest_center_dominates(self):
        # the common envelope cancels when comparing bases at one distance,
        # so the largest basis value always belongs to the nearest center
        centers = np.linspace(10.0 / 16, 10.0, 16)
        for r in np.linspace(0.4, 9.9, 97):
            values = rbf(r, self.config)
            assert np.argmax(values) == np.argmin(np.abs(centers - r))

    def test_center_attains_max_among_bases(self):
        centers = np.linspace(10.0 / 16, 10.0, 16)
        for k, c in enumerate(centers[:-1]):  # skip the center at the cutoff
            values = rbf(c, self.config)
            assert np.argmax(values) == k

    def test_lipschitz_probe(self):
        delta = 1e-6
        for r in np.linspace(0.5, 9.5, 19):
            jump = np.max(np.abs(rbf(r + delta, self.config) - rbf(r, self.config)))
            assert jump <= 10.0 * delta


class TestInvariants:
    def test_inner_products_self_gives_norms(self, rng):
        layout = layout_parse("2x0e+2x1e+1x2e")
        h = So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                 for l in layout.indices])
        s = np.asarray(degree_inner_products(h, h))
        expected = np.concatenate([np.sum(np.asarray(b) ** 2, axis=1)
                                   for _, b in h.items()])
        assert np.max(np.abs(s - expected)) < 1e-14

    def test_inner_products_rotation_invariant(self, rng):
        layout = layout_parse("2x0e+2x1e+1x2e")
        for _ in range(5):
            hi = So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                      for l in layout.indices])
            hj = So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                      for l in layout.indices])
            g = rotation_from_matrix(random_rotation_matrix(rng))
            a = np.asarray(degree_inner_products(hi, hj))
            b = np.asarray(degree_inner_products(rotate_so3(hi, g), rotate_so3(hj, g)))
            assert np.max(np.abs(a - b)) < 1e-12

    def test_orthogonal_features_give_zero(self):
        layout = layout_parse("1x1e")
        hi = So3Features(layout, [np.array([[1.0, 0.0, 0.0]])])
        hj = So3Features(layout, [np.array([[0.0, 0.0, 1.0]])])
        assert np.asarray(degree_inner_products(hi, hj))[0] == 0.0


class TestMessagePass:
    def test_isolated_atom_is_gated_self_interaction(self, setup):
        _, config, params = setup
        lone = build_graph([1], [[0.0, 0.0, 0.0]], cutoff=15.0)
        prepared = prepare_graph(lone, config)
        h = [node_embed(1, params, config)]
        out = message_pass(lone, h, params, config, prepared, layer=0)
        # no edges: the aggregate is just the node's own gated features
        from so2frames.model import _self_interaction
        expected = _self_interaction(
            _self_interaction(h[0], params, "L0/self1"), params, "L0/self2")
        assert features_dev(out, [expected]) == 0.0

    def test_equivariance(self, setup, rng):
        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        h = [node_embed(int(z), params, config) for z in graph.numbers]
        base = message_pass(graph, h, params, config, prepared, layer=0)
        for _ in range(5):
            g = rotation_from_matrix(random_rotation_matrix(rng))
            rot_graph = build_graph(graph.numbers, (g.matrix @ graph.positions.T).T,
                                    graph.cutoff)
            rot_prepared = prepare_graph(rot_graph, config)
            rot = message_pass(rot_graph, h, params, config, rot_prepared, layer=0)
            expected = [rotate_so3(b, g) for b in base]
            assert features_dev(rot, expected) < 1e-10


class TestNodeUpdate:
    def test_zero_weights_preserve_input(self, setup, rng):
        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        modified = dict(params)
        from so2frames.so2ops import enumerate_tp_paths
        n_paths = len(enumerate_tp_paths(config.order_max, config.tp_arity))
        for k in range(n_paths):
            modified[f"L0/tp/w/{k}"] = np.zeros_like(params[f"L0/tp/w/{k}"])
        layout = config.node_layout
        h = [So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                  for l in layout.indices]) for _ in range(3)]
        out = node_update_so2tp(graph, h, modified, config, prepared, layer=0)
        assert features_dev(out, h) == 0.0

    def test_tie_break_deterministic(self, setup):
        graph, config, params = setup
        # two neighbors at exactly equal distance from atom 0
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        tie = build_graph([1, 1, 1], pos, cutoff=15.0)
        p1 = prepare_graph(tie, config)
        p2 = prepare_graph(tie, config)
        assert tie.nearest_neighbor(0).j == 1  # smallest index wins
        assert np.array_equal(p1.node_frames[0].rotation.matrix,
                              p2.node_frames[0].rotation.matrix)
        h = [node_embed(1, params, config) for _ in range(3)]
        a = node_update_so2tp(tie, h, params, config, p1, layer=0)
        b = node_update_so2tp(tie, h, params, config, p2, layer=0)
        assert features_dev(a, b) == 0.0


class TestEquivariantLayerNorm:
    def test_forced_statistics(self, rng):
        layout = layout_parse("4x0e+3x1e+2x2e")
        config = ModelConfig(node_irreps="4x0e+3x1e+2x2e", elements=(1,),
                             basis=((1, (0, 0, 1)),))
        params = {}
        for l, c in layout.entries:
            params[f"ln/{l}/g"] = np.ones(c)
            params[f"ln/{l}/b"] = np.zeros(c)
        h = So3Features(layout, [3.0 * rng.normal(size=layout.block_shape(l))
                                 for l in layout.indices])
        out = so2_layernorm(h, params, "ln")
        for l, block in out.items():
            arr = np.asarray(block)
            if l == 0:
                vals = arr[:, 0]
            else:
                signs = np.sign(np.einsum("cd,cd->c", arr, np.asarray(h.block(l))))
                vals = np.linalg.norm(arr, axis=1) * signs
            assert abs(vals.mean()) < 1e-12
            assert abs(vals.std() - 1.0) < 1e-7

    def test_equivariance_and_scale_invariance(self, rng):
        layout = layout_parse("4x0e+3x1e+2x2e")
        params = {}
        for l, c in layout.entries:
            params[f"ln/{l}/g"] = np.ones(c)
            params[f"ln/{l}/b"] = np.zeros(c)
        h = So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                 for l in layout.indices])
        g = rotation_from_matrix(random_rotation_matrix(rng))
        lhs = so2_layernorm(rotate_so3(h, g), params, "ln")
        rhs = rotate_so3(so2_layernorm(h, params, "ln"), g)
        assert features_dev([lhs], [rhs]) < 1e-13
        scaled = So3Features(layout, [7.3 * np.asarray(b) for b in h.blocks])
        assert features_dev([so2_layernorm(scaled, params, "ln")],
                            [so2_layernorm(h, params, "ln")]) < 1e-12


class TestForward:
    def test_two_atom_smoke(self):
        graph = build_graph([1, 1], [[0.0, 0.0, 0.0], [1.4, 0.0, 0.0]], cutoff=15.0)
        config = default_fit_config(graph)
        params = init_params(config)
        h, x_pair = forward(graph, params, config)
        assert len(h) == 2 and len(x_pair) == 2
        for feats in h:
            for arr in feats.as_arrays():
                assert np.all(np.isfinite(arr))
        H = predict(graph, params, config)
        assert np.all(np.isfinite(H.array))

    def test_translation_invariance_bitwise(self, setup):
        graph, config, params = setup
        # dyadic positions and integer shifts make the float arithmetic of
        # relative coordinates exact, so only-relative-geometry usage shows
        # up as bit identity
        pos = np.round(POSITIONS * 64) / 64
        g1 = build_graph([1, 1, 1], pos, cutoff=15.0)
        g2 = build_graph([1, 1, 1], pos + np.array([4.0, -7.0, 2.0]), cutoff=15.0)
        assert np.array_equal(predict(g1, params, config).array,
                              predict(g2, params, config).array)

    def test_permutation_equivariance_bitwise(self, setup):
        graph, config, params = setup
        H = predict(graph, params, config)
        perm = [2, 0, 1]
        permuted = build_graph([1, 1, 1], POSITIONS[perm], cutoff=15.0)
        Hp = predict(permuted, params, config)
        layout = H.layout
        P = np.zeros((layout.dim, layout.dim))
        for new_i, old_i in enumerate(perm):
            block = layout.atom_slice(old_i)
            P[Hp.layout.atom_slice(new_i), block] = np.eye(block.stop - block.start)
        assert np.array_equal(Hp.array, P @ H.array @ P.T)

    def test_determinism(self, setup):
        graph, config, params = setup
        a = predict(graph, params, config).array
        b = predict(graph, params, config).array
        assert np.array_equal(a, b)

    def test_node_track_equivariance(self, setup, rng):
        graph, config, params = setup
        h0, _ = forward(graph, params, config)
        for _ in range(5):
            g = rotation_from_matrix(random_rotation_matrix(rng))
            rot_graph = build_graph(graph.numbers, (g.matrix @ graph.positions.T).T,
                                    graph.cutoff)
            h1, _ = forward(rot_graph, params, config)
            assert features_dev(h1, [rotate_so3(h, g) for h in h0]) < 1e-9


class TestFitDemo:
    def test_zero_steps_returns_initial_state(self, setup):
        graph, config, _ = setup
        target, _ = gen_synthetic_target(graph, seed=11, config=config)
        losses, params = fit_demo(graph, target, steps=0, seed=5, config=config)
        assert losses.shape == (1,)
        from dataclasses import replace
        fresh = init_params(replace(config, seed=5))
        assert sorted(params) == sorted(fresh)
        assert all(np.array_equal(params[k], fresh[k]) for k in params)
        untrained = predict(graph, fresh, config)
        assert losses[0] == pytest.approx(
            float(np.mean(np.abs(untrained.array - target.array))), abs=0.0)

    def test_short_run_is_finite_and_reproducible(self, setup):
        graph, config, _ = setup
        target, _ = gen_synthetic_target(graph, seed=11, config=config)
        l1, p1 = fit_demo(graph, target, steps=8, seed=5, config=config)
        l2, p2 = fit_demo(graph, target, steps=8, seed=5, config=config)
        assert np.array_equal(l1, l2)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)
        assert np.all(np.isfinite(l1))

    def test_gradient_sanity_against_finite_differences(self, setup, rng):
        graph, config, params = setup
        target, _ = gen_synthetic_target(graph, seed=11, config=config)
        prepared = prepare_graph(graph, config)
        leaves = {k: ad.Var(v) for k, v in params.items()}
        pred = predict(graph, leaves, config, prepared)
        loss = ad.mean_all(ad.absolute(ad.sub(pred.data, target.array)))
        ad.backward(loss)

        def loss_at(p):
            out = predict(graph, p, config, prepared)
            return float(np.mean(np.abs(out.array - target.array)))

        names = sorted(params)
        picks = rng.choice(len(names), size=20, replace=False)
        worst = 0.0
        for i in picks:
            name = names[i]
            arr = params[name]
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            step = 1e-6
            plus = dict(params)
            plus[name] = arr.copy()
            plus[name][idx] += step
            minus = dict(params)
            minus[name] = arr.copy()
            minus[name][idx] -= step
            fd = (loss_at(plus) - loss_at(minus)) / (2 * step)
            grad = leaves[name].grad
            got = float(grad[idx]) if grad is not None else 0.0
            rel = abs(fd - got) / max(abs(fd), abs(got), 1e-8)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_no_dead_parameters(self, setup):
        graph, config, params = setup
        target, _ = gen_synthetic_target(graph, seed=11, config=config)
        leaves = {k: ad.Var(v) for k, v in params.items()}
        pred = predict(graph, leaves, config)
        loss = ad.mean_all(ad.absolute(ad.sub(pred.data, target.array)))
        ad.backward(loss)
        dead = sorted(k for k, leaf in leaves.items()
                      if leaf.grad is None or not np.any(leaf.grad))
        # Embeddings are scalar-only (anything else would break input
        # invariance), so the first layer's degree/order mixers above 0
        # necessarily act on zero blocks; everything else must be live.
        layout = config.node_layout
        expected_dead = sorted(
            [f"L0/self1/lin/{l}" for l in layout.indices if l > 0]
            + [f"L0/msg/lin/{m}/w{i}" for m in range(1, config.order_max + 1)
               for i in (1, 2)])
        assert dead == expected_dead

    def test_first_layer_mixers_are_wired(self, setup, rng):
        # the parameters that see zero blocks at layer 0 do carry gradient
        # once the layer input is a generic feature state
        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        layout = config.node_layout
        leaves = {k: ad.Var(v) for k, v in params.items()}
        h = [So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                  for l in layout.indices]) for _ in range(3)]
        out = message_pass(graph, h, leaves, config, prepared, layer=0)
        total = None
        for feats in out:
            for block in feats.blocks:
                term = ad.sum_all(ad.mul(block, np.ones(block.shape)))
                total = term if total is None else ad.add(total, term)
        ad.backward(total)
        for l in layout.indices[1:]:
            assert np.any(leaves[f"L0/self1/lin/{l}"].grad)
        for m in range(1, config.order_max + 1):
            assert np.any(leaves[f"L0/msg/lin/{m}/w1"].grad)
            assert np.any(leaves[f"L0/msg/lin/{m}/w2"].grad)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, setup):
        graph, config, params = setup
        text = checkpoint_dumps(config, params)
        config2, params2 = checkpoint_loads(text)
        assert config2 == config
        assert sorted(params2) == sorted(params)
        for k in params:
            assert np.array_equal(params[k], params2[k])
        # embeddings reproduce bit for bit through the round trip
        e1 = node_embed(1, params, config)
        e2 = node_embed(1, params2, config2)
        assert np.array_equal(np.asarray(e1.block(0)), np.asarray(e2.block(0)))

    def test_init_checkpoint_pinned(self, setup):
        # parameter names, init draws and the JSON layout are what saved
        # checkpoints depend on; any change to them shows up here
        pinned = {
            "483de14dcf5ab6ba9aae71b33b9f04472192a38e156d458e4ed1a9bb0e66da1e": setup[1],
            "acdcb61f128b02dc17fe0b2493e3b51dc54f6fd1fbef2f0320af26e1005ec788":
                ModelConfig(elements=(1, 6, 8)),
        }
        for digest, config in pinned.items():
            text = checkpoint_dumps(config, init_params(config))
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_config_fields_present(self, setup):
        _, config, _ = setup
        doc = json.loads(checkpoint_dumps(config, {}))["config"]
        for key in ("node_irreps", "layers", "tp_arity", "m_max", "cutoff",
                    "rbf_size", "seed", "basis"):
            assert key in doc


class TestPairEmbed:
    def test_zero_invariants_zero_biases_give_zero(self, setup):
        from so2frames.model import pair_embed
        _, config, params = setup
        zeroed = dict(params)
        for k in params:
            if k.startswith("pair0/mlp") and k.endswith("/b"):
                zeroed[k] = np.zeros_like(params[k])
        s = np.zeros(sum(c for _, c in config.node_layout.entries))
        out = np.asarray(pair_embed(zeroed, s, rbf(1.5, config)))
        assert np.max(np.abs(out)) == 0.0  # MLP(0) with zero biases

    def test_rotation_invariance(self, setup, rng):
        graph, config, params = setup
        from so2frames.model import pair_embed
        h = [node_embed(int(z), params, config) for z in graph.numbers]
        s = degree_inner_products(h[0], h[1])
        r = float(np.linalg.norm(graph.positions[1] - graph.positions[0]))
        base = np.asarray(pair_embed(params, s, rbf(r, config)))
        for _ in range(5):
            g = rotation_from_matrix(random_rotation_matrix(rng))
            hr = [rotate_so3(f, g) for f in h]
            sr = degree_inner_products(hr[0], hr[1])
            rot = np.asarray(pair_embed(params, sr, rbf(r, config)))
            assert np.max(np.abs(base - rot)) < 1e-12

    def test_distance_continuity(self, setup):
        from so2frames.model import pair_embed
        graph, config, params = setup
        h = [node_embed(int(z), params, config) for z in graph.numbers]
        s = degree_inner_products(h[0], h[1])
        delta = 1e-6
        for r in (1.1, 3.7, 9.2):
            a = np.asarray(pair_embed(params, s, rbf(r, config)))
            b = np.asarray(pair_embed(params, s, rbf(r + delta, config)))
            assert np.max(np.abs(a - b)) < 100.0 * delta


class TestOffdiagUpdate:
    def test_zero_pair_state_is_ln_of_ffn(self, setup, rng):
        from so2frames.irreps import So2Features
        from so2frames.model import offdiag_update
        from so2frames.frames import so2_layout_of, to_local
        from so2frames.so2ops import so2_ffn

        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        layout = config.node_layout
        reg = so2_layout_of(layout)
        h = [So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                  for l in layout.indices]) for _ in range(3)]
        zeros = {key: So2Features.zeros(reg) for key in prepared.edge_keys}
        out = offdiag_update(graph, h, zeros, params, config, prepared, layer=0)
        # with a zero pair state the skip is the identity on the FFN output
        key = prepared.edge_keys[0]
        frame = prepared.edge_frames[key]
        direct = so2_layernorm(
            so2_ffn(to_local(frame, h[key[0]]), to_local(frame, h[key[1]]), params,
                    "L0/ffn"), params, "L0/ln_pair")
        for a, b in zip(out[key].as_arrays(), direct.as_arrays()):
            assert np.array_equal(a, b)
