import hashlib
import inspect
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import so2frames
from conftest import sum_entries, tape_of
from so2frames import autodiff as ad
from so2frames.counters import OpCounter
from so2frames.frames import TARGET_AXIS, frame_from_direction, rotate_so3, rotation_from_matrix
from so2frames.graph import build_graph, sample_molecule
from so2frames.hamiltonian import (BlockMatrix, assemble, block_rotate,
                                   build_orbital_layout, gen_synthetic_target)
from so2frames.model import (AVERAGE_DECAY, MAX_TP_ARITY, MAX_TP_PATHS, TAU, AdamState,
                             ModelConfig, adam_step, checkpoint_dumps, checkpoint_loads,
                             default_fit_config, degree_inner_products, fit_demo,
                             fit_node_irreps, forward, init_params, message_pass, node_embed,
                             node_update_so2tp, prepare_graph, predict, rbf)
from so2frames.irreps import So3Features, layout_parse
from so2frames.sampling import random_rotation_matrix, stream
from so2frames.so2ops import enumerate_tp_paths, so2_layernorm, tp_path_count

SRC = Path(__file__).resolve().parents[1] / "src"
POSITIONS = np.array([[0.0, 0.0, 0.0],
                      [1.8, 0.3, 0.1],
                      [0.5, 1.9, -0.4]])


@pytest.fixture(scope="module")
def setup():
    graph = build_graph([1, 1, 1], POSITIONS, cutoff=15.0)
    config = default_fit_config(graph)
    params = init_params(config)
    return graph, config, params


def random_features(layout, batch, rng):
    return So3Features(layout, [rng.normal(size=(batch,) + layout.block_shape(l))
                                for l in layout.indices])


def batch(features):
    """A batch of unbatched features of one layout, in order."""
    return So3Features(features[0].layout, [np.stack(blocks)
                                            for blocks in zip(*(f.blocks for f in features))])


def inner_products(h, prepared, config):
    """The edge inner products that ``forward`` hands ``message_pass``."""
    return degree_inner_products(h, prepared.src, prepared.dst, config.node_layout)


def features_dev(a, b):
    # containers of one layout only: zip would drop the blocks one lacks
    assert [fa.layout for fa in a] == [fb.layout for fb in b]
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
        # the embedding is the invariant container it is: the node layout's
        # degree-0 entry alone, and the ops of layer 0 read the rest as zero
        _, config, params = setup
        emb = node_embed(1, params, config)
        assert emb.layout.entries == config.node_layout.entries[:1]

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
        s = np.asarray(degree_inner_products(batch([h]), 0, 0, layout))[:, 0]
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
            a = np.asarray(degree_inner_products(batch([hi, hj]), 0, 1, layout))
            b = np.asarray(degree_inner_products(batch([rotate_so3(hi, g), rotate_so3(hj, g)]),
                                                 0, 1, layout))
            assert np.max(np.abs(a - b)) < 1e-12

    def test_orthogonal_features_give_zero(self):
        layout = layout_parse("1x1e")
        hi = So3Features(layout, [np.array([[1.0, 0.0, 0.0]])])
        hj = So3Features(layout, [np.array([[0.0, 0.0, 1.0]])])
        assert np.asarray(degree_inner_products(batch([hi, hj]), 0, 1, layout))[0] == 0.0

    def test_missing_degrees_read_as_zero(self, setup, rng):
        # the embedding's products fill degree 0's rows of the node layout's
        # column, with the bits of the embedding padded with zero degrees,
        # and so does the cotangent of the degree-0 block
        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        layout = config.node_layout
        h = node_embed(graph.numbers, params, config)
        cot = rng.normal(size=prepared.src.shape + (layout.channels, 1))
        values, grads = [], []
        for features in (h, _with_zero_degrees(h, layout)):
            leaf = ad.Var(features.blocks[0])
            features = So3Features(features.layout, [leaf, *features.blocks[1:]])
            s = degree_inner_products(features, prepared.src, prepared.dst, layout)
            ad.backward(sum_entries(ad.mul(s, cot)))
            values.append(s.value.tobytes())
            grads.append(leaf.grad.tobytes())
        assert values[0] == values[1]
        assert grads[0] == grads[1]


class TestMessagePass:
    def test_isolated_atom_is_gated_self_interaction(self, setup):
        _, config, params = setup
        lone = build_graph([1], [[0.0, 0.0, 0.0]], cutoff=15.0)
        prepared = prepare_graph(lone, config)
        h = node_embed([1], params, config)
        out = message_pass(h, inner_products(h, prepared, config), params, config, prepared,
                           layer=0)
        # no edges: the aggregate is just the node's own gated features,
        # which are invariant: zero in the degrees above 0
        from so2frames.model import _self_interaction
        own = _self_interaction(h, params, "L0/self1")
        layout = config.node_layout
        own = So3Features(layout, list(own.blocks) + [np.zeros((1,) + shape)
                                                      for shape in layout.shapes[1:]])
        expected = _self_interaction(own, params, "L0/self2")
        assert out.layout == expected.layout == layout
        assert features_dev([out], [expected]) == 0.0

    def test_equivariance(self, setup, rng):
        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        h = node_embed(graph.numbers, params, config)
        base = message_pass(h, inner_products(h, prepared, config), params, config, prepared,
                            layer=0)
        for _ in range(5):
            g = rotation_from_matrix(random_rotation_matrix(rng))
            rot_graph = build_graph(graph.numbers, (g.matrix @ graph.positions.T).T,
                                    graph.cutoff)
            rot_prepared = prepare_graph(rot_graph, config)
            rot = message_pass(h, inner_products(h, rot_prepared, config), params, config,
                               rot_prepared, layer=0)
            assert features_dev([rot], [rotate_so3(base, g)]) < 1e-10


class TestNodeUpdate:
    def test_zero_weights_preserve_input(self, setup, rng):
        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        modified = dict(params)
        n_paths = len(enumerate_tp_paths(config.l_max, config.tp_arity))
        for k in range(n_paths):
            modified[f"L0/tp/w/{k}"] = np.zeros_like(params[f"L0/tp/w/{k}"])
        h = random_features(config.node_layout, 3, rng)
        out = node_update_so2tp(h, modified, config, prepared, layer=0)
        assert features_dev([out], [h]) == 0.0

    def test_tie_break_deterministic(self, setup, rng):
        graph, config, params = setup
        # two neighbors at exactly equal distance from atom 0: both edges
        # are its frame items, and its update is the mean of theirs
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        tie = build_graph([1, 1, 1], pos, cutoff=15.0)
        p1 = prepare_graph(tie, config)
        p2 = prepare_graph(tie, config)
        items = p1.node_edge[p1.node_atom == 0]
        assert tie.edges[items].tolist() == [[0, 1], [0, 2]]
        h = random_features(config.node_layout, 3, rng)
        a = node_update_so2tp(h, params, config, p1, layer=0)
        b = node_update_so2tp(h, params, config, p2, layer=0)
        assert features_dev([a], [b]) == 0.0
        single = []
        for edge in items:
            keep = (p1.node_atom != 0) | (p1.node_edge == edge)
            one = replace(p1, node_atom=p1.node_atom[keep], node_edge=p1.node_edge[keep],
                          node_slots=np.arange(3)[:, None], node_frame=p1.node_frame[keep],
                          node_mean=(np.ones((3, 1, 1)),) * 2)
            single.append(node_update_so2tp(h, params, config, one, layer=0))
        mean = So3Features(a.layout, [0.5 * (x + y) for x, y in
                                      zip(single[0].as_arrays(), single[1].as_arrays())])
        assert features_dev([a], [mean]) < 1e-12
        for x, y in zip(a.as_arrays(), single[0].as_arrays()):
            assert np.array_equal(x[1:], y[1:])  # atoms 1 and 2 have one nearest edge

    @pytest.mark.parametrize("numbers, positions", [
        ([8, 1, 1], [[0.0, 0.0, 0.0], [1.8, 0.0, 0.3], [-1.8, 0.0, 0.3]]),
        ([1, 1, 1], [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
    ], ids=["water", "right-angle"])
    def test_tied_frames_equivariant(self, numbers, positions):
        # atom 0's two nearest neighbors are exactly equidistant, so a
        # rotation or a relabelling must not change which frame it uses
        from so2frames.harness import check_equivariance

        graph = build_graph(numbers, positions, cutoff=15.0)
        config = default_fit_config(graph)
        params = init_params(config)
        report = check_equivariance(graph, params, config, trials=20, seed=0)
        for name in ("node_track_equivariance", "pair_track_equivariance",
                     "block_equivariance"):
            assert report.checks[name]["max_error"] < 1e-9, name
        perm = [0, 2, 1]
        H = predict(graph, params, config)
        relabelled = build_graph(np.array(numbers)[perm], np.array(positions)[perm], 15.0)
        rows = np.concatenate([np.arange(H.layout.atom_slice(k).start,
                                         H.layout.atom_slice(k).stop) for k in perm])
        assert np.array_equal(predict(relabelled, params, config).array,
                              H.array[np.ix_(rows, rows)])


# H/C/O atoms on a dyadic grid, so that integer translations leave every
# relative coordinate exact; the cutoff lies between grid distances
_CUTOFF = 5.3


def _atoms(elements):
    return st.tuples(st.sampled_from(elements),
                     *[st.integers(-24, 24).map(lambda k: k / 8.0)] * 3)


@st.composite
def _molecules(draw, elements=(1, 6, 8)):
    atoms = draw(st.lists(_atoms(elements), min_size=1, max_size=5,
                          unique_by=lambda a: a[1:]))
    numbers = [a[0] for a in atoms]
    positions = np.array([a[1:] for a in atoms])
    tilted = len(atoms) > 1 and draw(st.booleans())
    if tilted:
        # a bond tilted 2^-k off +z or -z
        tilt = 2.0 ** -draw(st.integers(20, 40))
        positions[1] = positions[0] + [tilt, 0.0, draw(st.sampled_from([1.5, -1.5]))]
    if len(atoms) > 1 and draw(st.booleans()):
        positions[-1] += [4.0 * _CUTOFF, 0.0, 0.0]  # disconnected from the rest
    grid = range(1 + tilted, len(atoms))
    if grid and draw(st.booleans()):
        # mirror atom 0's nearest grid atom through the plane x = x0 of atom 0,
        # so that atom 0 has two nearest neighbors at exactly one distance (not
        # the tilted atom: its image would land twice the tilt away from it)
        k = min(grid, key=lambda k: np.sum((positions[k] - positions[0]) ** 2))
        numbers.append(numbers[k])
        image = positions[k] * [-1.0, 1.0, 1.0] + [2.0 * positions[0, 0], 0.0, 0.0]
        positions = np.vstack([positions, image])
    return numbers, positions


@pytest.fixture(scope="module")
def hco_model():
    config = default_fit_config(build_graph([1, 6, 8], POSITIONS, cutoff=_CUTOFF))
    return config, init_params(config)


class TestMoleculeProperties:
    # symmetric water (on the grid) and the H3 right angle: atom 0's two
    # nearest neighbors are equidistant, and the shuffle swaps them
    @example(([8, 1, 1], np.array([[0.0, 0.0, 0.0], [1.75, 0.0, 0.25], [-1.75, 0.0, 0.25]])),
             random.Random(0), (1, -2, 3), 1)
    @example(([1, 1, 1], np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])),
             random.Random(0), (1, -2, 3), 1)
    @settings(max_examples=50, deadline=None)
    @given(_molecules(), st.randoms(use_true_random=False),
           st.tuples(*[st.integers(-8, 8)] * 3), st.integers(0, 2 ** 32 - 1))
    def test_permutation_translation_rotation(self, hco_model, molecule, shuffler, shift,
                                              rot_seed):
        config, params = hco_model
        numbers, positions = molecule
        try:
            graph = build_graph(numbers, positions, cutoff=_CUTOFF)
        except ValueError:
            assume(False)  # the tilted bond or a mirror image landed on another atom
        H = predict(graph, params, config)
        layout = H.layout

        perm = list(range(graph.n_atoms))
        shuffler.shuffle(perm)
        permuted = build_graph(np.array(numbers)[perm], positions[perm], cutoff=_CUTOFF)
        rows = np.concatenate([np.arange(layout.atom_slice(k).start, layout.atom_slice(k).stop)
                               for k in perm])
        assert np.array_equal(predict(permuted, params, config).array,
                              H.array[np.ix_(rows, rows)])

        moved = build_graph(numbers, positions + np.array(shift, dtype=float), cutoff=_CUTOFF)
        assert np.array_equal(predict(moved, params, config).array, H.array)

        g = rotation_from_matrix(random_rotation_matrix(stream(rot_seed, "property")))
        rotated = build_graph(numbers, positions @ g.matrix.T, cutoff=_CUTOFF)
        dev = np.max(np.abs(predict(rotated, params, config).array - block_rotate(H, g).array))
        assert dev <= 1e-9


@st.composite
def _configs(draw):
    """Valid configs: degree 0 and any of degrees 1-3 (gaps allowed), each
    with 1-3 channels, 0-2 layers, arity 2-3, the four widths 1-4, and a
    non-empty subset of H, C and O with the default basis."""
    degrees = [0] + [l for l in (1, 2, 3) if draw(st.booleans())]
    widths = st.integers(1, 4)
    return ModelConfig(
        node_irreps="+".join(f"{draw(st.integers(1, 3))}x{l}e" for l in degrees),
        layers=draw(st.integers(0, 2)), tp_arity=draw(st.integers(2, 3)),
        tp_channels=draw(widths), ffn_channels=draw(widths),
        invariant_width=draw(widths), rbf_size=draw(widths), cutoff=_CUTOFF,
        elements=tuple(sorted(draw(st.sets(st.sampled_from([1, 6, 8]), min_size=1)))))


@st.composite
def _configs_and_molecules(draw):
    config = draw(_configs())
    return config, draw(_molecules(config.elements))


class TestConfigProperties:
    """Any valid config predicts, saves and reloads on any molecule of the
    strategy.  Equivariance at 1e-9 is not asserted here: the layer norm's
    eps of 1e-8 lifts the rounding of near-zero blocks, and some drawn
    configs and molecules deviate by up to about 1e-7 (see ROADMAP.md)."""

    @settings(max_examples=100, deadline=None)
    @given(_configs_and_molecules())
    def test_valid_config(self, drawn):
        config, (numbers, positions) = drawn
        try:
            graph = build_graph(numbers, positions, cutoff=config.cutoff)
        except ValueError:
            assume(False)  # the tilted bond or a mirror image landed on another atom
        params = init_params(config)
        H = predict(graph, params, config).array
        assert np.all(np.isfinite(H)) and np.array_equal(H, H.T)

        config2, params2 = checkpoint_loads(checkpoint_dumps(config, params))
        assert config2 == config and sorted(params2) == sorted(params)
        for key, value in params.items():
            assert params2[key].dtype == value.dtype and params2[key].shape == value.shape
            assert params2[key].tobytes() == value.tobytes()
        assert predict(graph, params2, config2).array.tobytes() == H.tobytes()
        assert set(prepare_graph(graph, config).plan.keys) <= set(params)


@st.composite
def _mutations(draw):
    """A config of :func:`_configs`, one of its fields and an invalid value
    for it: integers below their bound, booleans and fractions, an arity
    above MAX_TP_ARITY, a cutoff of 0, NaN or inf, elements empty, repeated
    or outside 1..118, a basis that lacks an element or holds degree 9, and
    malformed ``node_irreps``."""
    config = draw(_configs())
    z = draw(st.sampled_from(config.elements))
    not_integers = [True, False, 2.5, 3.0, Fraction(5, 2)]
    least = {"layers": 0, "tp_arity": 2, "tp_channels": 1, "ffn_channels": 1,
             "invariant_width": 1, "rbf_size": 1}
    invalid = {**{name: [bound - 1, bound - 3, *not_integers] for name, bound in least.items()},
               "seed": not_integers,
               "cutoff": [0.0, -1.0, math.nan, math.inf],
               "elements": [(), config.elements + (z,), (0,), (z, 119)],
               "basis": [tuple(entry for entry in config.basis if entry[0] != z),
                         tuple((k, d + (9,) if k == z else d) for k, d in config.basis)],
               "node_irreps": ["8x0q", "0x0e", "8x0e+8x0e", "", "8x0e+", "4x1e", "8x0e+1x9e",
                               "8x0m", "8x0e+2x1m", 8]}
    invalid["tp_arity"] += [MAX_TP_ARITY + 1, 10 ** 9]
    field = draw(st.sampled_from(sorted(invalid)))
    return config, field, draw(st.sampled_from(invalid[field]))


class TestConfigMutations:
    """A valid config with one field made invalid is rejected when it is
    built, by a ValueError that names the field (exit 2 from the CLI)."""

    @settings(max_examples=100, deadline=None)
    @given(_mutations())
    def test_invalid_field_is_named(self, mutation):
        config, field, value = mutation
        with pytest.raises(ValueError, match=field):
            replace(config, **{field: value})


@pytest.fixture(scope="module")
def both_models(hco_model):
    """The fit config and the l_max-4 config at the strategies' cutoff."""
    l4 = ModelConfig(elements=(1, 6, 8), cutoff=_CUTOFF)
    return {"fit": hco_model, "l4": (l4, init_params(l4))}


def _with_zero_degrees(h, layout):
    """Degree-0 features as the node layout, with explicit zero higher degrees."""
    return So3Features(layout, list(h.blocks) + [np.zeros(h.batch_shape + shape)
                                                 for shape in layout.shapes[1:]])


class TestInvariantFirstLayer:
    """Layer 0 gets the embedding as the invariant container it is, and its
    message runs on order 0; the padded embedding runs every block."""

    @example(([1], np.zeros((1, 3))))
    @example(([6, 1], np.array([[0.0, 0.0, 0.0], [4.0 * _CUTOFF, 0.0, 0.0]])))
    @example(([8, 1], np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.5]])))
    @example(([1, 6], np.array([[0.0, 0.0, 0.0], [2.0 ** -30, 0.0, -1.5]])))
    @settings(max_examples=25, deadline=None)
    @given(_molecules())
    def test_message_pass_matches_zero_padded_embedding(self, both_models, molecule):
        # isolated atoms, a single atom and bonds on or near -z included
        numbers, positions = molecule
        try:
            graph = build_graph(numbers, positions, cutoff=_CUTOFF)
        except ValueError:
            assume(False)  # the tilted bond or a mirror image landed on another atom
        for config, params in both_models.values():
            prepared = prepare_graph(graph, config)
            h = node_embed(graph.numbers, params, config)
            padded = _with_zero_degrees(h, config.node_layout)
            got = message_pass(h, inner_products(h, prepared, config), params, config, prepared, 0)
            want = message_pass(padded, inner_products(padded, prepared, config), params, config,
                                prepared, 0)
            assert got.layout == want.layout == config.node_layout
            for a, b in zip(got.blocks, want.blocks):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["fit", "l4"])
    def test_no_layers(self, both_models, name):
        # without a layer the node features are the embedding and the pair
        # track reaches from_local as order 0 alone
        from so2frames.harness import check_equivariance

        config, _ = both_models[name]
        config = replace(config, layers=0, cutoff=15.0)
        params = init_params(config)
        graph = sample_molecule(1, 5, [1, 6, 8], 1.4, 15.0)
        H = predict(graph, params, config).array
        assert np.all(np.isfinite(H)) and np.array_equal(H, H.T)
        h, pair = forward(graph, params, config)
        assert h.layout == pair.layout == config.node_layout
        assert check_equivariance(graph, params, config, trials=5, tolerance=1e-9).passed


class TestNodeTables:
    """prepare_graph builds the node-frame items, their frames and each
    atom's averaging factors once, as plain arrays."""

    @example(([1], np.zeros((1, 3))))
    @example(([6, 1], np.array([[0.0, 0.0, 0.0], [4.0 * _CUTOFF, 0.0, 0.0]])))
    @example(([8, 1, 1], np.array([[0.0, 0.0, 0.0], [1.75, 0.0, 0.25], [-1.75, 0.0, 0.25]])))
    @settings(max_examples=25, deadline=None)
    @given(_molecules())
    def test_items_frames_and_factors(self, both_models, molecule):
        # isolated atoms, ties and bonds on or near -z included
        numbers, positions = molecule
        try:
            graph = build_graph(numbers, positions, cutoff=_CUTOFF)
        except ValueError:
            assume(False)  # the tilted bond or a mirror image landed on another atom
        for config, _ in both_models.values():
            prepared = prepare_graph(graph, config)
            scalar, directional = prepared.node_mean
            assert scalar.shape == directional.shape == (graph.n_atoms, 1, 1)
            for atom in range(graph.n_atoms):
                own = np.flatnonzero(graph.edges[:, 0] == atom)
                items = np.flatnonzero(prepared.node_atom == atom)
                slots = prepared.node_slots[atom]
                assert slots[slots >= 0].tolist() == items.tolist()
                if len(own):   # its edges within a relative TAU of its nearest, in edge order
                    nearest = graph.distances[own].min()
                    edges = own[graph.distances[own] <= nearest * (1.0 + TAU)]
                    assert prepared.node_edge[items].tolist() == edges.tolist()
                    want = [d[edges] for d in prepared.frame.d_in]
                else:   # one item, the frame of the target axis
                    assert prepared.node_edge[items].tolist() == [-1]
                    want = [d[None] for d in frame_from_direction(TARGET_AXIS, config.l_max).d_in]
                for got, expect in zip(prepared.node_frame.d_in, want, strict=True):
                    assert got[items].tobytes() == expect.tobytes()
                assert scalar[atom, 0, 0] == 1.0 / len(items)
                assert directional[atom, 0, 0] == (len(own) > 0) / len(items)


class TestTapeSize:
    def test_forward_tape_independent_of_edges(self, hco_model):
        # every stage runs as array operations over all atoms and edges, so
        # the taped forward pass records as many nodes for 6 atoms as for 3
        config, params = hco_model

        def tape_nodes(n_atoms):
            graph = sample_molecule(n_atoms, n_atoms, [1, 6, 8], 1.4, _CUTOFF)
            leaves = {k: ad.Var(v) for k, v in params.items()}
            h, pair = forward(graph, leaves, config)
            return len(tape_of(list(h.blocks) + list(pair.blocks))), len(graph.edges)

        (small, e_small), (large, e_large) = tape_nodes(3), tape_nodes(6)
        assert e_small < e_large
        assert small == large

    def test_predict_tape_independent_of_atoms(self, hco_model):
        # assembly expands the orbital blocks of all atoms and edges together,
        # one batch per degree pair, so a taped predict records as many
        # operations for 6 atoms as for 3 when both hold H, C and O
        config, params = hco_model

        def operations(numbers):
            positions = sample_molecule(len(numbers), len(numbers), [1], 1.4, _CUTOFF).positions
            graph = build_graph(numbers, positions, _CUTOFF)
            leaves = {k: ad.Var(v) for k, v in params.items()}
            H = predict(graph, leaves, config)
            return sum(1 for node in tape_of([H.data]) if node.parents), len(graph.edges)

        (small, e_small), (large, e_large) = operations([1, 6, 8]), operations([8, 1, 6, 6, 8, 1])
        assert e_small < e_large
        assert small == large

    def test_fit_step_tape_size(self, setup):
        # the LayerNorm, MLP, frame rotations, SO(2) linear maps, gates and
        # tensor product are fused primitives, so a fit step's taped predict
        # on the fit-demo molecule stays small
        graph, config, params = setup
        target, _ = gen_synthetic_target(graph, seed=11, config=config)
        leaves = {k: ad.Var(v) for k, v in params.items()}
        pred = predict(graph, leaves, config)
        loss = ad.mean_all(ad.absolute(ad.sub(pred.data, target.array)))
        assert len(tape_of([loss])) <= 194

    def test_taped_assemble_is_one_node(self, setup):
        # the assembly's gathers, contractions, placement and symmetrization
        # are one fused primitive over the forward outputs and the weights
        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        leaves = {k: ad.Var(v) for k, v in params.items()}
        h, pair = forward(graph, leaves, config, prepared)
        before = {id(node) for node in tape_of(list(h.blocks) + list(pair.blocks))}
        H = assemble(h, pair, prepared, leaves)
        added = [node for node in tape_of([H.data]) if id(node) not in before and node.parents]
        assert added == [H.data]


def _package_calls(fn, package=so2frames) -> int:
    """The Python calls made inside ``package`` while ``fn`` runs.

    A generator's frame counts once, at its first ``call`` event: the
    profiler reports every resumption as a call too, which would make the
    count follow how many items a generator expression yields."""
    root = os.path.dirname(package.__file__) + os.sep
    calls = 0
    generators = set()   # the frames hold on, so no id is reused

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            if frame.f_code.co_flags & inspect.CO_GENERATOR:
                if frame in generators:
                    return
                generators.add(frame)
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestCallBudget:
    """The fixed per-call cost of the interpreter: layouts, regrouping
    tables, node-frame factors and weight keys are built once and shared,
    so a call makes few Python calls of its own.  The adjoints use array
    methods and slices, not NumPy's Python-level wrappers, so a fit step
    also makes few calls into NumPy's Python layer.  The budgets are the
    counts of the current code; a change that lowers a count lowers its
    budget, and one that raises a count says so in CHANGES.md."""

    PREDICT_CALLS = 865
    FIT_STEP_CALLS = 1171
    FIT_STEP_NUMPY_CALLS = 230

    def test_predict_stream_predict(self):
        # an 8-atom H/C/O molecule at the l_max 4 config of the predict-stream benchmark
        reference = build_graph([1, 6, 8], POSITIONS, cutoff=15.0)
        config = default_fit_config(reference)
        params = init_params(config)
        positions = sample_molecule(0, 8, [1, 6, 8], 1.4, 15.0).positions
        graph = build_graph([1, 6, 8, 1, 6, 8, 1, 6], positions, 15.0)
        predict(graph, params, config)   # fills the lazy caches
        calls = _package_calls(lambda: predict(graph, params, config))
        assert calls <= self.PREDICT_CALLS

    @pytest.fixture
    def fit_step(self, setup):
        # one taped predict, loss and backward on the fit-demo molecule
        graph, config, params = setup
        target = gen_synthetic_target(graph, seed=11, config=config)[0].array
        prepared = prepare_graph(graph, config)

        def step():
            leaves = {k: ad.Var(v) for k, v in params.items()}
            pred = predict(graph, leaves, config, prepared)
            ad.backward(ad.mean_all(ad.absolute(ad.sub(pred.data, target))))

        step()
        return step

    def test_fit_step(self, fit_step):
        assert _package_calls(fit_step) <= self.FIT_STEP_CALLS

    def test_fit_step_numpy_calls(self, fit_step):
        # np.swapaxes, np.split, np.zeros_like and np.broadcast_to each enter
        # one to three Python frames of NumPy's; the array methods enter none
        assert _package_calls(fit_step, np) <= self.FIT_STEP_NUMPY_CALLS


@pytest.mark.parametrize("make_config", [default_fit_config,
                                         lambda graph: ModelConfig(elements=(1, 6, 8))],
                         ids=["fit-config", "lmax4-config"])
def test_taped_predict_matches_untaped(make_config):
    # fit_demo reads the untrained loss off the taped prediction
    for n in (3, 5, 10):
        graph = sample_molecule(2, n, [1, 6, 8], 1.4, 15.0)
        config = make_config(graph)
        params = init_params(config)
        leaves = {k: ad.Var(v) for k, v in params.items()}
        taped = predict(graph, leaves, config)
        assert isinstance(taped.data, ad.Var)
        assert taped.array.tobytes() == predict(graph, params, config).array.tobytes()


BLAS_PROBE = """
import hashlib
from so2frames.graph import sample_molecule
from so2frames.model import ModelConfig, default_fit_config, init_params, predict
graph = sample_molecule(3, 10, [1, 6, 8], 1.4, 15.0)
digest = hashlib.sha256()
for config in (default_fit_config(graph), ModelConfig(elements=(1, 6, 8))):
    digest.update(predict(graph, init_params(config), config).array.tobytes())
print(digest.hexdigest())
"""


def test_predict_bytes_do_not_depend_on_blas_threads():
    # batched products go through BLAS, whose thread count must not move a bit
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                                capture_output=True, text=True, check=True, timeout=60)
        digests.append(result.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


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
        h, pair = forward(graph, params, config)
        assert h.batch_shape == (2,) and pair.batch_shape == (2,)
        for arr in h.as_arrays():
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
            assert features_dev([h1], [rotate_so3(h0, g)]) < 1e-9


def _self_pair_odd_degree(key):
    """Whether ``key`` is an ``expand/diag/{z}/{s}.{s}/{l3}`` weight with odd l3."""
    parts = key.split("/")
    if parts[:2] != ["expand", "diag"]:
        return False
    s, t = parts[3].split(".")
    return s == t and int(parts[4]) % 2 == 1


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

    def test_zero_steps_returns_separate_copies(self, setup):
        # the parameters live in one flat buffer during the fit; the
        # returned arrays are copies that share no memory
        graph, config, _ = setup
        target, _ = gen_synthetic_target(graph, seed=11, config=config)
        _, params = fit_demo(graph, target, steps=0, seed=5, config=config)
        fresh = init_params(replace(config, seed=5))
        assert list(params) == list(fresh)
        for k in params:
            assert params[k].shape == fresh[k].shape
            assert params[k].tobytes() == fresh[k].tobytes()
        arrays = list(params.values())
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    def test_first_loss_does_not_depend_on_steps(self, setup):
        # with a step, losses[0] comes from the first taped prediction
        graph, config, _ = setup
        target, _ = gen_synthetic_target(graph, seed=11, config=config)
        for seed in (1, 5):
            none, _ = fit_demo(graph, target, steps=0, seed=seed, config=config)
            three, _ = fit_demo(graph, target, steps=3, seed=seed, config=config)
            assert none[0].tobytes() == three[0].tobytes()

    @pytest.mark.parametrize("target", [np.zeros(15), np.zeros((1, 15)), 0.0],
                             ids=["row-vector", "one-row", "scalar"])
    def test_target_of_wrong_shape_rejected(self, setup, target):
        # each of these would broadcast against the 15 x 15 prediction of H3
        graph, config, _ = setup
        with pytest.raises(ValueError, match="15-square matrix"):
            fit_demo(graph, target, steps=1, seed=5, config=config)

    def test_target_in_another_layout_rejected(self, setup):
        # 15 rows again, but five s orbitals per atom instead of two s and a p
        graph, config, _ = setup
        other = build_orbital_layout([1, 1, 1], {1: (0, 0, 0, 0, 0)})
        with pytest.raises(ValueError, match="orbital layout"):
            fit_demo(graph, BlockMatrix(np.zeros((15, 15)), other), steps=1, seed=5,
                     config=config)

    def test_adam_step_keeps_entries_without_gradient(self, rng):
        # entries outside the live mask keep value and moments bit for bit;
        # live ones follow the per-array update the flat step replaced
        params = rng.normal(size=12)
        state = AdamState(rng.normal(size=12), rng.uniform(0.1, 1.0, size=12), t=3)
        live = np.arange(12) % 3 != 1
        grad = np.where(live, rng.normal(size=12), 0.0)
        before, m0, v0 = params.copy(), state.m.copy(), state.v.copy()
        adam_step(params, grad, live, state, lr=1e-2)
        dead = ~live
        assert params[dead].tobytes() == before[dead].tobytes()
        assert state.m[dead].tobytes() == m0[dead].tobytes()
        assert state.v[dead].tobytes() == v0[dead].tobytes()
        g = grad[live]
        m = 0.9 * m0[live] + (1 - 0.9) * g
        v = 0.999 * v0[live] + (1 - 0.999) * (g * g)
        update = np.clip((m / (1 - 0.9 ** 4)) / (np.sqrt(v / (1 - 0.999 ** 4)) + 1e-8), -1.0, 1.0)
        assert params[live].tobytes() == (before[live] - 1e-2 * update).tobytes()
        assert state.m[live].tobytes() == m.tobytes() and state.v[live].tobytes() == v.tobytes()
        assert state.t == 4

    @pytest.mark.parametrize("seed", [1, 5])
    def test_leaves_made_once_match_fresh_leaves(self, setup, seed, monkeypatch):
        # fit_demo wraps its parameter views in leaf Vars once per fit and
        # writes the gradients into one buffer; the loop it replaced made
        # fresh leaves and concatenated their gradients on every step
        graph, config, _ = setup
        target, _ = gen_synthetic_target(graph, seed=11, config=config)
        updates = []

        def recording(params, grad, live, state, lr):
            adam_step(params, grad, live, state, lr)
            updates.append((params.copy(), live.copy(), state.m.copy(), state.v.copy()))

        def fresh_leaves_fit(steps):
            init = init_params(replace(config, seed=seed))
            flat = np.concatenate([a.ravel() for a in init.values()])
            sizes = [a.size for a in init.values()]
            ends = np.cumsum(sizes)
            views = [flat[e - n:e].reshape(a.shape) for n, e, a in zip(sizes, ends, init.values())]
            average = flat.copy()
            averaged = dict(zip(init, (average[e - n:e].reshape(a.shape)
                                       for n, e, a in zip(sizes, ends, init.values()))))
            prepared = prepare_graph(graph, config)
            state = AdamState(np.zeros(flat.size), np.zeros(flat.size))

            def mae(pred):
                return float(np.mean(np.abs(pred.array - target.array)))

            losses = []
            for step in range(steps):
                leaves = [ad.Var(v) for v in views]
                live = predict(graph, dict(zip(init, leaves)), config, prepared)
                if step == 0:
                    losses.append(mae(live))
                ad.backward(ad.mean_all(ad.absolute(ad.sub(live.data, target.array))))
                grads = [leaf.grad for leaf in leaves]
                grad = np.concatenate([np.zeros(n) if g is None else g.ravel()
                                       for g, n in zip(grads, sizes)])
                recording(flat, grad, np.repeat([g is not None for g in grads], sizes),
                          state, 1e-3)
                w = min(AVERAGE_DECAY, (step + 1.0) / (step + 2.0))
                average[:] = w * average + (1.0 - w) * flat
                losses.append(mae(predict(graph, averaged, config, prepared)))
            return np.array(losses), {k: v.copy() for k, v in averaged.items()}

        want_losses, want_params = fresh_leaves_fit(3)
        want_updates, updates[:] = updates[:], []
        monkeypatch.setattr("so2frames.model.adam_step", recording)
        losses, params = fit_demo(graph, target, steps=3, seed=seed, config=config)
        assert losses.tobytes() == want_losses.tobytes()
        assert list(params) == list(want_params)
        assert all(params[k].tobytes() == want_params[k].tobytes() for k in params)
        assert len(updates) == len(want_updates) == 3
        for got, want in zip(updates, want_updates):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        # the parameters that get no gradient keep their value and zero moments
        init = np.concatenate([a.ravel() for a in init_params(replace(config, seed=seed)).values()])
        for flat, live, m, v in updates:
            dead = ~live
            assert dead.any() and live.any()
            assert flat[dead].tobytes() == init[dead].tobytes()
            assert not m[dead].any() and not v[dead].any()

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
        grads = {k: np.zeros(leaf.shape) if leaf.grad is None else leaf.grad
                 for k, leaf in leaves.items()}
        largest = max(np.max(np.abs(g)) for g in grads.values())
        # The embedding is invariant (anything else would break input
        # invariance), so layer 0's message runs on order 0 in the edge
        # frames, and the first layer's degree/order mixers above 0 act on
        # no block: they get no gradient (None, read as zero here), and
        # Adam leaves them and their moments untouched.  An odd degree l3
        # expands an orbital paired with itself into an antisymmetric CG
        # block, which the symmetrization (H + H^T) / 2 removes: those
        # weights get at most rounding noise.  Everything else must be live.
        layout = config.node_layout
        expected_dead = (
            [f"L0/self1/lin/{l}" for l in layout.indices if l > 0]
            + [f"L0/msg/lin/{m}/w{i}" for m in range(1, config.l_max + 1) for i in (1, 2)]
            + [k for k in params if _self_pair_odd_degree(k)])
        assert "expand/diag/1/2.2/1" in expected_dead
        for k in expected_dead:
            assert np.max(np.abs(grads[k])) <= 1e-15 * largest, k
        assert all(leaves[k].grad is None for k in expected_dead if k.startswith("L0/"))
        assert all(np.any(g) for k, g in grads.items() if k not in expected_dead)

    def test_first_layer_mixers_are_wired(self, setup, rng):
        # the parameters that see zero blocks at layer 0 do carry gradient
        # once the layer input is a generic feature state
        graph, config, params = setup
        prepared = prepare_graph(graph, config)
        layout = config.node_layout
        leaves = {k: ad.Var(v) for k, v in params.items()}
        h = random_features(layout, 3, rng)
        out = message_pass(h, inner_products(h, prepared, config), leaves, config, prepared,
                           layer=0)
        total = None
        for block in out.blocks:
            term = sum_entries(ad.mul(block, np.ones(block.shape)))
            total = term if total is None else ad.add(total, term)
        ad.backward(total)
        for l in layout.indices[1:]:
            assert np.any(leaves[f"L0/self1/lin/{l}"].grad)
        for m in range(1, config.l_max + 1):
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

    def test_m_max_must_equal_l_max(self):
        # checkpoints keep the old m_max key: null or l_max load, others fail
        doc = json.loads(checkpoint_dumps(ModelConfig(), init_params(ModelConfig())))
        assert doc["config"]["m_max"] is None
        for value in (None, 4):  # default l_max is 4
            doc["config"]["m_max"] = value
            assert checkpoint_loads(json.dumps(doc))[0] == ModelConfig()
        doc["config"]["m_max"] = 2
        with pytest.raises(ValueError, match="m_max 2 .* l_max 4"):
            checkpoint_loads(json.dumps(doc))

    def test_config_fields_present(self, setup):
        _, config, _ = setup
        doc = json.loads(checkpoint_dumps(config, {}))["config"]
        for key in ("node_irreps", "layers", "tp_arity", "m_max", "cutoff",
                    "rbf_size", "seed", "basis"):
            assert key in doc


class TestConfigValidation:
    @pytest.mark.parametrize("fields", [
        {"node_irreps": "4x1e+2x2e"}, {"tp_channels": 0}, {"ffn_channels": 0},
        {"invariant_width": 0}, {"rbf_size": -1}, {"elements": ()},
        {"elements": (1, 1, 8)}, {"elements": (1, 8, 16)}, {"tp_arity": 1},
        {"layers": True}, {"seed": 0.5}, {"cutoff": 0.0}, {"cutoff": math.nan},
        {"cutoff": math.inf}, {"node_irreps": "2x0e+1x9e"},
        {"basis": ((1, (0, 9)),), "elements": (1,)}, {"basis": ((1, ()),), "elements": (1,)},
    ], ids=["no-scalar-channels", "zero-tp-channels", "zero-ffn-channels",
            "zero-invariant-width", "negative-rbf-size", "no-elements", "repeated-element",
            "element-without-basis", "unary-tp", "boolean-layers", "fractional-seed",
            "zero-cutoff", "nan-cutoff", "infinite-cutoff", "degree-above-cap",
            "basis-degree-above-cap", "empty-basis"])
    def test_invalid_config_rejected(self, fields):
        with pytest.raises(ValueError):
            ModelConfig(**fields)
        # replace() checks the new fields too
        with pytest.raises(ValueError):
            replace(ModelConfig(), **fields)

    @pytest.mark.parametrize("fields, field", [
        ({"elements": (0, -3, 500), "basis": ((-3, (0,)), (0, (0,)), (500, (0,)))},
         "elements"),
        ({"elements": (1,), "basis": ((1, (0,)), (1, (0, 1)))}, "basis"),
        ({"elements": (1,), "basis": ((1, (0,)), (119, (0,)))}, "basis"),
    ], ids=["elements-out-of-range", "basis-repeats-an-element", "basis-key-119"])
    def test_atomic_numbers_bounded(self, fields, field):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**fields)

    @pytest.mark.parametrize("fields", [{"tp_arity": 12}, {"tp_arity": 7},
                                        {"tp_arity": MAX_TP_ARITY + 1, "node_irreps": "8x0e"},
                                        {"tp_arity": 10 ** 9, "node_irreps": "8x0e+2x1e"}],
                             ids=["arity-12", "arity-7", "arity-17-at-lmax-0",
                                  "arity-1e9-at-lmax-1"])
    def test_tensor_product_too_large_to_build(self, fields):
        # l_max 4 unless given: (4, 12) has 1.03e9 fusion paths and (4, 7) 165580
        with pytest.raises(ValueError, match=r"^tp_arity "):
            ModelConfig(**fields)

    @pytest.mark.parametrize("node_irreps, arity", [("8x0e+4x1e+2x2e+2x3e+2x4e", 6),
                                                    (fit_node_irreps(8), 4),
                                                    ("8x0e", MAX_TP_ARITY)],
                             ids=["lmax-4-arity-6", "lmax-8-arity-4", "lmax-0-arity-16"])
    def test_largest_tensor_products_build(self, node_irreps, arity):
        config = ModelConfig(node_irreps=node_irreps, tp_arity=arity, elements=(1,),
                             basis=((1, (0,)),), layers=1)
        assert tp_path_count(config.l_max, arity) <= MAX_TP_PATHS
        assert sum(name.startswith("L0/tp/w/") for name in init_params(config)) == \
            len(enumerate_tp_paths(config.l_max, arity))

    def test_fit_node_irreps(self):
        assert fit_node_irreps(1) == "8x0e+4x1e"
        assert fit_node_irreps(4) == "8x0e+4x1e+2x2e+2x3e+2x4e"


class TestOpCounts:
    # multiplies of predict(..., counter=c) on one seeded H/C/O molecule
    # (8 atoms, 56 edges); the pair track's rotation out of the edge frames
    # is 3472 (fit) and 5152 (l4) of the frame_rotation count
    PINNED = {
        "fit": {"frame_rotation": 12640, "so2_linear": 96160, "so2_tp": 4544},
        "l4": {"frame_rotation": 41024, "so2_linear": 680128, "so2_tp": 174464},
    }

    @pytest.mark.parametrize("name", ["fit", "l4"])
    def test_predict_counts_pinned(self, name):
        graph = sample_molecule(1, 8, [1, 6, 8], 1.4, 15.0)
        config = (default_fit_config(graph) if name == "fit"
                  else ModelConfig(elements=(1, 6, 8)))
        counter = OpCounter()
        predict(graph, init_params(config), config, counter=counter)
        assert counter.counts == self.PINNED[name]


class TestPairEmbed:
    def test_zero_invariants_zero_biases_give_zero(self, setup):
        from so2frames.model import pair_embed
        _, config, params = setup
        zeroed = dict(params)
        for k in params:
            if k.startswith("pair0/mlp") and k.endswith("/b"):
                zeroed[k] = np.zeros_like(params[k])
        s = np.zeros((sum(c for _, c in config.node_layout.entries), 1))
        out = np.asarray(pair_embed(zeroed, s, rbf(1.5, config)))
        assert np.max(np.abs(out)) == 0.0  # MLP(0) with zero biases

    def test_rotation_invariance(self, setup, rng):
        graph, config, params = setup
        from so2frames.model import pair_embed
        h = node_embed(graph.numbers, params, config)
        s = degree_inner_products(h, 0, 1, config.node_layout)
        r = float(np.linalg.norm(graph.positions[1] - graph.positions[0]))
        base = np.asarray(pair_embed(params, s, rbf(r, config)))
        for _ in range(5):
            g = rotation_from_matrix(random_rotation_matrix(rng))
            sr = degree_inner_products(rotate_so3(h, g), 0, 1, config.node_layout)
            rot = np.asarray(pair_embed(params, sr, rbf(r, config)))
            assert np.max(np.abs(base - rot)) < 1e-12

    def test_distance_continuity(self, setup):
        from so2frames.model import pair_embed
        graph, config, params = setup
        h = node_embed(graph.numbers, params, config)
        s = degree_inner_products(h, 0, 1, config.node_layout)
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
        h = random_features(layout, 3, rng)
        zeros = So2Features.zeros(reg, prepared.src.shape)
        out = offdiag_update(h, zeros, params, config, prepared, layer=0)
        # with a zero pair state the skip is the identity on the FFN output,
        # and each edge's result is that of the edge on its own
        for e, (i, j) in enumerate(zip(prepared.src, prepared.dst)):
            frame = prepared.frame[e]
            hi, hj = (So3Features(layout, [b[k] for b in h.blocks]) for k in (i, j))
            direct = so2_layernorm(
                so2_ffn(to_local(frame, hi), to_local(frame, hj), params, "L0/ffn"),
                params, "L0/ln_pair")
            for a, b in zip(out.as_arrays(), direct.as_arrays()):
                assert np.array_equal(a[e], b)
