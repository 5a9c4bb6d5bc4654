import functools
import itertools
import math

import numpy as np
import pytest

from so2frames import autodiff as ad
from so2frames.counters import OpCounter, count, counting
from conftest import sum_entries
from so2frames.irreps import So2Features, So3Features, layout_parse, rotate_so2, so2_layout
from so2frames.model import _self_interaction
from so2frames.so2ops import (So2TpPath, enumerate_tp_paths, init_so2_ffn, init_so2_gate,
                              init_so2_layernorm, init_so2_linear, mlp, so2_ffn, so2_gate,
                              so2_layernorm, so2_linear, so2_tp_contract, so2_tp_pair,
                              tp_path_count)

LAYOUT = so2_layout([(0, 4), (1, 3), (2, 2), (3, 1)])


def random_so2(layout, rng, scale=1.0):
    return So2Features(layout, [scale * rng.normal(size=layout.block_shape(m))
                                for m in layout.indices])


def max_dev(a: So2Features, b: So2Features) -> float:
    return max(np.max(np.abs(x - y)) for x, y in zip(a.as_arrays(), b.as_arrays()))


def identity_linear(layout):
    params = {}
    for m, c in layout.entries:
        params[f"lin/{m}/w1"] = np.eye(c)
        if m > 0:
            params[f"lin/{m}/w2"] = np.zeros((c, c))
    return params


def to_complex(block, m):
    arr = np.asarray(block)
    return arr[:, 1] + 1j * arr[:, 0] if m > 0 else arr[:, 0].astype(complex)


class TestSo2Linear:
    def test_identity_weights(self, rng):
        x = random_so2(LAYOUT, rng)
        out = so2_linear(x, identity_linear(LAYOUT), "lin")
        assert max_dev(out, x) == 0.0

    def test_complex_oracle(self, rng):
        out_layout = so2_layout([(0, 2), (1, 4), (2, 1), (3, 2)])
        w = init_so2_linear({}, "lin", LAYOUT, out_layout, rng)
        x = random_so2(LAYOUT, rng)
        z = so2_linear(x, w, "lin")
        for m in out_layout.indices:
            if m == 0:
                expected = w["lin/0/w1"] @ np.asarray(x.block(0))
                assert np.max(np.abs(np.asarray(z.block(0)) - expected)) < 1e-13
            else:
                w_c = w[f"lin/{m}/w1"] + 1j * w[f"lin/{m}/w2"]
                expected = w_c @ to_complex(x.block(m), m)
                assert np.max(np.abs(to_complex(z.block(m), m) - expected)) < 1e-13

    def test_equivariance(self, rng):
        w = init_so2_linear({}, "lin", LAYOUT, LAYOUT, rng)
        for _ in range(200):
            x = random_so2(LAYOUT, rng)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            lhs = so2_linear(rotate_so2(x, phi), w, "lin")
            rhs = rotate_so2(so2_linear(x, w, "lin"), phi)
            assert max_dev(lhs, rhs) < 1e-13

    def test_shape_mismatch_rejected(self, rng):
        w = init_so2_linear({}, "lin", LAYOUT, LAYOUT, rng)
        bad = random_so2(so2_layout([(0, 2), (1, 3), (2, 2), (3, 1)]), rng)
        with pytest.raises(ValueError):
            so2_linear(bad, w, "lin")

    def test_counter(self, rng):
        counter = OpCounter()
        with counting(counter):
            so2_linear(random_so2(LAYOUT, rng), identity_linear(LAYOUT), "lin")
        assert counter.get("so2_linear") == 16 + 4 * (9 + 4 + 1)


class TestSo2Gate:
    @pytest.mark.filterwarnings("error")
    def test_sigmoids_saturate_without_warning(self):
        # exp(800) overflows to inf; the sigmoids still read 0 and 1
        x = np.array([[[800.0]], [[-800.0]]])
        one = np.ones((1, 1))
        net = {"m/0/W": one, "m/0/b": np.zeros(1), "m/1/W": one, "m/1/b": np.zeros(1)}
        assert np.asarray(mlp(x, net, "m")).ravel().tolist() == [800.0, 0.0]
        layout = so2_layout([(0, 1), (1, 1)])
        gate = {"g/mlp/0/W": np.ones((2, 1)), "g/mlp/0/b": np.zeros(2)}
        out = so2_gate(So2Features(layout, [x, np.full((2, 1, 2), 3.0)]), gate, "g")
        assert np.asarray(out.block(0)).ravel().tolist() == [800.0, -800.0]
        assert np.asarray(out.block(1)).ravel().tolist() == [3.0, 3.0, 0.0, 0.0]

    def test_zero_mlp_halves_equivariant_channels(self, rng):
        params = init_so2_gate({}, "gate", LAYOUT, rng)
        params["gate/mlp/2/W"] = np.zeros_like(params["gate/mlp/2/W"])
        params["gate/mlp/2/b"] = np.zeros_like(params["gate/mlp/2/b"])
        x = random_so2(LAYOUT, rng)
        out = so2_gate(x, params, "gate")
        for m, block in out.items():
            if m > 0:
                assert np.max(np.abs(np.asarray(block)
                                     - 0.5 * np.asarray(x.block(m)))) == 0.0

    def test_equivariance(self, rng):
        params = init_so2_gate({}, "gate", LAYOUT, rng)
        for _ in range(200):
            x = random_so2(LAYOUT, rng)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            lhs = so2_gate(rotate_so2(x, phi), params, "gate")
            rhs = rotate_so2(so2_gate(x, params, "gate"), phi)
            assert max_dev(lhs, rhs) < 1e-14

    def test_expressivity_beyond_scalar_input_gate(self, rng):
        """A gate whose MLP sees every m = 0 channel can realize per-sample
        modulation that any gate restricted to the designated scalar
        channels cannot, because those channels are constant on this data:
        any MLP of a constant input produces one constant gate vector, so
        the restricted family's exact optimum is a constant per-channel
        scale, computable in closed form.
        """
        n_scalar = 2   # channels a scalar-only gate may read
        layout = so2_layout([(0, 4), (1, 3), (2, 2)])
        teacher = init_so2_gate({}, "gate", layout, rng)
        samples = []
        for k in range(64):
            blocks = []
            m0 = np.zeros((4, 1))
            m0[:n_scalar, 0] = 0.7  # constant "degree-0" scalars
            m0[n_scalar:, 0] = 3.0 * rng.normal(size=2)  # varying m=0 from l>0
            blocks.append(m0)
            blocks.append(rng.normal(size=(3, 2)))
            blocks.append(rng.normal(size=(2, 2)))
            samples.append(So2Features(layout, blocks))
        targets = [so2_gate(x, teacher, "gate") for x in samples]

        # full-input family: the teacher parameters achieve the data exactly
        fit_err = max(max_dev(so2_gate(x, teacher, "gate"), y)
                      for x, y in zip(samples, targets))
        assert fit_err < 1e-6

        # restricted family: best constant gate per channel, least squares
        best_err = 0.0
        for m in (1, 2):
            xs = np.stack([np.asarray(x.block(m)) for x in samples])
            ys = np.stack([np.asarray(y.block(m)) for y in targets])
            num = np.sum(xs * ys, axis=(0, 2))
            den = np.sum(xs * xs, axis=(0, 2))
            c = num / den
            resid = ys - c[None, :, None] * xs
            best_err = max(best_err, float(np.sqrt(np.mean(resid ** 2))))
        assert best_err > 1e-2

    def test_output_width_validated(self, rng):
        params = init_so2_gate({}, "gate", LAYOUT, rng)
        params["gate/mlp/2/W"] = params["gate/mlp/2/W"][:-1]
        params["gate/mlp/2/b"] = params["gate/mlp/2/b"][:-1]
        with pytest.raises(ValueError):
            so2_gate(random_so2(LAYOUT, rng), params, "gate")

    def test_layout_without_index_zero_rejected(self, rng):
        params = init_so2_gate({}, "gate", LAYOUT, rng)
        with pytest.raises(ValueError, match="gate needs m = 0 channels"):
            so2_gate(random_so2(so2_layout([(1, 3), (2, 2)]), rng), params, "gate")

    def test_taped_gate_is_one_node_plus_slices(self, rng):
        # the MLP and every gated block are one fused node over the input
        # blocks and the MLP weights; each output block is a slice of it
        params = {k: ad.Var(v) for k, v in init_so2_gate({}, "gate", LAYOUT, rng).items()}
        x = So2Features(LAYOUT, [ad.Var(b) for b in random_so2(LAYOUT, rng).blocks])
        out = so2_gate(x, params, "gate")
        fused = out.blocks[0].parents[0]
        assert all(len(b.parents) == 1 and b.parents[0] is fused for b in out.blocks)
        assert [id(p) for p in fused.parents] == [id(v) for v in (*x.blocks, *params.values())]

    def test_so3_gate_is_the_self_interaction_kernel(self, rng):
        # with identity channel mixes the fused self-interaction is the SO(3)
        # gate, bit for bit, in its values and its gate weights' gradients
        layout = layout_parse("4x0e+3x1e+2x2e")
        x = So3Features(layout, [rng.normal(size=(5,) + layout.block_shape(l))
                                 for l in layout.indices])
        gate = init_so2_gate({}, "si/gate", layout, rng)
        lins = {f"si/lin/{l}": np.eye(c) for l, c in layout.entries}
        cots = [rng.normal(size=b.shape) for b in x.blocks]
        results = []
        for apply in (lambda p: so2_gate(x, p, "si/gate"),
                      lambda p: _self_interaction(x, {**lins, **p}, "si")):
            leaves = {k: ad.Var(v) for k, v in gate.items()}
            out = apply(leaves)
            ad.backward(functools.reduce(ad.add, [sum_entries(ad.mul(b, c))
                                                  for b, c in zip(out.blocks, cots)]))
            results.append([ad.value_of(b).tobytes() for b in out.blocks]
                           + [leaves[k].grad.tobytes() for k in gate])
        assert results[0] == results[1]


class TestSo2LayerNorm:
    def test_forced_statistics(self, rng):
        params = init_so2_layernorm({}, "ln", LAYOUT)
        x = random_so2(LAYOUT, rng, scale=2.0)
        out = so2_layernorm(x, params, "ln")
        for m in LAYOUT.indices:
            if m == 0:
                vals = np.asarray(out.block(0))[:, 0]
                assert abs(vals.mean()) < 1e-12
                assert abs(vals.std() - 1.0) < 1e-7
            elif LAYOUT.mult(m) > 1:
                blocks = np.asarray(out.block(m))
                signs = np.sign(np.einsum("cd,cd->c", blocks,
                                          np.asarray(x.block(m))))
                norms = np.linalg.norm(blocks, axis=1) * signs
                assert abs(norms.mean()) < 1e-12
                assert abs(norms.std() - 1.0) < 1e-7

    def test_scale_invariance(self, rng):
        params = init_so2_layernorm({}, "ln", LAYOUT)
        x = random_so2(LAYOUT, rng)
        for c in (0.1, 3.7, 250.0):
            scaled = So2Features(LAYOUT, [c * np.asarray(b) for b in x.blocks])
            assert max_dev(so2_layernorm(x, params, "ln"),
                           so2_layernorm(scaled, params, "ln")) < 1e-12

    def test_equivariance(self, rng):
        params = init_so2_layernorm({}, "ln", LAYOUT)
        for _ in range(200):
            x = random_so2(LAYOUT, rng)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            lhs = so2_layernorm(rotate_so2(x, phi), params, "ln")
            rhs = rotate_so2(so2_layernorm(x, params, "ln"), phi)
            assert max_dev(lhs, rhs) < 1e-13


class TestSo2TpPair:
    def test_scalar_one_is_identity(self, rng):
        x1 = rng.normal(size=(3, 2))
        ones = np.ones((3, 1))
        out, m = so2_tp_pair(x1, 2, ones, 0, +1)
        assert m == 2
        assert np.array_equal(np.asarray(out), x1)

    def test_complex_oracle(self, rng):
        for (m1, m2, sign) in [(1, 1, +1), (2, 1, +1), (2, 1, -1), (3, 2, -1),
                               (1, 0, +1), (0, 2, +1), (0, 0, +1)]:
            x1 = rng.normal(size=(4, 2 if m1 > 0 else 1))
            x2 = rng.normal(size=(4, 2 if m2 > 0 else 1))
            out, mo = so2_tp_pair(x1, m1, x2, m2, sign)
            c1, c2 = to_complex(x1, m1), to_complex(x2, m2)
            ref = c1 * c2 if sign == +1 else c1 * np.conj(c2)
            assert mo == (m1 + m2 if sign == +1 else m1 - m2)
            assert np.max(np.abs(to_complex(out, mo) - ref)) < 1e-14

    def test_equivariance(self, rng):
        cases = [(1, 2, +1), (3, 1, -1), (2, 2, +1)]
        for (m1, m2, sign) in [cases[k % 3] for k in range(200)]:
            x1 = rng.normal(size=(2, 2))
            x2 = rng.normal(size=(2, 2))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out, mo = so2_tp_pair(x1, m1, x2, m2, sign)
            rot, _ = so2_tp_pair(
                np.asarray(rotate_so2(So2Features(so2_layout([(m1, 2)]), [x1]), phi).blocks[0]),
                m1,
                np.asarray(rotate_so2(So2Features(so2_layout([(m2, 2)]), [x2]), phi).blocks[0]),
                m2, sign)
            expected = np.asarray(rotate_so2(
                So2Features(so2_layout([(mo, 2)]), [np.asarray(out)]), phi).blocks[0])
            assert np.max(np.abs(np.asarray(rot) - expected)) < 1e-13

    def test_invalid_difference_rejected(self, rng):
        with pytest.raises(ValueError):
            so2_tp_pair(rng.normal(size=(2, 2)), 1, rng.normal(size=(2, 2)), 1, -1)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            so2_tp_pair(rng.normal(size=(2, 2)), 1, rng.normal(size=(3, 2)), 1, +1)


def brute_force_paths_v2(m_max):
    """Independent enumeration of pairwise paths from the selection rules."""
    out = set()
    for m1 in range(m_max + 1):
        for m2 in range(m_max + 1):
            if m1 + m2 <= m_max:
                out.add((m1, m2, +1))
            if m1 > 0 and m2 > 0 and m1 != m2:
                out.add((m1, m2, -1))
    return out


def brute_force_paths_v3(m_max):
    """Independent enumeration of 3-fold chains with the same conventions."""
    out = set()
    for m1, m2, m3 in itertools.product(range(m_max + 1), repeat=3):
        for s2, s3 in itertools.product((+1, -1), repeat=2):
            if s2 == -1 and (m2 == 0 or m1 == 0 or m1 == m2):
                continue
            e2 = m1 + s2 * m2
            if e2 == 0 and m2 != 0:
                continue
            if abs(e2) > m_max:
                continue
            if s3 == -1 and (m3 == 0 or e2 == 0):
                continue
            e3 = e2 + s3 * m3
            if e3 == 0 and m3 != 0:
                continue
            if abs(e3) > m_max:
                continue
            out.add((m1, m2, m3, s2, s3))
    return out


class TestPathEnumeration:
    def test_trivial(self):
        paths = enumerate_tp_paths(0, 2)
        assert len(paths) == 1
        assert paths[0] == So2TpPath((0, 0), (+1, +1), 0)

    @pytest.mark.parametrize("m_max", [0, 1, 2, 3, 4])
    def test_pairwise_matches_brute_force(self, m_max):
        got = {(p.orders[0], p.orders[1], p.signs[1])
               for p in enumerate_tp_paths(m_max, 2)}
        assert got == brute_force_paths_v2(m_max)

    @pytest.mark.parametrize("m_max", [0, 1, 2, 3, 4])
    def test_threefold_matches_brute_force(self, m_max):
        got = {p.orders + p.signs[1:] for p in enumerate_tp_paths(m_max, 3)}
        assert got == brute_force_paths_v3(m_max)

    def test_deterministic_and_deduplicated(self):
        a = enumerate_tp_paths(3, 3)
        b = enumerate_tp_paths(3, 3)
        assert a == b
        assert len(set(a)) == len(a)

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            enumerate_tp_paths(2, 1)

    @pytest.mark.parametrize("m_max", range(6))
    def test_count_without_enumerating(self, m_max):
        for v in range(2, 6):
            assert tp_path_count(m_max, v) == len(enumerate_tp_paths(m_max, v))

    def test_count_of_a_product_too_large_to_enumerate(self):
        # 5^12 order tuples: the walk counts their paths at once, in exact integers
        assert tp_path_count(4, 12) == 1_031_747_107
        assert tp_path_count(8, 24) > 2 ** 63

    def test_count_slope_near_quadratic(self):
        Ms = range(2, 11)
        counts = [len(enumerate_tp_paths(m, 2)) for m in Ms]
        slope = np.polyfit(np.log(list(Ms)), np.log(counts), 1)[0]
        assert abs(slope - 2.0) <= 0.3


class TestSo2TpContract:
    layout = so2_layout([(m, 2) for m in range(3)])

    def test_single_scalar_path(self, rng):
        # orders 0..0 have one path, the product of the scalars
        layout = so2_layout([(0, 2)])
        assert enumerate_tp_paths(0, 2) == (So2TpPath((0, 0), (+1, +1), 0),)
        x = random_so2(layout, rng)
        out = so2_tp_contract(x, 2, [np.ones(2)])
        expected = np.asarray(x.block(0)) * np.asarray(x.block(0))
        assert out.layout == layout
        assert np.max(np.abs(np.asarray(out.block(0)) - expected)) < 1e-15

    def test_equivariance_v3(self, rng):
        weights = [rng.normal(size=2) for _ in enumerate_tp_paths(2, 3)]
        for _ in range(200):
            u = random_so2(self.layout, rng)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            lhs = so2_tp_contract(rotate_so2(u, phi), 3, weights)
            rhs = rotate_so2(so2_tp_contract(u, 3, weights), phi)
            assert max_dev(lhs, rhs) < 1e-12

    def test_multiply_count_slope(self, rng):
        counts = []
        Ms = range(2, 11)
        for M in Ms:
            layout = so2_layout([(m, 1) for m in range(M + 1)])
            u = random_so2(layout, rng)
            counter = OpCounter()
            with counting(counter):
                so2_tp_contract(u, 2, [np.ones(1)] * len(enumerate_tp_paths(M, 2)))
            counts.append(counter.get("so2_tp"))
        slope = np.polyfit(np.log(list(Ms)), np.log(counts), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_arity_mismatch_rejected(self, rng):
        # the weights of the 2-fold paths do not fit the 3-fold product
        u = random_so2(self.layout, rng)
        with pytest.raises(ValueError, match="weight arrays"):
            so2_tp_contract(u, 3, [np.ones(2)] * len(enumerate_tp_paths(2, 2)))


def loop_tp_contract(features, paths, weights):
    """The per-path pairwise chain that :func:`so2_tp_contract` batches:
    the reference its bits are held to."""
    layout = features[0].layout
    channels = layout.entries[0][1]
    batch = features[0].batch_shape
    acc = {m: [] for m in layout.indices}
    for path, w in zip(paths, weights):
        block = features[0].block(path.orders[0])
        exponent = path.orders[0]
        for k in range(1, len(features)):
            m, s = path.orders[k], path.signs[k]
            other = features[k].block(m)
            if s == +1:
                if exponent >= 0:
                    block, _ = so2_tp_pair(block, exponent, other, m, +1)
                elif -exponent > m:
                    block, _ = so2_tp_pair(block, -exponent, other, m, -1)
                else:
                    block, _ = so2_tp_pair(other, m, block, -exponent, -1)
                exponent += m
            else:
                if exponent >= 0:
                    if exponent > m:
                        block, _ = so2_tp_pair(block, exponent, other, m, -1)
                    else:
                        block, _ = so2_tp_pair(other, m, block, exponent, -1)
                else:
                    block, _ = so2_tp_pair(block, -exponent, other, m, +1)
                exponent -= m
        assert abs(exponent) == path.m_out
        count("so2_tp", channels * (2 if path.m_out > 0 else 1) * math.prod(batch))
        acc[path.m_out].append(block * np.reshape(w, (channels, 1)))
    return So2Features(layout, [functools.reduce(np.add, acc[m]) if acc[m]
                                else np.zeros(batch + layout.block_shape(m))
                                for m in layout.indices])


class TestBatchedTpMatchesLoop:
    @pytest.mark.parametrize("m_max", [1, 2, 3, 4])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_same_bits_and_counts(self, m_max, arity, rng):
        # one input set multiplied with itself, on a batch of five items
        layout = so2_layout([(m, 3) for m in range(m_max + 1)])
        paths = enumerate_tp_paths(m_max, arity)
        weights = [rng.normal(size=3) for _ in paths]
        u = So2Features(layout, [rng.normal(size=(5,) + layout.block_shape(m))
                                 for m in layout.indices])
        counts = OpCounter(), OpCounter()
        with counting(counts[0]):
            got = so2_tp_contract(u, arity, weights)
        with counting(counts[1]):
            ref = loop_tp_contract([u] * arity, paths, weights)
        for a, b in zip(got.blocks, ref.blocks):
            assert np.asarray(a).tobytes() == b.tobytes()
        assert counts[0].get("so2_tp") == counts[1].get("so2_tp") > 0

    def test_tape_nodes_independent_of_path_count(self, rng):
        # behind the one output block per order, the tape holds the same
        # nodes whatever the number of paths: 9 to 153 here
        def inner_nodes(m_max, arity):
            layout = so2_layout([(m, 2) for m in range(m_max + 1)])
            paths = enumerate_tp_paths(m_max, arity)
            leaves = [ad.Var(rng.normal(size=(3,) + layout.block_shape(m)))
                      for m in layout.indices]
            out = so2_tp_contract(So2Features(layout, leaves), arity,
                                  [ad.Var(rng.normal(size=2)) for _ in paths])
            seen, stack = set(), [p for b in out.blocks for p in b.parents]
            while stack:
                node = stack.pop()
                if isinstance(node, ad.Var) and node.parents and id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node.parents)
            return len(seen), len(paths)

        counts = [inner_nodes(m_max, arity) for m_max in (2, 4) for arity in (2, 3)]
        assert len({p for _, p in counts}) == 4
        assert {n for n, _ in counts} == {1}


class TestSo2Ffn:
    layout = so2_layout([(m, 2) for m in range(3)])
    hidden = so2_layout([(m, 5) for m in range(3)])

    def test_zero_inputs_propagate_mlp_constant(self, rng):
        params = init_so2_ffn({}, "ffn", self.layout, self.hidden, self.layout, rng)
        zero = So2Features.zeros(self.layout)
        out = so2_ffn(zero, zero, params, "ffn")
        # zero biases: MLP(0) = 0, so every order vanishes
        for m, block in out.items():
            assert np.max(np.abs(np.asarray(block))) == 0.0
        # a nonzero gate-MLP bias reaches the m = 0 track but the gated
        # m > 0 channels stay zero (sigmoid scales a zero input)
        params["ffn/gate/mlp/2/b"] = params["ffn/gate/mlp/2/b"] + 1.0
        out = so2_ffn(zero, zero, params, "ffn")
        assert np.max(np.abs(np.asarray(out.block(0)))) > 0.0
        for m, block in out.items():
            if m > 0:
                assert np.max(np.abs(np.asarray(block))) == 0.0

    def test_equivariance(self, rng):
        params = init_so2_ffn({}, "ffn", self.layout, self.hidden, self.layout, rng)
        for _ in range(200):
            a = random_so2(self.layout, rng)
            b = random_so2(self.layout, rng)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            lhs = so2_ffn(rotate_so2(a, phi), rotate_so2(b, phi), params, "ffn")
            rhs = rotate_so2(so2_ffn(a, b, params, "ffn"), phi)
            assert max_dev(lhs, rhs) < 1e-12

    def test_argument_order_matters(self, rng):
        # no accidental symmetrization of the pair feature itself
        params = init_so2_ffn({}, "ffn", self.layout, self.hidden, self.layout, rng)
        a = random_so2(self.layout, rng)
        b = random_so2(self.layout, rng)
        assert max_dev(so2_ffn(a, b, params, "ffn"), so2_ffn(b, a, params, "ffn")) > 1e-3

    def test_layout_mismatch_rejected(self, rng):
        params = init_so2_ffn({}, "ffn", self.layout, self.hidden, self.layout, rng)
        a = random_so2(self.layout, rng)
        b = random_so2(so2_layout([(m, 3) for m in range(3)]), rng)
        with pytest.raises(ValueError):
            so2_ffn(a, b, params, "ffn")


class TestLinearity:
    def test_tp_pair_bilinear(self, rng):
        x1, x2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        y1 = rng.normal(size=(3, 2))
        a, b = 0.73, -2.1
        combo, _ = so2_tp_pair(a * x1 + b * y1, 2, x2, 1, -1)
        t1, _ = so2_tp_pair(x1, 2, x2, 1, -1)
        t2, _ = so2_tp_pair(y1, 2, x2, 1, -1)
        assert np.max(np.abs(np.asarray(combo)
                             - a * np.asarray(t1) - b * np.asarray(t2))) < 1e-14

    def test_so2_linear_linear(self, rng):
        w = init_so2_linear({}, "lin", LAYOUT, LAYOUT, rng)
        x = random_so2(LAYOUT, rng)
        y = random_so2(LAYOUT, rng)
        a, b = 1.37, -0.44
        combo = So2Features(LAYOUT, [a * np.asarray(p) + b * np.asarray(q)
                                     for p, q in zip(x.blocks, y.blocks)])
        lhs = so2_linear(combo, w, "lin")
        fx, fy = so2_linear(x, w, "lin"), so2_linear(y, w, "lin")
        ref = So2Features(LAYOUT, [a * np.asarray(p) + b * np.asarray(q)
                                   for p, q in zip(fx.blocks, fy.blocks)])
        assert max_dev(lhs, ref) < 1e-13
