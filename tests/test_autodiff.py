"""Gradient contract: every differentiable operation's vector-Jacobian
product must match a central finite difference of a random scalar
projection, for inputs and parameters alike.
"""

import math

import numpy as np
import pytest

from conftest import directional_vjp_check, sum_entries, tape_of
from so2frames import autodiff as ad
from so2frames.cg import expansion, so3_tensor_product, valid_paths
from so2frames.frames import (frame_from_direction, frames_from_directions, from_local,
                              so2_layout_of, to_local)
from so2frames.graph import build_graph, sample_molecule
from so2frames.hamiltonian import assemble
from so2frames.irreps import So2Features, So3Features, real_spherical_harmonics, so2_layout, so3_layout
from so2frames.model import ModelConfig, default_fit_config, init_params, predict, prepare_graph
from so2frames.sampling import random_unit_vector, stream
from so2frames.so2ops import (init_so2_ffn, init_so2_gate, mlp, so2_ffn, so2_gate,
                              so2_layernorm, so2_linear, so2_tp_contract, so2_tp_pair,
                              tp_path_count)

PROBES = 20
TOL = 1e-5


class TestPrimitives:
    @pytest.mark.parametrize("name", [
        "add", "sub", "mul", "matmul", "matmul_shared_weight", "einsum", "einsum_const", "concat",
        "take", "take_indices", "absolute", "mean_all", "sum_axis", "segment_sum"])
    def test_vjp_matches_fd(self, name, rng):
        def make(fn, *shapes):
            def loss(leaves):
                out = fn(*leaves)
                return sum_entries(ad.mul(out, cot)) if getattr(out, "ndim", 0) else out
            arrays = [rng.normal(size=s) for s in shapes]
            probe = fn(*arrays)
            cot = rng.normal(size=np.shape(probe)) if np.ndim(probe) else 1.0
            return loss, arrays

        table = np.random.default_rng(3).normal(size=(3, 2, 5))
        cases = {
            "add": lambda: make(ad.add, (3, 4), (3, 4)),
            "sub": lambda: make(ad.sub, (3, 4), (1, 4)),
            "mul": lambda: make(ad.mul, (3, 4), (3, 1)),
            "matmul": lambda: make(ad.matmul, (3, 4), (4, 2)),
            # a 2-D weight shared by every item of a batch
            "matmul_shared_weight": lambda: make(ad.matmul, (4, 7), (5, 7, 3)),
            "einsum": lambda: make(lambda a, b: ad.einsum("abc,ua->ubc",
                                                          a, b), (3, 4, 2), (5, 3)),
            # a constant table without the batch axes of the other operands
            "einsum_const": lambda: make(lambda a, b: ad.einsum(
                "abc,...uc,...u->...ab", table, a, b), (4, 2, 5), (4, 2)),
            "concat": lambda: make(lambda a, b: ad.concat([a, b], axis=1),
                                   (3, 2), (3, 4)),
            "take": lambda: make(lambda a: ad.take(a, (slice(1, 3), slice(None))),
                                 (4, 5)),
            # repeated rows: the adjoint must add every copy's cotangent
            "take_indices": lambda: make(lambda a: ad.take(a, np.array([2, 0, 2, 3, 0, 2])),
                                         (4, 5)),
            "absolute": lambda: make(ad.absolute, (7,)),
            "mean_all": lambda: make(ad.mean_all, (3, 5)),
            "sum_axis": lambda: make(lambda a: ad.sum_axis(a, axis=1), (3, 5)),
            "segment_sum": lambda: make(lambda a: ad.segment_sum(
                np.array([[0, 2, -1], [1, 3, 4]]), a), (5, 2, 3)),
        }
        rel_errors = []
        for _ in range(5):
            loss, arrays = cases[name]()
            rel_errors.append(directional_vjp_check(loss, arrays, rng))
        assert max(rel_errors) < TOL

    def test_shared_weight_cotangent_is_the_summed_per_item_product(self):
        # the one-GEMM cotangent of a 2-D weight equals the per-item
        # products summed over the batch
        rng = np.random.default_rng(20)
        for shape in [(5, 7, 3), (2, 3, 7, 1), (7, 4)]:
            w, x = rng.normal(size=(4, 7)), rng.normal(size=shape)
            out, vjp = ad.matmul_apply(w, x)
            g = rng.normal(size=out.shape)
            want = ad.unbroadcast(g @ np.swapaxes(x, -1, -2), w.shape)
            got, d_x = vjp(g)
            assert got.shape == w.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(d_x, w.T @ g)

    def test_segment_sum_order_independent(self, rng):
        # a segment's sum depends on the multiset of its terms only: any
        # reordering of the terms, padding included, gives the same bits
        values = rng.normal(size=(9, 2, 3)) * 10.0 ** rng.integers(-8, 8, size=(9, 1, 1))
        slots = np.array([[0, 3, 5, 7, -1], [1, 2, 4, 6, 8]])
        base = ad.segment_sum(slots, values)
        for _ in range(10):
            shuffled = np.array([rng.permutation(row) for row in slots])
            assert np.array_equal(ad.segment_sum(shuffled, values), base)
        exact = np.array([[[math.fsum(values[slots[n][slots[n] >= 0], c, k])
                            for k in range(3)] for c in range(2)] for n in range(2)])
        assert np.max(np.abs(base - exact)) <= 1e-15 * np.max(np.abs(values))

    def test_segment_sum_of_blocks_is_the_sum_of_their_stack(self, rng):
        # the row blocks stack in turn: the sums and each block's cotangent
        # have the bits of one stacked block (row 4 feeds both segments)
        a = rng.normal(size=(3, 2, 3)) * 10.0 ** rng.integers(-8, 8, size=(3, 1, 1))
        b = rng.normal(size=(4, 2, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 1, 1))
        slots = np.array([[0, 4, 6, -1], [2, 3, 4, 1]])
        cot = rng.normal(size=(2, 2, 3))
        va, vb, stacked = ad.Var(a), ad.Var(b), ad.Var(np.concatenate([a, b]))
        parts, whole = ad.segment_sum(slots, va, vb), ad.segment_sum(slots, stacked)
        assert parts.value.tobytes() == whole.value.tobytes()
        ad.backward(sum_entries(ad.mul(parts, cot)))
        ad.backward(sum_entries(ad.mul(whole, cot)))
        assert va.grad.tobytes() == stacked.grad[:3].tobytes()
        assert vb.grad.tobytes() == stacked.grad[3:].tobytes()

    def test_backward_keeps_only_leaf_cotangents(self, rng):
        # a non-leaf cotangent is released once its VJP has run; every leaf
        # that gets a cotangent keeps it, here 2 * (1 @ b.T) and 2 * (a.T @ 1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        va, vb = ad.Var(a), ad.Var(b)
        product = ad.matmul(va, vb)
        out = sum_entries(ad.add(product, product))
        ad.backward(out)
        assert np.array_equal(va.grad, 2.0 * (np.ones((3, 2)) @ b.T))
        assert np.array_equal(vb.grad, 2.0 * (a.T @ np.ones((3, 2))))
        tape = tape_of([out])
        assert len(tape) == 6
        assert all(node.grad is None for node in tape if node.vjp is not None)

    def test_backward_releases_the_model_tape(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.8, 0.3, 0.1], [0.5, 1.9, -0.4]])
        graph = build_graph([1, 1, 1], positions, cutoff=15.0)
        config = default_fit_config(graph)
        leaves = {k: ad.Var(v) for k, v in init_params(config).items()}
        out = ad.mean_all(ad.absolute(predict(graph, leaves, config).data))
        ad.backward(out)
        tape = tape_of([out])
        inner = [node for node in tape if node.vjp is not None]
        assert len(inner) > 50 and all(node.grad is None for node in inner)
        assert sum(leaf.grad is not None for leaf in leaves.values()) > 50


def _random_so2(layout, rng):
    return [rng.normal(size=layout.block_shape(m)) for m in layout.indices]


class TestOperationVjps:
    """Acceptance-grade VJP checks for every library operation."""

    layout = so2_layout([(0, 3), (1, 2), (2, 2)])
    so3 = so3_layout([(0, 2), (1, 2), (2, 2)])

    def _run(self, build_loss, arrays_fn, rng):
        worst = 0.0
        for _ in range(PROBES):
            arrays = arrays_fn()
            worst = max(worst, directional_vjp_check(build_loss(arrays), arrays, rng))
        assert worst < TOL
        return worst

    def test_so2_linear(self, rng):
        out_layout = so2_layout([(0, 2), (1, 3), (2, 1)])

        def arrays_fn():
            blocks = _random_so2(self.layout, rng)
            w1s = [rng.normal(size=(out_layout.mult(m), self.layout.mult(m)))
                   for m in out_layout.indices]
            w2s = [rng.normal(size=(out_layout.mult(m), self.layout.mult(m)))
                   for m in out_layout.indices if m > 0]
            return blocks + w1s + w2s

        cots = [np.random.default_rng(0).normal(size=out_layout.block_shape(m))
                for m in out_layout.indices]

        def build_loss(arrays):
            def loss(leaves):
                blocks = leaves[:3]
                w1s = leaves[3:6]
                w2s = leaves[6:]
                w = {"lin/0/w1": w1s[0], "lin/1/w1": w1s[1], "lin/1/w2": w2s[0],
                     "lin/2/w1": w1s[2], "lin/2/w2": w2s[1]}
                out = so2_linear(So2Features(self.layout, blocks), w, "lin")
                total = None
                for cot, block in zip(cots, out.blocks):
                    term = sum_entries(ad.mul(block, cot))
                    total = term if total is None else ad.add(total, term)
                return total
            return loss
        self._run(build_loss, arrays_fn, rng)

    def _feature_loss(self, op, n_blocks, layout, batch=()):
        cots = [np.random.default_rng(1).normal(size=batch + layout.block_shape(m))
                for m in layout.indices]

        def build_loss(arrays):
            def loss(leaves):
                out = op(leaves)
                total = None
                for cot, block in zip(cots, out.blocks):
                    term = sum_entries(ad.mul(block, cot))
                    total = term if total is None else ad.add(total, term)
                return total
            return loss
        return build_loss

    def test_so2_gate(self, rng):
        params_proto = init_so2_gate({}, "gate", self.layout, rng)
        layers = range(3)

        def arrays_fn():
            blocks = _random_so2(self.layout, rng)
            mlp = [rng.normal(size=params_proto[f"gate/mlp/{k}/W"].shape) * 0.5
                   for k in layers]
            biases = [rng.normal(size=params_proto[f"gate/mlp/{k}/b"].shape) * 0.1
                      for k in layers]
            return blocks + mlp + biases

        def op(leaves):
            blocks, mlp_w, mlp_b = leaves[:3], leaves[3:6], leaves[6:9]
            params = {}
            for k in layers:
                params[f"gate/mlp/{k}/W"] = mlp_w[k]
                params[f"gate/mlp/{k}/b"] = mlp_b[k]
            return so2_gate(So2Features(self.layout, blocks), params, "gate")

        self._run(lambda arrays: self._feature_loss(op, 3, self.layout)(arrays),
                  arrays_fn, rng)

    def test_so2_layernorm(self, rng):
        def arrays_fn():
            blocks = _random_so2(self.layout, rng)
            gains = [1.0 + 0.2 * rng.normal(size=self.layout.mult(m))
                     for m in self.layout.indices]
            biases = [0.1 * rng.normal(size=self.layout.mult(m))
                      for m in self.layout.indices]
            return blocks + gains + biases

        def op(leaves):
            blocks, gains, biases = leaves[:3], leaves[3:6], leaves[6:9]
            params = {}
            for m, g, b in zip(self.layout.indices, gains, biases):
                params[f"ln/{m}/g"] = g
                params[f"ln/{m}/b"] = b
            return so2_layernorm(So2Features(self.layout, blocks), params, "ln")

        self._run(lambda arrays: self._feature_loss(op, 3, self.layout)(arrays),
                  arrays_fn, rng)

    def test_so2_tp_pair(self, rng):
        cot = np.random.default_rng(2).normal(size=(3, 2))

        def build_loss(arrays):
            def loss(leaves):
                out, _ = so2_tp_pair(leaves[0], 2, leaves[1], 1, -1)
                return sum_entries(ad.mul(out, cot))
            return loss
        self._run(build_loss, lambda: [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))],
                  rng)

    def test_so2_tp_contract(self, rng):
        # the input is every factor, so its cotangent adds one term per factor
        layout = so2_layout([(m, 2) for m in range(3)])
        for arity in (2, 3, 4):
            n_paths = tp_path_count(2, arity)

            def arrays_fn():
                return _random_so2(layout, rng) + [rng.normal(size=2) for _ in range(n_paths)]

            def op(leaves, arity=arity):
                return so2_tp_contract(So2Features(layout, leaves[:3]), arity, leaves[3:])

            self._run(self._feature_loss(op, 3, layout), arrays_fn, rng)

    def test_so2_ffn(self, rng):
        layout = so2_layout([(m, 2) for m in range(3)])
        hidden = so2_layout([(m, 3) for m in range(3)])
        proto = init_so2_ffn({}, "ffn", layout, hidden, layout, stream(9, "ffn-proto"))

        def arrays_fn():
            return ([b for b in _random_so2(layout, rng)]
                    + [b for b in _random_so2(layout, rng)])

        def op(leaves):
            a = So2Features(layout, leaves[:3])
            b = So2Features(layout, leaves[3:6])
            return so2_ffn(a, b, proto, "ffn")

        self._run(lambda arrays: self._feature_loss(op, 6, layout)(arrays),
                  arrays_fn, rng)

    def test_to_local_from_local(self, rng):
        frame = frame_from_direction(random_unit_vector(stream(6, "vjp-frame")), 2)
        from so2frames.frames import so2_layout_of
        reg = so2_layout_of(self.so3)
        cots = [np.random.default_rng(3).normal(size=reg.block_shape(m))
                for m in reg.indices]

        def build_loss(arrays):
            def loss(leaves):
                feats = So3Features(self.so3, leaves)
                local = to_local(frame, feats)
                back = from_local(frame, local, self.so3)
                total = None
                for cot, block in zip(cots, to_local(frame, back).blocks):
                    term = sum_entries(ad.mul(block, cot))
                    total = term if total is None else ad.add(total, term)
                return total
            return loss
        self._run(build_loss,
                  lambda: [rng.normal(size=self.so3.block_shape(l))
                           for l in self.so3.indices], rng)

    @pytest.mark.parametrize("kind", ["so2", "so3"])
    def test_batched_so2_layernorm(self, kind, rng):
        # the fused LayerNorm with a leading (4,) item axis, on SO(2)
        # orders and on SO(3) degrees
        layout = self.layout if kind == "so2" else self.so3
        features = So2Features if kind == "so2" else So3Features
        n = len(layout.entries)

        def arrays_fn():
            return ([rng.normal(size=(4,) + layout.block_shape(i)) for i in layout.indices]
                    + [1.0 + 0.2 * rng.normal(size=layout.mult(i)) for i in layout.indices]
                    + [0.1 * rng.normal(size=layout.mult(i)) for i in layout.indices])

        def op(leaves):
            params = {}
            for k, i in enumerate(layout.indices):
                params[f"ln/{i}/g"] = leaves[n + k]
                params[f"ln/{i}/b"] = leaves[2 * n + k]
            return so2_layernorm(features(layout, leaves[:n]), params, "ln")

        self._run(self._feature_loss(op, n, layout, (4,)), arrays_fn, rng)

    def test_batched_so2_linear(self, rng):
        # the fused per-order linear map with a leading (4,) item axis
        out_layout = so2_layout([(0, 2), (1, 3), (2, 1)])
        n = len(self.layout.entries)
        shapes = ([(out_layout.mult(m), self.layout.mult(m)) for m in out_layout.indices]
                  + [(out_layout.mult(m), self.layout.mult(m)) for m in (1, 2)])

        def arrays_fn():
            return ([rng.normal(size=(4,) + self.layout.block_shape(m))
                     for m in self.layout.indices] + [rng.normal(size=s) for s in shapes])

        def op(leaves):
            w = {f"lin/{m}/w1": leaves[n + m] for m in out_layout.indices}
            w.update({f"lin/{m}/w2": leaves[2 * n + m - 1] for m in (1, 2)})
            return so2_linear(So2Features(self.layout, leaves[:n]), w, "lin")

        self._run(self._feature_loss(op, n, out_layout, (4,)), arrays_fn, rng)

    @pytest.mark.parametrize("kind", ["so2", "so3"])
    def test_batched_so2_gate(self, kind, rng):
        # the MLP and the fused per-order gates with a leading (4,) item
        # axis, on SO(2) orders and on SO(3) degrees
        layout = self.layout if kind == "so2" else self.so3
        features = So2Features if kind == "so2" else So3Features
        proto = init_so2_gate({}, "gate", layout, rng)
        names = sorted(proto)
        n = len(layout.entries)

        def arrays_fn():
            return ([rng.normal(size=(4,) + layout.block_shape(i)) for i in layout.indices]
                    + [0.5 * rng.normal(size=proto[name].shape) for name in names])

        def op(leaves):
            params = dict(zip(names, leaves[n:]))
            return so2_gate(features(layout, leaves[:n]), params, "gate")

        self._run(self._feature_loss(op, n, layout, (4,)), arrays_fn, rng)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_batched_so2_tp_contract(self, arity, rng):
        # the path-batched contraction over a (4,) item axis; the one
        # input is every factor, so its cotangents add up
        layout = so2_layout([(m, 2) for m in range(4)])
        n_paths = tp_path_count(3, arity)

        def arrays_fn():
            return ([rng.normal(size=(4,) + layout.block_shape(m)) for m in layout.indices]
                    + [rng.normal(size=2) for _ in range(n_paths)])

        def op(leaves):
            return so2_tp_contract(So2Features(layout, leaves[:4]), arity, leaves[4:])

        self._run(self._feature_loss(op, 4, layout, (4,)), arrays_fn, rng)

    def test_batched_mlp(self, rng):
        # the fused MLP on a (4, in, 1) column batch, input and weights
        sizes = [3, 5, 5, 2]
        cot = np.random.default_rng(9).normal(size=(4, 2, 1))

        def arrays_fn():
            return ([rng.normal(size=(4, 3, 1))]
                    + [rng.normal(size=(o, i)) * 0.7 for i, o in zip(sizes, sizes[1:])]
                    + [rng.normal(size=o) * 0.1 for o in sizes[1:]])

        def build_loss(arrays):
            def loss(leaves):
                params = {}
                for k in range(3):
                    params[f"mlp/{k}/W"] = leaves[1 + k]
                    params[f"mlp/{k}/b"] = leaves[4 + k]
                return sum_entries(ad.mul(mlp(leaves[0], params, "mlp"), cot))
            return loss
        self._run(build_loss, arrays_fn, rng)

    def test_batched_to_local_from_local(self, rng):
        # the fused rotations through a batch of three frames, item by item
        frame = frames_from_directions(
            [random_unit_vector(stream(k, "vjp-frames")) for k in range(3)], 2)
        reg = so2_layout_of(self.so3)

        def op(leaves):
            local = to_local(frame, So3Features(self.so3, leaves))
            return to_local(frame, from_local(frame, local, self.so3))

        self._run(self._feature_loss(op, 3, reg, (3,)),
                  lambda: [rng.normal(size=(3,) + self.so3.block_shape(l))
                           for l in self.so3.indices], rng)

    def test_batched_order_zero_from_local(self, rng):
        # order 0 alone rotated out of a batch of three frames, item by item
        # (every channel of the order, not only those of degree 0)
        frame = frames_from_directions(
            [random_unit_vector(stream(k, "vjp-frames")) for k in range(3)], 2)
        reg = so2_layout_of(self.so3)
        order_zero = so2_layout(reg.entries[:1])

        def op(leaves):
            return to_local(frame, from_local(frame, So2Features(order_zero, leaves), self.so3))

        self._run(self._feature_loss(op, 1, reg, (3,)),
                  lambda: [rng.normal(size=(3,) + order_zero.block_shape(0))], rng)

    def test_expansion(self, rng):
        cot = np.random.default_rng(4).normal(size=(3, 3))

        def build_loss(arrays):
            def loss(leaves):
                feats = So3Features(self.so3, leaves[:3])
                w = {l3: leaves[3 + l3] for l3 in range(3)}
                return sum_entries(ad.mul(expansion(feats, w, 1, 1), cot))
            return loss
        self._run(build_loss,
                  lambda: [rng.normal(size=self.so3.block_shape(l))
                           for l in self.so3.indices]
                  + [rng.normal(size=2) for _ in range(3)], rng)

    def test_assemble(self, rng):
        # node blocks, pair blocks and the weights the plan gathers by segment
        positions = sample_molecule(2, 4, [1, 6, 8], 1.4, 15.0).positions
        graph = build_graph([1, 6, 8, 1], positions, 15.0)
        config = ModelConfig(elements=(1, 6, 8))
        prepared = prepare_graph(graph, config)
        layout, keys = config.node_layout, prepared.plan.keys
        params = init_params(config)
        cot = np.random.default_rng(6).normal(size=(prepared.layout.dim,) * 2)
        k = len(layout.indices)

        def build_loss(arrays):
            def loss(leaves):
                h, pair = So3Features(layout, leaves[:k]), So3Features(layout, leaves[k:2 * k])
                H = assemble(h, pair, prepared, dict(zip(keys, leaves[2 * k:])))
                return sum_entries(ad.mul(H.data, cot))
            return loss
        self._run(build_loss,
                  lambda: [rng.normal(size=(len(items),) + layout.block_shape(l))
                           for items in (graph.numbers, prepared.src) for l in layout.indices]
                  + [rng.normal(size=params[key].shape) for key in keys], rng)

    def test_so3_tensor_product(self, rng):
        L = 2
        layout = so3_layout([(l, 2) for l in range(L + 1)])
        degrees = tuple(range(L + 1))
        paths = valid_paths(degrees, degrees, L)
        sh = real_spherical_harmonics(L, random_unit_vector(stream(7, "vjp-sh")))
        cotr = np.random.default_rng(5)
        cots = {l: cotr.normal(size=(2, 2 * l + 1)) for l in degrees}

        def build_loss(arrays):
            def loss(leaves):
                feats = So3Features(layout, leaves[:3])
                w = dict(zip(paths, leaves[3:]))
                out = so3_tensor_product(feats, sh, w)
                total = None
                for l, block in out.items():
                    term = sum_entries(ad.mul(block, cots[l]))
                    total = term if total is None else ad.add(total, term)
                return total
            return loss
        self._run(build_loss,
                  lambda: [rng.normal(size=layout.block_shape(l)) for l in degrees]
                  + [rng.normal(size=2) for _ in paths], rng)
