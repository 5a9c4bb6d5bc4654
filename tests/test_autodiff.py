"""Gradient contract: every differentiable operation's vector-Jacobian
product must match a central finite difference of a random scalar
projection, for inputs and parameters alike.
"""

import numpy as np
import pytest

from conftest import directional_vjp_check
from so2frames import autodiff as ad
from so2frames.cg import PathWeights, expansion, so3_tensor_product, valid_paths
from so2frames.frames import frame_from_direction, from_local, to_local
from so2frames.irreps import So2Features, So3Features, real_spherical_harmonics, so2_layout, so3_layout
from so2frames.sampling import random_unit_vector, stream
from so2frames.so2ops import (enumerate_tp_paths, init_so2_ffn, init_so2_gate,
                              so2_ffn, so2_gate, so2_layernorm, so2_linear,
                              so2_tp_contract, so2_tp_pair)

PROBES = 20
TOL = 1e-5


class TestPrimitives:
    @pytest.mark.parametrize("name", [
        "add", "sub", "mul", "div", "matmul", "einsum", "concat", "take",
        "sigmoid", "silu", "exp", "sqrt", "absolute", "mean_all", "sum_axis",
        "exact_sum", "paste", "transpose"])
    def test_vjp_matches_fd(self, name, rng):
        def make(fn, *shapes):
            def loss(leaves):
                out = fn(*leaves)
                return ad.sum_all(ad.mul(out, cot)) if getattr(out, "ndim", 0) else out
            arrays = [rng.normal(size=s) for s in shapes]
            probe = fn(*arrays)
            cot = rng.normal(size=np.shape(probe)) if np.ndim(probe) else 1.0
            return loss, arrays

        cases = {
            "add": lambda: make(ad.add, (3, 4), (3, 4)),
            "sub": lambda: make(ad.sub, (3, 4), (1, 4)),
            "mul": lambda: make(ad.mul, (3, 4), (3, 1)),
            "div": lambda: make(lambda a, b: ad.div(a, ad.add(ad.mul(b, b), 1.0)),
                                (3, 4), (3, 4)),
            "matmul": lambda: make(ad.matmul, (3, 4), (4, 2)),
            "einsum": lambda: make(lambda a, b: ad.einsum("abc,ua->ubc",
                                                          a, b), (3, 4, 2), (5, 3)),
            "concat": lambda: make(lambda a, b: ad.concat([a, b], axis=1),
                                   (3, 2), (3, 4)),
            "take": lambda: make(lambda a: ad.take(a, (slice(1, 3), slice(None))),
                                 (4, 5)),
            "sigmoid": lambda: make(ad.sigmoid, (6,)),
            "silu": lambda: make(ad.silu, (6,)),
            "exp": lambda: make(ad.exp, (4,)),
            "sqrt": lambda: make(lambda a: ad.sqrt(ad.add(ad.mul(a, a), 0.5)), (4,)),
            "absolute": lambda: make(ad.absolute, (7,)),
            "mean_all": lambda: make(ad.mean_all, (3, 5)),
            "sum_axis": lambda: make(lambda a: ad.sum_axis(a, axis=1), (3, 5)),
            "exact_sum": lambda: make(lambda a, b, c: ad.exact_sum([a, b, c]),
                                      (2, 3), (2, 3), (2, 3)),
            "paste": lambda: make(lambda a, b: ad.paste_blocks(
                (5, 5), [(0, 0, a), (2, 1, b)]), (2, 2), (3, 3)),
            "transpose": lambda: make(ad.transpose, (3, 4)),
        }
        rel_errors = []
        for _ in range(5):
            loss, arrays = cases[name]()
            rel_errors.append(directional_vjp_check(loss, arrays, rng))
        assert max(rel_errors) < TOL


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
                    term = ad.sum_all(ad.mul(block, cot))
                    total = term if total is None else ad.add(total, term)
                return total
            return loss
        self._run(build_loss, arrays_fn, rng)

    def _feature_loss(self, op, n_blocks, layout):
        cots = [np.random.default_rng(1).normal(size=layout.block_shape(m))
                for m in layout.indices]

        def build_loss(arrays):
            def loss(leaves):
                out = op(leaves)
                total = None
                for cot, block in zip(cots, out.blocks):
                    term = ad.sum_all(ad.mul(block, cot))
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
                return ad.sum_all(ad.mul(out, cot))
            return loss
        self._run(build_loss, lambda: [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))],
                  rng)

    def test_so2_tp_contract(self, rng):
        layout = so2_layout([(m, 2) for m in range(3)])
        paths = enumerate_tp_paths(2, 3)

        def arrays_fn():
            feats = [_random_so2(layout, rng) for _ in range(3)]
            weights = [rng.normal(size=2) for _ in paths]
            return [b for f in feats for b in f] + weights

        def op(leaves):
            feats = [So2Features(layout, leaves[i * 3:(i + 1) * 3]) for i in range(3)]
            weights = leaves[9:]
            return so2_tp_contract(feats, paths, weights)

        self._run(lambda arrays: self._feature_loss(op, 9, layout)(arrays),
                  arrays_fn, rng)

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
                    term = ad.sum_all(ad.mul(block, cot))
                    total = term if total is None else ad.add(total, term)
                return total
            return loss
        self._run(build_loss,
                  lambda: [rng.normal(size=self.so3.block_shape(l))
                           for l in self.so3.indices], rng)

    def test_expansion(self, rng):
        cot = np.random.default_rng(4).normal(size=(3, 3))

        def build_loss(arrays):
            def loss(leaves):
                feats = So3Features(self.so3, leaves[:3])
                w = {l3: leaves[3 + l3] for l3 in range(3)}
                return ad.sum_all(ad.mul(expansion(feats, w, 1, 1), cot))
            return loss
        self._run(build_loss,
                  lambda: [rng.normal(size=self.so3.block_shape(l))
                           for l in self.so3.indices]
                  + [rng.normal(size=2) for _ in range(3)], rng)

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
                w = PathWeights({p: leaf for p, leaf in zip(paths, leaves[3:])})
                out = so3_tensor_product(feats, sh, w)
                total = None
                for l, block in out.items():
                    term = ad.sum_all(ad.mul(block, cots[l]))
                    total = term if total is None else ad.add(total, term)
                return total
            return loss
        self._run(build_loss,
                  lambda: [rng.normal(size=layout.block_shape(l)) for l in degrees]
                  + [rng.normal(size=2) for _ in paths], rng)
