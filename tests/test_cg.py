import math

import numpy as np
import pytest

from so2frames.cg import (cg_table, escn_reference_apply, escn_so2_linear_weights, expansion,
                          filter_pole_amplitude, so3_tensor_product, valid_paths)
from so2frames.counters import OpCounter, counting
from so2frames.frames import rotation_from_matrix, wigner_d
from so2frames.irreps import So3Features, real_spherical_harmonics, so3_layout
from so2frames.sampling import random_rotation_matrix, random_unit_vector, stream


def random_features(layout, rng):
    return So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                for l in layout.indices])


class TestCgTable:
    def test_triangle_violation(self):
        with pytest.raises(ValueError):
            cg_table(1, 1, 3)

    def test_scalar_coupling_is_identity(self):
        for l in range(5):
            C = cg_table(0, l, l)
            assert np.max(np.abs(C[0] - np.eye(2 * l + 1))) < 1e-14

    def test_vector_dot_product_pattern(self, rng):
        C = cg_table(1, 1, 0)
        for _ in range(5):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            val = float(np.einsum("abc,a,b->c", C, x, y)[0])
            ratio = val / float(np.dot(x, y))
            assert ratio == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-12)

    def test_orthogonality_all_tables(self):
        # every triangle-valid table with degrees up to 6
        for l1 in range(7):
            for l2 in range(7):
                for l3 in range(abs(l1 - l2), min(l1 + l2, 6) + 1):
                    C = cg_table(l1, l2, l3)
                    gram = np.einsum("abc,abd->cd", C, C)
                    assert np.max(np.abs(gram - np.eye(2 * l3 + 1))) < 1e-13, \
                        (l1, l2, l3)

    def test_equivariance(self, rng):
        for (l1, l2, l3) in [(1, 1, 1), (2, 1, 2), (2, 2, 4), (3, 2, 1), (4, 3, 2)]:
            C = cg_table(l1, l2, l3)
            for _ in range(3):
                R = rotation_from_matrix(random_rotation_matrix(rng))
                x = rng.normal(size=2 * l1 + 1)
                y = rng.normal(size=2 * l2 + 1)
                lhs = np.einsum("abc,a,b->c", C,
                                wigner_d(l1, R) @ x, wigner_d(l2, R) @ y)
                rhs = wigner_d(l3, R) @ np.einsum("abc,a,b->c", C, x, y)
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_memoized_table_reused(self):
        assert cg_table(2, 2, 2) is cg_table(2, 2, 2)


class TestSo3TensorProduct:
    def setup_method(self):
        self.rng = stream(11, "tp-tests")
        self.L = 3
        self.layout = so3_layout([(l, 2) for l in range(self.L + 1)])
        degrees = tuple(range(self.L + 1))
        self.paths = valid_paths(degrees, degrees, self.L)

    def test_zero_weights_zero_output(self):
        x = random_features(self.layout, self.rng)
        sh = real_spherical_harmonics(self.L, random_unit_vector(self.rng))
        w = {p: np.zeros(2) for p in self.paths}
        out = so3_tensor_product(x, sh, w)
        assert all(np.max(np.abs(b)) == 0.0 for b in out.as_arrays())

    def test_bilinearity(self):
        sh = real_spherical_harmonics(self.L, random_unit_vector(self.rng))
        w = {p: self.rng.normal(size=2) for p in self.paths}
        x = random_features(self.layout, self.rng)
        y = random_features(self.layout, self.rng)
        a, b = 0.37, -1.91
        combo = So3Features(self.layout, [a * xa + b * ya for xa, ya in
                                          zip(x.as_arrays(), y.as_arrays())])
        lhs = so3_tensor_product(combo, sh, w)
        fx = so3_tensor_product(x, sh, w)
        fy = so3_tensor_product(y, sh, w)
        for l, block in lhs.items():
            err = np.max(np.abs(block - a * fx.block(l) - b * fy.block(l)))
            assert err < 1e-12

    def test_rotation_equivariance(self):
        from so2frames.frames import rotate_so3

        w = {p: self.rng.normal(size=2) for p in self.paths}
        for _ in range(5):
            x = random_features(self.layout, self.rng)
            r = random_unit_vector(self.rng)
            g = rotation_from_matrix(random_rotation_matrix(self.rng))
            lhs = so3_tensor_product(rotate_so3(x, g),
                                     real_spherical_harmonics(self.L, g.matrix @ r), w)
            rhs = rotate_so3(so3_tensor_product(
                x, real_spherical_harmonics(self.L, r), w), g)
            err = max(np.max(np.abs(a - b))
                      for a, b in zip(lhs.as_arrays(), rhs.as_arrays()))
            assert err < 1e-11

    def test_count_slope_in_l6_window(self):
        counts = []
        Ls = range(2, 9)
        rng = stream(12, "tp-slope")
        for L in Ls:
            layout = so3_layout([(l, 1) for l in range(L + 1)])
            degrees = tuple(range(L + 1))
            x = random_features(layout, rng)
            sh = real_spherical_harmonics(L, random_unit_vector(rng))
            w = {p: rng.normal(size=1) for p in valid_paths(degrees, degrees, L)}
            counter = OpCounter()
            with counting(counter):
                so3_tensor_product(x, sh, w)
            counts.append(counter.get("so3_tp"))
        slope = np.polyfit(np.log(list(Ls)), np.log(counts), 1)[0]
        assert 5.0 <= slope <= 6.5


class TestEscnEquivalence:
    def test_scalar_filter_gives_constant_weights(self, rng):
        l = 3
        w = {(l, 0, l): np.array([1.0])}
        lin = escn_so2_linear_weights(w, so3_layout([(l, 1)]), [l], "p")
        K = filter_pole_amplitude(0)
        for m in range(l + 1):
            assert lin[f"p/{m}/w1"][0, 0] == pytest.approx(K, abs=1e-14)  # C(0,l,l) identity
            if m > 0:
                assert abs(lin[f"p/{m}/w2"][0, 0]) < 1e-14

    def test_weight_block_sign_structure(self, rng):
        # the assembled 2x2 action must be ((w1, w2), (-w2, w1)), which is
        # guaranteed by the antisymmetry C[(li,-m),(lf,0),(lo,m)] =
        # -C[(li,m),(lf,0),(lo,-m)] of the real tables
        for (li, lf, lo) in [(2, 1, 2), (3, 2, 4), (2, 2, 3)]:
            C = cg_table(li, lf, lo)
            for m in range(1, min(li, lo) + 1):
                assert C[li - m, lf, lo + m] == pytest.approx(
                    -C[li + m, lf, lo - m], abs=1e-13)
                assert C[li + m, lf, lo + m] == pytest.approx(
                    C[li - m, lf, lo - m], abs=1e-13)

    def test_oracle_per_degree_pair(self):
        # rotate -> per-order complex mix -> rotate back equals the full
        # tensor product, for every (l_i, l_o) pair separately
        rng = stream(13, "escn-pairs")
        L = 4
        for li in range(L + 1):
            for lo in range(L + 1):
                layout = so3_layout([(li, 1)])
                paths = [(li, lf, lo) for lf in range(abs(li - lo), li + lo + 1)
                         if lf <= 8]
                if not paths:
                    continue
                for _ in range(4):
                    w = {p: rng.normal(size=1) for p in paths}
                    x = random_features(layout, rng)
                    r = random_unit_vector(rng)
                    sh = real_spherical_harmonics(max(lf for _, lf, _ in paths), r)
                    direct = so3_tensor_product(x, sh, w)
                    via_frame = escn_reference_apply(x, r, w, [lo])
                    err = np.max(np.abs(direct.block(lo) - via_frame.block(lo)))
                    scale = max(np.max(np.abs(direct.block(lo))), 1e-12)
                    assert err / scale < 1e-10, (li, lo)

    def test_rotation_count_reads_the_orders_present(self, rng):
        # degree 1 in, degree 3 out: the SO(2) linear gives orders 0 and 1,
        # so rotating out costs l * min(2, l) per channel of degree 3, on
        # top of l^2 per channel to rotate degree 1 in
        channels = 2
        x = random_features(so3_layout([(1, channels)]), rng)
        w = {(1, lf, 3): rng.normal(size=channels) for lf in (2, 3, 4)}
        counter = OpCounter()
        with counting(counter):
            escn_reference_apply(x, random_unit_vector(rng), w, [3])
        assert counter.get("frame_rotation") == channels * (1 * 1 + 3 * 2)

    def test_oracle_full_mix(self):
        rng = stream(14, "escn-full")
        L = 4
        layout = so3_layout([(l, 3) for l in range(L + 1)])
        degrees = tuple(range(L + 1))
        paths = valid_paths(degrees, degrees, L)
        for _ in range(5):
            w = {p: rng.normal(size=3) for p in paths}
            x = random_features(layout, rng)
            r = random_unit_vector(rng)
            sh = real_spherical_harmonics(L, r)
            direct = so3_tensor_product(x, sh, w)
            via_frame = escn_reference_apply(x, r, w, degrees)
            err = max(np.max(np.abs(a - b))
                      for a, b in zip(direct.as_arrays(), via_frame.as_arrays()))
            scale = max(np.max(np.abs(a)) for a in direct.as_arrays())
            assert err / scale < 1e-10


class TestExpansion:
    def test_scalar_block(self, rng):
        layout = so3_layout([(0, 3)])
        feats = random_features(layout, rng)
        w = {0: rng.normal(size=3)}
        block = expansion(feats, w, 0, 0)
        expected = float(np.dot(w[0], feats.block(0)[:, 0]))
        assert np.asarray(block).shape == (1, 1)
        assert float(np.asarray(block)[0, 0]) == pytest.approx(expected, abs=1e-13)

    def test_brute_force_l1_l1(self, rng):
        layout = so3_layout([(l, 2) for l in range(3)])
        feats = random_features(layout, rng)
        w = {l3: rng.normal(size=2) for l3 in range(3)}
        block = np.asarray(expansion(feats, w, 1, 1))
        ref = np.zeros((3, 3))
        for l3 in range(3):
            C = cg_table(1, 1, l3)
            for m1 in range(3):
                for m2 in range(3):
                    for m3 in range(2 * l3 + 1):
                        for c in range(2):
                            ref[m1, m2] += (C[m1, m2, m3]
                                            * feats.block(l3)[c, m3] * w[l3][c])
        assert np.max(np.abs(block - ref)) < 1e-13
        # a batch of items, each with its own weights, gives the per-item
        # results bit for bit
        batch = So3Features(layout, [rng.normal(size=(5,) + layout.block_shape(l))
                                     for l in layout.indices])
        w_batch = {l3: rng.normal(size=(5, 2)) for l3 in range(3)}
        got = np.asarray(expansion(batch, w_batch, 1, 1))
        assert got.shape == (5, 3, 3)
        for b in range(5):
            item = So3Features(layout, [block[b] for block in batch.blocks])
            one = expansion(item, {l3: v[b] for l3, v in w_batch.items()}, 1, 1)
            assert np.array_equal(got[b], one)

    def test_block_equivariance(self, rng):
        from so2frames.frames import rotate_so3

        layout = so3_layout([(l, 2) for l in range(5)])
        for (l1, l2) in [(0, 2), (1, 1), (2, 1), (2, 2)]:
            w = {l3: rng.normal(size=2)
                 for l3 in range(abs(l1 - l2), min(l1 + l2, 4) + 1)}
            for _ in range(3):
                feats = random_features(layout, rng)
                g = rotation_from_matrix(random_rotation_matrix(rng))
                lhs = np.asarray(expansion(rotate_so3(feats, g), w, l1, l2))
                rhs = wigner_d(l1, g) @ np.asarray(expansion(feats, w, l1, l2)) \
                    @ wigner_d(l2, g).T
                assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_missing_degrees_contribute_zero(self, rng):
        layout = so3_layout([(0, 2)])  # no l=1 or l=2 features
        feats = random_features(layout, rng)
        w = {l3: rng.normal(size=2) for l3 in range(3)}
        got = np.asarray(expansion(feats, w, 1, 1))
        only_l0 = np.asarray(expansion(feats, {0: w[0]}, 1, 1))
        assert np.array_equal(got, only_l0)
        # with nothing left to contribute, the zero block has the batch shape
        batch = So3Features(layout, [rng.normal(size=(4, 2) + layout.block_shape(0))])
        w_batch = {1: rng.normal(size=(4, 2, 2)), 2: rng.normal(size=(4, 2, 2))}
        zeros = expansion(batch, w_batch, 1, 1)
        assert zeros.shape == (4, 2, 3, 3) and not np.any(zeros)

    def test_decompose_recovers_weighted_features(self, rng):
        layout = so3_layout([(l, 2) for l in range(4)])
        feats = random_features(layout, rng)
        for (l1, l2) in [(1, 1), (2, 1), (2, 2)]:
            w = {l3: rng.normal(size=2)
                 for l3 in range(abs(l1 - l2), min(l1 + l2, 3) + 1)}
            block = expansion(feats, w, l1, l2)
            for l3, ww in w.items():
                # the CG tables of distinct l3 are orthonormal, so projecting
                # the block on one recovers that degree's weighted features
                recovered = np.einsum("abc,ab->c", cg_table(l1, l2, l3), block)
                target = np.einsum("c,cm->m", ww, feats.block(l3))
                assert np.max(np.abs(recovered - target)) < 1e-11


class TestTableConcurrency:
    def test_concurrent_first_use_single_table(self):
        import threading
        from so2frames import cg as cg_module

        key = (4, 4, 8)
        with cg_module._TABLES_LOCK:
            cg_module._TABLES.pop(key, None)
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(cg_table(*key))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)
