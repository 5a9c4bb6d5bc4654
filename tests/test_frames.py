import math

import numpy as np
import pytest

from so2frames.frames import (FALLBACK_AXIS, TARGET_AXIS, frame_average_check,
                              frame_from_direction, from_local,
                              order_alignment_permutation, rotate_so3,
                              rotation_from_axis_angle, rotation_from_euler,
                              rotation_from_matrix, so2_layout_of, to_local,
                              wigner_d)
from so2frames.irreps import (So2Features, So3Features, layout_parse,
                              real_spherical_harmonics, rotate_so2,
                              so2_rotation_matrix)
from so2frames.sampling import random_rotation_matrix, random_unit_vector, stream
from so2frames.so2ops import init_so2_linear, so2_linear


def random_so3_features(layout, rng):
    return So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                for l in layout.indices])


class TestRotation:
    def test_identity_euler(self):
        assert np.allclose(rotation_from_euler(0, 0, 0).matrix, np.eye(3))

    def test_z_rotation_fixes_target_axis(self, rng):
        for _ in range(5):
            alpha = rng.uniform(0, 2 * math.pi)
            R = rotation_from_euler(alpha, 0.0, 0.0)
            assert np.allclose(R.apply(TARGET_AXIS), TARGET_AXIS, atol=1e-15)

    def test_euler_roundtrip_random(self, rng):
        for _ in range(50):
            R = random_rotation_matrix(rng)
            rot = rotation_from_matrix(R)
            rebuilt = rotation_from_euler(*rot.euler)
            assert np.max(np.abs(rebuilt.matrix - R)) < 1e-12

    def test_euler_roundtrip_degenerate(self):
        for M in (np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, -1.0, 1.0]),
                  np.diag([-1.0, 1.0, -1.0])):
            rot = rotation_from_matrix(M)
            assert np.max(np.abs(rotation_from_euler(*rot.euler).matrix - M)) < 1e-12

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_matrix(np.diag([1.0, 1.0, -1.0]))  # determinant -1


class TestWignerD:
    def test_identity(self):
        R = rotation_from_euler(0, 0, 0)
        for l in range(7):
            assert np.allclose(wigner_d(l, R), np.eye(2 * l + 1), atol=1e-14)

    def test_orthogonality(self, rng):
        for _ in range(5):
            R = rotation_from_matrix(random_rotation_matrix(rng))
            for l in range(7):
                D = wigner_d(l, R)
                assert np.max(np.abs(D.T @ D - np.eye(2 * l + 1))) < 1e-12

    def test_homomorphism(self, rng):
        for _ in range(10):
            R1 = rotation_from_matrix(random_rotation_matrix(rng))
            R2 = rotation_from_matrix(random_rotation_matrix(rng))
            R12 = R1.compose(R2)
            for l in range(7):
                err = np.max(np.abs(wigner_d(l, R12) - wigner_d(l, R1) @ wigner_d(l, R2)))
                assert err < 1e-11

    def test_l1_is_coordinate_rotation(self, rng):
        # degree-1 real basis orders components as (y, z, x)
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        for _ in range(5):
            R = random_rotation_matrix(rng)
            D = wigner_d(1, rotation_from_matrix(R))
            assert np.max(np.abs(D - A @ R @ A.T)) < 1e-13

    def test_axis_rotation_block_diagonal(self, rng):
        # rotations about the target axis are diag(1, R_1(a), ..., R_l(a))
        # after the order alignment permutation
        for _ in range(10):
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            R = rotation_from_euler(alpha, 0.0, 0.0)
            for l in range(7):
                D = wigner_d(l, R)
                P = order_alignment_permutation(l)
                got = P @ D @ P.T
                want = np.zeros_like(got)
                want[0, 0] = 1.0
                for m in range(1, l + 1):
                    want[2 * m - 1:2 * m + 1, 2 * m - 1:2 * m + 1] = \
                        so2_rotation_matrix(m, alpha)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            wigner_d(9, rotation_from_euler(0, 0, 0))


class TestFrame:
    def test_target_axis_gives_identity(self):
        frame = frame_from_direction(TARGET_AXIS, 2)
        assert np.allclose(frame.rotation.matrix, np.eye(3), atol=1e-15)

    def test_antipodal_fallback(self):
        frame = frame_from_direction(-TARGET_AXIS, 2)
        expected = rotation_from_axis_angle(FALLBACK_AXIS, math.pi)
        assert np.max(np.abs(frame.rotation.matrix - expected.matrix.T)) < 1e-13
        assert np.linalg.norm(
            frame.rotation.inverse().apply(-TARGET_AXIS) - TARGET_AXIS) < 1e-13

    def test_random_directions_canonicalize(self, rng):
        for _ in range(50):
            r = random_unit_vector(rng)
            frame = frame_from_direction(r, 1)
            assert np.linalg.norm(frame.rotation.inverse().apply(r) - TARGET_AXIS) < 1e-13

    def test_scaling_invariance(self, rng):
        r = random_unit_vector(rng)
        f1 = frame_from_direction(r, 2)
        f2 = frame_from_direction(2.0 * r, 2)
        assert np.array_equal(f1.rotation.matrix, f2.rotation.matrix)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            frame_from_direction([0.0, 0.0, 0.0])

    def test_cached_matrices_orthogonal(self, rng):
        frame = frame_from_direction(random_unit_vector(rng), 4)
        for l in range(5):
            for D in (frame.d_in[l], frame.d_out[l]):
                assert np.max(np.abs(D.T @ D - np.eye(2 * l + 1))) < 1e-12


class TestLocalMapping:
    layout = layout_parse("3x0e+2x1e+2x2e+1x3e")

    def test_identity_frame_is_regrouping_inverse(self, rng):
        x = random_so3_features(self.layout, rng)
        frame = frame_from_direction(TARGET_AXIS, 3)
        back = from_local(frame, to_local(frame, x), self.layout)
        for a, b in zip(x.as_arrays(), back.as_arrays()):
            assert np.max(np.abs(a - b)) < 1e-15

    def test_regrouped_layout(self):
        assert str(so2_layout_of(self.layout)) == "8x0m+5x1m+3x2m+1x3m"

    def test_roundtrip_and_isometry(self, rng):
        for _ in range(10):
            x = random_so3_features(self.layout, rng)
            frame = frame_from_direction(random_unit_vector(rng), 3)
            local = to_local(frame, x)
            back = from_local(frame, local, self.layout)
            err = max(np.max(np.abs(a - b))
                      for a, b in zip(x.as_arrays(), back.as_arrays()))
            assert err < 1e-13
            assert abs(local.norm() - x.norm()) < 1e-12

    def test_zero_maps_to_zero(self):
        frame = frame_from_direction([0.3, -0.4, 0.866], 3)
        x = So3Features.zeros(self.layout)
        local = to_local(frame, x)
        assert all(np.max(np.abs(b)) == 0.0 for b in local.as_arrays())

    def test_own_harmonics_collapse_to_m0(self, rng):
        # the frame's own direction canonicalizes onto the target axis,
        # where only m = 0 harmonics are nonzero
        r = random_unit_vector(rng)
        frame = frame_from_direction(r, 4)
        y = real_spherical_harmonics(4, r)
        local = to_local(frame, y)
        for m, block in local.items():
            if m > 0:
                assert np.max(np.abs(block)) < 1e-12

    def test_stabilizer_equivariance(self, rng):
        # rotating the input by h g(phi) h^-1 rotates every local order by phi
        x = random_so3_features(self.layout, rng)
        r = random_unit_vector(rng)
        frame = frame_from_direction(r, 3)
        for _ in range(5):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            g = rotation_from_matrix(
                frame.rotation.matrix
                @ rotation_from_euler(phi, 0.0, 0.0).matrix
                @ frame.rotation.matrix.T)
            lhs = to_local(frame, rotate_so3(x, g))
            rhs = rotate_so2(to_local(frame, x), phi)
            for a, b in zip(lhs.as_arrays(), rhs.as_arrays()):
                assert np.max(np.abs(a - b)) < 1e-12

    def test_global_equivariance_chain(self, rng):
        # with a stabilizer-equivariant map between the projections, the
        # canonicalized pipeline commutes with arbitrary global rotations
        reg = so2_layout_of(self.layout)
        weights = init_so2_linear({}, "lin", reg, reg, stream(5, "chain"))

        def pipeline(direction, x):
            frame = frame_from_direction(direction, 3)
            return from_local(frame, so2_linear(to_local(frame, x), weights, "lin"),
                              self.layout)

        for _ in range(10):
            x = random_so3_features(self.layout, rng)
            r = random_unit_vector(rng)
            g = rotation_from_matrix(random_rotation_matrix(rng))
            lhs = pipeline(g.apply(r), rotate_so3(x, g))
            rhs = rotate_so3(pipeline(r, x), g)
            err = max(np.max(np.abs(a - b))
                      for a, b in zip(lhs.as_arrays(), rhs.as_arrays()))
            assert err < 1e-11


class TestFrameAveraging:
    layout = layout_parse("2x0e+2x1e+1x2e")

    def test_identity_map_collapses_exactly(self, rng):
        x = random_so3_features(self.layout, rng)
        dev = frame_average_check(lambda f: f, random_unit_vector(rng), x, 8,
                                  stream(1, "fa"))
        assert dev < 1e-13

    def test_so2_linear_collapses(self, rng):
        reg = so2_layout_of(self.layout)
        weights = init_so2_linear({}, "lin", reg, reg, stream(2, "fa-lin"))
        x = random_so3_features(self.layout, rng)
        dev = frame_average_check(lambda f: so2_linear(f, weights, "lin"),
                                  random_unit_vector(rng), x, 64, stream(3, "fa"))
        assert dev < 1e-10

    def test_negative_control_detected(self, rng):
        # squaring only the x_{-m} component is not stabilizer equivariant
        def broken(f: So2Features) -> So2Features:
            blocks = []
            for m, block in f.items():
                arr = np.array(block)
                if m > 0:
                    arr[:, 0] = arr[:, 0] ** 2
                blocks.append(arr)
            return So2Features(f.layout, blocks)

        x = random_so3_features(self.layout, rng)
        dev = frame_average_check(broken, random_unit_vector(rng), x, 64,
                                  stream(4, "fa"))
        assert dev > 1e-3

    def test_sample_count_validated(self, rng):
        x = random_so3_features(self.layout, rng)
        with pytest.raises(ValueError):
            frame_average_check(lambda f: f, TARGET_AXIS, x, 0, rng)
