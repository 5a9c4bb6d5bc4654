import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so2frames.irreps import (LayoutError, So2Features, So3Features, circular_harmonics,
                              layout_parse, real_spherical_harmonics, rotate_so2,
                              so2_rotation_matrix, so2_layout)
from so2frames.frames import TARGET_AXIS
from so2frames.sampling import random_unit_vector, stream


class TestLayoutParse:
    def test_table_style_spec(self):
        layout = layout_parse("256x0e+128x1e+64x2e+32x3e+16x4e")
        assert layout.entries == ((0, 256), (1, 128), (2, 64), (3, 32), (4, 16))
        assert layout.kind == "so3"

    def test_minimal_layout(self):
        layout = layout_parse("1x0e")
        assert layout.entries == ((0, 1),)

    def test_so2_length_formula(self):
        # 1 channel of m=0 (width 1) + 2 channels of m=1 (width 2)
        layout = layout_parse("2x1m+1x0m")
        assert layout.kind == "so2"
        assert layout.entries == ((0, 1), (1, 2))
        assert layout.shapes == ((1, 1), (2, 2))

    @pytest.mark.parametrize("bad", [
        "4x0", "x1e", "4y1e", "0x1e", "4x-1e", "4x1e+4x1e", "4x0e+2x1m", ""])
    def test_errors(self, bad):
        with pytest.raises(LayoutError):
            layout_parse(bad)

    def test_roundtrip_1000_random(self, rng):
        for _ in range(1000):
            kind = "e" if rng.integers(2) else "m"
            indices = sorted(rng.choice(9, size=rng.integers(1, 6), replace=False))
            spec = "+".join(f"{rng.integers(1, 100)}x{i}{kind}" for i in indices)
            layout = layout_parse(spec)
            assert layout_parse(layout.format()) == layout

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 512)),
                    min_size=1, max_size=9, unique_by=lambda t: t[0]),
           st.sampled_from(["e", "m"]))
    def test_roundtrip_property(self, entries, suffix):
        spec = "+".join(f"{mult}x{idx}{suffix}" for idx, mult in entries)
        layout = layout_parse(spec)
        assert layout_parse(layout.format()) == layout
        assert list(layout.indices) == sorted(idx for idx, _ in entries)


class TestFeatureContainers:
    def test_shape_validation(self):
        layout = layout_parse("2x0e+1x1e")
        with pytest.raises(LayoutError):
            So3Features(layout, [np.zeros((2, 1)), np.zeros((1, 2))])


class TestSphericalHarmonics:
    def test_l0_constant(self, rng):
        for _ in range(5):
            y = real_spherical_harmonics(0, random_unit_vector(rng))
            assert y.block(0)[0, 0] == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)),
                                                     abs=1e-15)

    def test_target_axis_m0_only(self):
        y = real_spherical_harmonics(6, TARGET_AXIS)
        for l, block in y.items():
            off_axis = block.copy()
            off_axis[0, l] = 0.0
            assert np.max(np.abs(off_axis)) < 1e-14

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            real_spherical_harmonics(2, [0.0, 0.0, 1.1])

    def test_cap_rejected(self):
        with pytest.raises(ValueError):
            real_spherical_harmonics(9, TARGET_AXIS)

    def test_rotation_equivariance(self, rng):
        # Y(R r) = D(R) Y(r); ties the harmonic convention to wigner_d
        from so2frames.frames import rotation_from_matrix, wigner_d
        from so2frames.sampling import random_rotation_matrix

        for _ in range(10):
            R = rotation_from_matrix(random_rotation_matrix(rng))
            r = random_unit_vector(rng)
            y0 = real_spherical_harmonics(4, r)
            y1 = real_spherical_harmonics(4, R.matrix @ r)
            for l in range(5):
                err = np.max(np.abs(wigner_d(l, R) @ y0.block(l)[0] - y1.block(l)[0]))
                assert err < 1e-12

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_exact_near_the_poles(self, pole):
        # directions tilted by 1e-3 .. 1e-12 from +z or -z: degree 1 is the
        # direction itself up to sqrt(3/4pi), and Y(R r) = D(R) Y(r) holds
        # for every degree, with no precision lost to sqrt(1 - z^2)
        from so2frames.frames import rotation_from_matrix, wigner_d
        from so2frames.sampling import random_rotation_matrix

        rng = stream(21, "harmonics-near-pole")
        for tilt in 10.0 ** -np.arange(3, 13):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            r = np.array([math.sin(tilt) * math.cos(phi), math.sin(tilt) * math.sin(phi),
                          pole * math.cos(tilt)])
            y = real_spherical_harmonics(8, r)
            expected = math.sqrt(3.0 / (4.0 * math.pi)) * r[[1, 2, 0]]
            assert np.max(np.abs(y.block(1)[0] - expected)) < 1e-15
            R = rotation_from_matrix(random_rotation_matrix(rng))
            y_rot = real_spherical_harmonics(8, R.matrix @ r)
            for l in range(9):
                err = np.max(np.abs(wigner_d(l, R) @ y.block(l)[0] - y_rot.block(l)[0]))
                assert err < 1e-12, (tilt, l)

    def test_orthonormality_quadrature(self):
        # Gauss-Legendre x uniform-phi quadrature integrates products of
        # band-limited harmonics exactly, so the Gram matrix is the identity
        # far inside the 1e-3 budget.
        l_max = 4
        nodes, weights = np.polynomial.legendre.leggauss(2 * l_max + 2)
        n_phi = 4 * l_max + 4
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        dim = sum(2 * l + 1 for l in range(l_max + 1))
        gram = np.zeros((dim, dim))
        for z, w in zip(nodes, weights):
            s = math.sqrt(1.0 - z * z)
            for phi in phis:
                direction = np.array([s * math.cos(phi), s * math.sin(phi), z])
                y = real_spherical_harmonics(l_max, direction).flatten()
                gram += w * (2.0 * math.pi / n_phi) * np.outer(y, y)
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-3
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-12  # quadrature is exact


class TestCircularHarmonics:
    def test_angle_zero(self):
        b = circular_harmonics(2, 0.0)
        assert np.allclose(b.block(0), [[1.0]])
        assert np.allclose(b.block(1), [[0.0, 1.0]])
        assert np.allclose(b.block(2), [[0.0, 1.0]])

    def test_quarter_turn(self):
        b = circular_harmonics(1, math.pi / 2.0)
        assert np.allclose(b.block(1), [[1.0, 0.0]], atol=1e-15)

    def test_angle_addition(self, rng):
        # evaluate-then-rotate equals rotate-then-evaluate
        for _ in range(20):
            delta = rng.uniform(0.0, 2.0 * math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            direct = circular_harmonics(4, delta + phi)
            rotated = rotate_so2(circular_harmonics(4, delta), phi)
            for a, b in zip(direct.as_arrays(), rotated.as_arrays()):
                assert np.max(np.abs(a - b)) < 1e-14


class TestComplexView:
    def test_phase_multiplication_matches_matrix(self, rng):
        layout = so2_layout([(0, 2), (1, 3), (2, 2), (3, 1)])
        feats = So2Features(layout, [rng.normal(size=layout.block_shape(m))
                                     for m in layout.indices])
        phi = rng.uniform(0.0, 2.0 * math.pi)
        rotated = rotate_so2(feats, phi)
        # order m's pair (x_{-m}, x_{+m}) read as x_{+m} + i x_{-m}
        for m, a, b in zip(layout.indices, feats.blocks, rotated.blocks):
            if m == 0:
                continue
            expected = (a[..., 1] + 1j * a[..., 0]) * np.exp(1j * m * phi)
            got = b[..., 1] + 1j * b[..., 0]
            assert np.max(np.abs(expected - got)) < 1e-14

    def test_rotation_matrix_orthogonal(self):
        for m in range(1, 5):
            R = so2_rotation_matrix(m, 0.731)
            assert np.allclose(R.T @ R, np.eye(2), atol=1e-15)
