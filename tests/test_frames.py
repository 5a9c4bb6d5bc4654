import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sum_entries
from so2frames import autodiff as ad
from so2frames import frames as frames_module
from so2frames.frames import (FALLBACK_AXIS, TARGET_AXIS, frame_average_check,
                              frame_from_direction, frames_from_directions, from_local,
                              order_alignment_permutation, rotate_so3,
                              rotation_from_axis_angle, rotation_from_euler,
                              rotation_from_matrix, so2_layout_of, to_local,
                              wigner_d, wigner_d_batch)
from so2frames.graph import build_graph
from so2frames.irreps import (So2Features, So3Features, layout_parse,
                              real_spherical_harmonics, rotate_so2, so2_layout,
                              so2_rotation_matrix)
from so2frames.model import ModelConfig, prepare_graph
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

    @pytest.mark.parametrize("tilt", [10.0 ** -k for k in range(3, 13)] + [0.0])
    @pytest.mark.parametrize("pole", [0.0, math.pi], ids=["north", "south"])
    def test_euler_roundtrip_near_poles(self, tilt, pole):
        # acos(R[2, 2]) and snapping to the pole lose a tilt below ~1e-6
        R = rotation_from_euler(0.3, abs(pole - tilt), 0.2).matrix
        rebuilt = rotation_from_euler(*rotation_from_matrix(R).euler)
        assert np.max(np.abs(rebuilt.matrix - R)) < 1e-14

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

    def test_identity_is_exact(self):
        # check-equiv's identity trial needs D = I bit for bit
        for R in (rotation_from_euler(0, 0, 0), rotation_from_matrix(np.eye(3))):
            for l in range(9):
                assert np.array_equal(wigner_d(l, R), np.eye(2 * l + 1))
                assert np.array_equal(wigner_d(l, R.inverse()), np.eye(2 * l + 1))

    def test_degree_bits_independent_of_l_max(self, rng):
        # one pass shares the powers and the order trig over all degrees;
        # each degree must still get the bits it gets in a pass of its own
        for _ in range(20):
            E = int(rng.integers(1, 40))
            alpha, beta = rng.uniform(-math.pi, math.pi, (2, E))
            beta[rng.random(E) < 0.3] = 0.0
            for gamma in (-alpha, rng.uniform(-math.pi, math.pi, E)):
                L = int(rng.integers(0, 9))
                every = wigner_d_batch(L, alpha, beta, gamma)
                assert len(every) == L + 1
                for l in range(L + 1):
                    alone = wigner_d_batch(l, alpha, beta, gamma)[l]
                    assert every[l].shape == (E, 2 * l + 1, 2 * l + 1)
                    assert every[l].tobytes() == alone.tobytes()


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

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(3, 14)])
    def test_near_antipode_stable(self, eps):
        # acos(r . z) loses the tilt next to -z; the atan2 angles do not
        r = np.array([eps, 0.0, -1.0]) / math.hypot(eps, 1.0)
        frame = frame_from_direction([eps, 0.0, -1.0], 4)
        assert np.linalg.norm(frame.rotation.matrix.T @ r - TARGET_AXIS) <= 1e-12
        for l in range(5):
            D = frame.d_in[l]
            assert np.max(np.abs(D.T @ D - np.eye(2 * l + 1))) < 1e-12

    def test_rotation_needs_degree_one(self):
        with pytest.raises(ValueError, match="l_max 0"):
            frame_from_direction([0.3, -0.4, 0.866], 0).rotation

    def test_missing_direction_takes_target_axis_frame(self, rng):
        # take(-1) appends the aligned identity instead of evaluating it
        taken = frames_from_directions([random_unit_vector(rng)], 4).take(np.array([-1, 0]))
        axis = frame_from_direction(TARGET_AXIS, 4)
        for l in range(5):
            assert np.array_equal(taken.d_in[l][0], axis.d_in[l])
        assert np.array_equal(taken[0].rotation.matrix, np.eye(3))

    def test_cached_matrices_orthogonal(self, rng):
        frame = frame_from_direction(random_unit_vector(rng), 4)
        for l in range(5):
            for D in (frame.d_in[l], frame.d_in[l].T):
                assert np.max(np.abs(D.T @ D - np.eye(2 * l + 1))) < 1e-12


# components that put directions on, next to and between the axes
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-7, -1e-7, 1e-13, -1e-13]),
    st.floats(-1.0, 1.0, allow_nan=False))
_DIRECTION = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(
    lambda v: math.hypot(*v) >= 1e-12)
# degree-1 real components are ordered (y, z, x)
_YZX = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


class TestBatchedFrames:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_DIRECTION, min_size=1, max_size=8), st.randoms(use_true_random=False))
    def test_batch_properties(self, directions, shuffler):
        l_max = 8
        frames = frames_from_directions(directions, l_max)
        for v, frame in zip(directions, frames):
            r = np.array(v) / np.linalg.norm(v)
            h = frame.rotation.matrix
            assert np.linalg.norm(h.T @ r - TARGET_AXIS) <= 1e-12
            P1 = order_alignment_permutation(1)
            assert np.max(np.abs(frame.d_in[1] - P1 @ _YZX @ h.T @ _YZX.T)) < 1e-13
            inv = frame.rotation.inverse()
            for l in range(l_max + 1):
                D = frame.d_in[l]
                assert np.max(np.abs(D.T @ D - np.eye(2 * l + 1))) < 1e-12
                want = order_alignment_permutation(l) @ wigner_d(l, inv)
                assert np.max(np.abs(D - want)) < 1e-12
        order = list(range(len(directions)))
        shuffler.shuffle(order)
        shuffled = frames_from_directions([directions[k] for k in order], l_max)
        for frame, k in zip(shuffled, order):
            assert np.array_equal(frame.rotation.matrix, frames[k].rotation.matrix)
            for l in range(l_max + 1):
                assert np.array_equal(frame.d_in[l], frames[k].d_in[l])

    def test_degrees_independent_of_l_max(self, rng):
        directions = np.concatenate([rng.normal(size=(30, 3)), [[0.0, 0.0, 1.0],
                                     [0.0, 0.0, -1.0], [-0.0, 0.0, 2.0], [0.0, -0.0, -0.5]]])
        wide, narrow = frames_from_directions(directions, 4), frames_from_directions(directions, 2)
        for l in range(3):
            assert wide.d_in[l].tobytes() == narrow.d_in[l].tobytes()

    def test_rejects_bad_directions(self):
        for bad in ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[np.nan, 0.0, 1.0]],
                    [[np.inf, 0.0, 1.0]]):
            with pytest.raises(ValueError):
                frames_from_directions(bad)

    @pytest.mark.parametrize("l_max", [0, 1, 4])
    def test_check_reads_the_returned_degree_one_block(self, l_max, monkeypatch):
        # on, next to and between the poles the returned frames pass the check
        # at every l_max, and l_max 0 keeps degree 0's bits
        directions = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 2.0], [0.0, -0.0, -0.5],
                      [1e-13, 0.0, 1.0], [-1e-13, 1e-13, -1.0], [1e-7, -1e-7, 1.0],
                      [0.0, 1e-7, -1.0], [0.3, -0.4, 0.866]]
        frames = frames_from_directions(directions, l_max)
        assert frames.l_max == l_max
        assert frames.d_in[0].tobytes() == frames_from_directions(directions, 4).d_in[0].tobytes()

        # the check reads the degree-1 Wigner block that to_local uses: moving
        # one of its entries by 1e-9 fails it, also at l_max 0
        def moved(*args):
            d = wigner_d_batch(*args)
            d[1][-1, 1, 2] += 1e-9   # row z, column x of the last direction
            return d

        monkeypatch.setattr(frames_module, "wigner_d_batch", moved)
        with pytest.raises(AssertionError, match="frame residual"):
            frames_from_directions(directions, l_max)


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

    def test_invariant_features_give_order_zero_alone(self, rng):
        # degree 0 alone, regrouped into the full layout: order 0 holds its
        # channels and then zero rows, and no other order is made
        frame = frames_from_directions([[0.0, 0.0, -1.0], [0.3, -0.4, 0.866],
                                        [1e-9, 0.0, 1.0]], 3)
        h = So3Features(layout_parse("3x0e"), [rng.normal(size=(3, 3, 1))])
        padded = So3Features(self.layout, list(h.blocks) + [np.zeros((3,) + shape)
                                                            for shape in self.layout.shapes[1:]])
        local = to_local(frame, h, so3_layout=self.layout)
        full = to_local(frame, padded)
        assert local.layout.entries == full.layout.entries[:1]
        assert np.array_equal(local.blocks[0], full.blocks[0])
        with pytest.raises(ValueError, match="lower degrees"):
            to_local(frame, h, so3_layout=layout_parse("2x0e+2x1e"))

    @pytest.mark.parametrize("given", [1, 2, 3])
    def test_order_zero_from_local_matches_zero_padded(self, given, rng):
        # the lower orders of the regrouping are rotated out as if the
        # missing ones were zero, on and next to both poles as elsewhere;
        # order 0 alone gives the bits of the padded orders, and the taped
        # adjoint gives the given orders the gradients of the padded input
        frame = frames_from_directions([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1e-9, 0.0, -1.0],
                                        [0.3, -0.4, 0.866]], 3)
        reg = so2_layout_of(self.layout)
        lower = So2Features(so2_layout(reg.entries[:given]),
                            [rng.normal(size=(4,) + shape) for shape in reg.shapes[:given]])
        zeros = [np.zeros((4,) + shape) for shape in reg.shapes[given:]]
        got = from_local(frame, lower, self.layout)
        want = from_local(frame, So2Features(reg, list(lower.blocks) + zeros), self.layout)
        assert got.layout == want.layout == self.layout
        for a, b in zip(got.blocks, want.blocks):
            if given == 1:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))
        cotangents = [rng.normal(size=b.shape) for b in want.blocks]

        def gradients(blocks, layout):
            leaves = [ad.Var(b) for b in blocks]
            out = from_local(frame, So2Features(layout, leaves), self.layout)
            ad.backward(sum_entries(ad.concat([ad.reshape(ad.mul(b, c), (-1,))
                                               for b, c in zip(out.blocks, cotangents)])))
            return [leaf.grad for leaf in leaves]

        padded = gradients(list(lower.blocks) + zeros, reg)
        for a, b in zip(gradients(lower.blocks, lower.layout), padded):
            assert a.shape == b.shape and np.all(a == b)
        for layout in ("7x0m", "8x0m+3x2m"):
            x = So2Features(layout_parse(layout), [rng.normal(size=(4,) + shape)
                                                   for shape in layout_parse(layout).shapes])
            with pytest.raises(ValueError, match="regrouping"):
                from_local(frame, x, self.layout)

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


def _cols(m):
    return slice(max(2 * m - 1, 0), 2 * m + 1)


def reference_to_local(frame, x, index=None):
    """Every degree rotated on its own, ``x.block(l)[index] @ D_l^T``; order
    m concatenates the columns ``cols(m)`` of the degrees l >= m."""
    rotated = {l: (b if index is None else b[index]) @ np.swapaxes(frame.d_in[l], -1, -2)
               for l, b in zip(x.layout.indices, x.as_arrays())}
    return [np.concatenate([r[..., _cols(m)] for l, r in rotated.items() if l >= m], axis=-2)
            for m in range(x.layout.max_index + 1)]


def reference_from_local(frame, blocks, layout):
    """The inverse: degree l concatenates its channel rows of orders 0..l on
    the component axis and rotates them back with ``D_l``."""
    offsets = [0] * len(blocks)
    out = []
    for l, c in layout.entries:
        parts = []
        for m in range(l + 1):
            parts.append(blocks[m][..., offsets[m]:offsets[m] + c, :])
            offsets[m] += c
        out.append(np.concatenate(parts, axis=-1) @ frame.d_in[l])
    return out


def reference_to_local_adjoint(frame, x, index, cotangents):
    """The cotangent of each degree block for order cotangents: degree l's
    rows of every order m <= l in the columns cols(m), times ``D_l``,
    scatter-added through ``index``."""
    grads = []
    for k, (l, c) in enumerate(x.layout.entries):
        g = np.zeros(cotangents[0].shape[:-2] + (c, 2 * l + 1))
        for m in range(l + 1):
            row = sum(cc for ll, cc in x.layout.entries[:k] if ll >= m)
            g[..., _cols(m)] = cotangents[m][..., row:row + c, :]
        part = g @ frame.d_in[l]
        if index is None:
            grads.append(part)
        else:
            grads.append(np.zeros(x.blocks[k].shape))
            np.add.at(grads[-1], index, part)
    return grads


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def random_so3_features_batch(layout, n, rng):
    return So3Features(layout, [rng.normal(size=(n,) + layout.block_shape(l))
                                for l in layout.indices])


def regrouping_cases(name, rng):
    """(frame, features, index) of each regrouping regression case."""
    if name == "gap-layout":   # degree 1 missing: order 1 reads degree 2 only
        layout = layout_parse("8x0e+4x2e")
        frame = frames_from_directions(rng.normal(size=(7, 3)), 2)
        return frame, random_so3_features_batch(layout, 4, rng), rng.integers(0, 4, size=7)
    layout = layout_parse("8x0e+8x1e+4x2e+4x3e+2x4e")
    if name == "no-edges":
        graph = build_graph([1, 8], [[0.0, 0.0, 0.0], [20.0, 0.0, 0.0]], 15.0)
        prepared = prepare_graph(graph, ModelConfig(elements=(1, 8)))
        return prepared.frame, random_so3_features_batch(layout, 2, rng), prepared.dst
    if name == "blank-node-frames":   # index -1 gives the identity frame
        frame = frames_from_directions(rng.normal(size=(3, 3)), 4).take([-1, 0, -1, 2])
        return frame, random_so3_features_batch(layout, 3, rng), np.array([0, 1, 2, 2])
    if name == "isolated-node-frames":
        graph = build_graph([1, 8], [[0.0, 0.0, 0.0], [20.0, 0.0, 0.0]], 15.0)
        prepared = prepare_graph(graph, ModelConfig(elements=(1, 8)))
        assert prepared.node_edge.tolist() == [-1, -1]
        return (prepared.node_frame, random_so3_features_batch(layout, 2, rng),
                prepared.node_atom)
    assert name == "single-frame"   # the eSCN reference path: no batch axis at all
    return frame_from_direction(random_unit_vector(rng), 4), random_so3_features(layout, rng), None


REGROUPING_CASES = ["gap-layout", "no-edges", "blank-node-frames", "isolated-node-frames",
                    "single-frame"]


class TestRegroupingReference:
    """to_local and from_local regroup through one buffer per call; their
    values equal the per-degree reference bit for bit."""

    @pytest.mark.parametrize("name", REGROUPING_CASES)
    def test_to_local_matches_reference(self, name, rng):
        frame, x, index = regrouping_cases(name, rng)
        expect = reference_to_local(frame, x, index)
        for taped in (False, True):
            blocks = [ad.Var(b) for b in x.blocks] if taped else x.blocks
            local = to_local(frame, So3Features(x.layout, blocks), index)
            assert local.layout == so2_layout_of(x.layout)
            for m, (got, want) in enumerate(zip(local.blocks, expect)):
                assert ad.value_of(got).shape == want.shape
                assert _bits(ad.value_of(got)) == _bits(want)
                if taped:   # one node per order, reading the degrees l >= m
                    assert got.parents == tuple(b for l, b in zip(x.layout.indices, blocks)
                                                if l >= m)

    @pytest.mark.parametrize("name", REGROUPING_CASES)
    def test_to_local_adjoint_matches_reference(self, name, rng):
        frame, x, index = regrouping_cases(name, rng)
        leaves = [ad.Var(b) for b in x.blocks]
        local = to_local(frame, So3Features(x.layout, leaves), index)
        cotangents = [rng.normal(size=ad.value_of(b).shape) for b in local.blocks]
        loss = sum_entries(ad.concat([ad.reshape(ad.mul(b, c), (-1,))
                                      for b, c in zip(local.blocks, cotangents)]))
        ad.backward(loss)
        for leaf, want in zip(leaves, reference_to_local_adjoint(frame, x, index, cotangents)):
            scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
            assert np.max(np.abs(leaf.grad - want), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("name", REGROUPING_CASES)
    def test_from_local_matches_reference(self, name, rng):
        frame, x, index = regrouping_cases(name, rng)
        reg = so2_layout_of(x.layout)
        batch = frame.d_in[0].shape[:-2]
        arrays = [rng.normal(size=batch + reg.block_shape(m)) for m in reg.indices]
        expect = reference_from_local(frame, arrays, x.layout)
        for taped in (False, True):
            blocks = [ad.Var(b) for b in arrays] if taped else arrays
            out = from_local(frame, So2Features(reg, blocks), x.layout)
            for l, got, want in zip(x.layout.indices, out.blocks, expect):
                assert _bits(ad.value_of(got)) == _bits(want)
                if taped:   # one node per degree, reading the orders 0..l
                    assert got.parents == tuple(blocks[:l + 1])


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
