"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline; every tolerance is pinned here.
"""

import itertools
import time

import numpy as np

from conftest import directional_vjp_check, sum_entries
from so2frames import autodiff as ad
from so2frames.cg import escn_reference_apply, so3_tensor_product, valid_paths
from so2frames.cli import main
from so2frames.frames import (frame_average_check, order_alignment_permutation,
                              rotation_from_euler, rotation_from_matrix, so2_layout_of,
                              wigner_d)
from so2frames.graph import build_graph, sample_molecule
from so2frames.hamiltonian import (block_rotate, gen_synthetic_target,
                                   generalized_eigensolve, metrics)
from so2frames.harness import bench, brute_force_pair_paths
from so2frames.irreps import (So2Features, So3Features, real_spherical_harmonics,
                              so2_layout, so2_rotation_matrix, so3_layout)
from so2frames.model import default_fit_config, fit_demo, init_params, predict
from so2frames.sampling import random_rotation_matrix, random_unit_vector, stream
from so2frames.so2ops import enumerate_tp_paths, init_so2_linear, so2_linear


def conclude(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:2d}] {verdict} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_01_escn_equivalence_oracle():
    """Tensor product with a harmonic filter == rotate, mix per order,
    rotate back; 100 random triples, degrees <= 4, rel error < 1e-10."""
    rng = stream(101, "acceptance-escn")
    L = 4
    degrees = tuple(range(L + 1))
    layout = so3_layout([(l, 1) for l in degrees])
    paths = valid_paths(degrees, degrees, L)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        weights = {p: rng.normal(size=1) for p in paths}
        x = So3Features(layout, [rng.normal(size=layout.block_shape(l))
                                 for l in degrees])
        r = random_unit_vector(rng)
        direct = so3_tensor_product(x, real_spherical_harmonics(L, r), weights)
        via_frame = escn_reference_apply(x, r, weights, degrees)
        err = max(np.max(np.abs(a - b))
                  for a, b in zip(direct.as_arrays(), via_frame.as_arrays()))
        scale = max(max(np.max(np.abs(a)) for a in direct.as_arrays()), 1e-30)
        worst = max(worst, err / scale)
    elapsed = time.perf_counter() - t0
    conclude(1, "escn-equivalence", worst < 1e-10 and elapsed < 10.0,
             f"max rel error {worst:.3e} over 100 trials in {elapsed:.1f} s")


def test_02_complexity_slopes():
    """Multiply-counter slopes over L in 2..8: SO(3) TP in [5.0, 6.5],
    rotation + SO(2) Linear in [2.5, 3.5]; deterministic, < 60 s."""
    t0 = time.perf_counter()
    report = bench(l_range=range(2, 9), m_range=range(2, 11), seed=0)
    elapsed = time.perf_counter() - t0
    s_tp = report.checks["so3_tp_slope"]["slope"]
    s_rot = report.checks["rotation_so2linear_slope"]["slope"]
    ok = 5.0 <= s_tp <= 6.5 and 2.5 <= s_rot <= 3.5 and elapsed < 60.0
    conclude(2, "complexity-slopes", ok,
             f"so3_tp {s_tp:.3f} in [5.0, 6.5]; rotation+so2linear {s_rot:.3f} "
             f"in [2.5, 3.5]; {elapsed:.1f} s")


def test_03_so2_tp_path_counts():
    """Enumerated fusion paths match brute force exactly for M <= 4,
    v in {2, 3}; pairwise count slope within 0.3 of 2."""
    exact = True
    for m_max in range(5):
        exact &= len(enumerate_tp_paths(m_max, 2)) == brute_force_pair_paths(m_max)
        brute3 = 0
        for orders in itertools.product(range(m_max + 1), repeat=3):
            m1, m2, m3 = orders
            for s2, s3 in itertools.product((+1, -1), repeat=2):
                if s2 == -1 and (m2 == 0 or m1 == 0 or m1 == m2):
                    continue
                e2 = m1 + s2 * m2
                if (e2 == 0 and m2 != 0) or abs(e2) > m_max:
                    continue
                if s3 == -1 and (m3 == 0 or e2 == 0):
                    continue
                e3 = e2 + s3 * m3
                if (e3 == 0 and m3 != 0) or abs(e3) > m_max:
                    continue
                brute3 += 1
        exact &= len(enumerate_tp_paths(m_max, 3)) == brute3
    Ms = range(2, 11)
    counts = [len(enumerate_tp_paths(m, 2)) for m in Ms]
    slope = float(np.polyfit(np.log(list(Ms)), np.log(counts), 1)[0])
    ok = exact and abs(slope - 2.0) <= 0.3
    conclude(3, "so2-tp-path-counts", ok,
             f"exact match up to M=4 for v=2,3: {exact}; pairwise slope {slope:.3f}")


def test_04_end_to_end_block_equivariance():
    """predict(g . molecule) vs block_rotate(predict(molecule), g) below
    1e-9 for a 5-atom molecule over 20 rotations; < 60 s."""
    rng = stream(104, "acceptance-equiv")
    graph = sample_molecule(42, 5, [1, 8], min_dist=1.6, cutoff=15.0)
    config = default_fit_config(graph)
    params = init_params(config)
    t0 = time.perf_counter()
    H0 = predict(graph, params, config)
    worst = 0.0
    for _ in range(20):
        g = rotation_from_matrix(random_rotation_matrix(rng))
        rotated = build_graph(graph.numbers, (g.matrix @ graph.positions.T).T,
                              graph.cutoff)
        H1 = predict(rotated, params, config)
        worst = max(worst, float(np.max(np.abs(H1.array - block_rotate(H0, g).array))))
    elapsed = time.perf_counter() - t0
    conclude(4, "block-equivariance", worst < 1e-9 and elapsed < 60.0,
             f"max abs deviation {worst:.3e} over 20 rotations "
             f"(l_max {config.l_max}, dim {H0.array.shape[0]}) in {elapsed:.1f} s")


def test_05_frame_averaging_collapse():
    """Stabilizer-averaged evaluation (K = 64) collapses to the single
    canonical rotation for an equivariant map (< 1e-10) and detects a
    non-equivariant one (> 1e-3)."""
    rng = stream(105, "acceptance-frames")
    layout = so3_layout([(0, 2), (1, 2), (2, 1), (3, 1)])
    reg = so2_layout_of(layout)
    weights = init_so2_linear({}, "lin", reg, reg, rng)
    x = So3Features(layout, [rng.normal(size=layout.block_shape(l))
                             for l in layout.indices])
    direction = random_unit_vector(rng)
    dev_equi = frame_average_check(lambda f: so2_linear(f, weights, "lin"), direction, x,
                                   64, stream(105, "acceptance-frames-samples"))

    def broken(f: So2Features) -> So2Features:
        blocks = []
        for m, block in f.items():
            arr = np.array(block)
            if m > 0:
                arr[:, 0] = arr[:, 0] ** 2
            blocks.append(arr)
        return So2Features(f.layout, blocks)

    dev_broken = frame_average_check(broken, direction, x, 64,
                                     stream(105, "acceptance-frames-neg"))
    ok = dev_equi < 1e-10 and dev_broken > 1e-3
    conclude(5, "frame-averaging-collapse", ok,
             f"equivariant map deviation {dev_equi:.3e} < 1e-10; "
             f"negative control {dev_broken:.3e} > 1e-3")


def test_06_wigner_block_diagonal_identity():
    """Rotations about the target axis are diag(1, R_1(a), ..., R_l(a))
    in the order-aligned basis, within 1e-12 for l <= 6, 50 angles."""
    rng = stream(106, "acceptance-blockdiag")
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.0, 2.0 * np.pi)
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
            worst = max(worst, float(np.max(np.abs(got - want))))
    conclude(6, "wigner-block-diagonal", worst < 1e-12,
             f"max deviation {worst:.3e} over 50 angles, l <= 6")


def test_07_gradient_contract():
    """Every operation's VJP matches central finite differences (step
    1e-6) within relative error 1e-5 on 20 random probes per op."""
    from so2frames.frames import frame_from_direction, from_local, to_local
    from so2frames.cg import expansion
    from so2frames.so2ops import (init_so2_ffn, init_so2_gate, init_so2_layernorm,
                                  so2_ffn, so2_gate, so2_layernorm, so2_tp_contract,
                                  so2_tp_pair)

    layout = so2_layout([(0, 3), (1, 2), (2, 2)])
    so3 = so3_layout([(0, 2), (1, 2), (2, 2)])
    reg = so2_layout_of(so3)
    uni = so2_layout([(m, 3) for m in range(3)])
    tp_paths = valid_paths((0, 1, 2), (0, 1, 2), 2)

    def shapes(lay):
        return [lay.block_shape(m) for m in lay.indices]

    def project(out_blocks, cots):
        total = None
        for cot, block in zip(cots, out_blocks):
            term = sum_entries(ad.mul(block, cot))
            total = term if total is None else ad.add(total, term)
        return total

    def case(name):
        # each case draws its fixed weights, probes and directions from a
        # generator of its own, so a change to one case redraws no other
        return name, stream(107, f"acceptance-vjp/{name}")

    def op_cases():
        c = {m: np.random.default_rng(m).normal(size=layout.block_shape(m))
             for m in layout.indices}
        cots = [c[m] for m in layout.indices]
        name, rng = case("so2_linear")
        lin_w = init_so2_linear({}, "lin", layout, layout, rng)
        yield name, rng, (lambda lv: project(
            so2_linear(So2Features(layout, lv), lin_w, "lin").blocks, cots)), shapes(layout)
        name, rng = case("so2_gate")
        gate_p = init_so2_gate({}, "gate", layout, rng)
        yield name, rng, (lambda lv: project(
            so2_gate(So2Features(layout, lv), gate_p, "gate").blocks, cots)), shapes(layout)
        name, rng = case("so2_layernorm")
        ln_p = init_so2_layernorm({}, "ln", layout)
        yield name, rng, (lambda lv: project(
            so2_layernorm(So2Features(layout, lv), ln_p, "ln").blocks, cots)), shapes(layout)
        pair_cot = np.random.default_rng(9).normal(size=(3, 2))
        name, rng = case("so2_tp_pair")
        yield name, rng, (lambda lv: sum_entries(ad.mul(
            so2_tp_pair(lv[0], 2, lv[1], 1, -1)[0], pair_cot))), [(3, 2), (3, 2)]
        ucots = [np.random.default_rng(m + 20).normal(size=uni.block_shape(m))
                 for m in uni.indices]
        for v in (2, 3, 4):   # the one input is every factor
            name, rng = case(f"so2_tp_contract/v{v}")
            tp_w = [rng.normal(size=3) for _ in enumerate_tp_paths(2, v)]
            yield name, rng, (lambda lv, v=v, tp_w=tp_w: project(
                so2_tp_contract(So2Features(uni, lv), v, tp_w).blocks, ucots)), shapes(uni)
        name, rng = case("so2_ffn")
        ffn_p = init_so2_ffn({}, "ffn", layout, uni, layout, rng)
        yield name, rng, (lambda lv: project(
            so2_ffn(So2Features(layout, lv[:3]), So2Features(layout, lv[3:6]),
                    ffn_p, "ffn").blocks, cots)), shapes(layout) * 2
        rcots = [np.random.default_rng(m + 40).normal(size=reg.block_shape(m))
                 for m in reg.indices]
        name, rng = case("to_local")
        to_frame = frame_from_direction(random_unit_vector(rng), 2)
        yield name, rng, (lambda lv: project(
            to_local(to_frame, So3Features(so3, lv)).blocks, rcots)), shapes(so3)
        scots = [np.random.default_rng(m + 60).normal(size=so3.block_shape(m))
                 for m in so3.indices]
        name, rng = case("from_local")
        from_frame = frame_from_direction(random_unit_vector(rng), 2)
        yield name, rng, (lambda lv: project(
            from_local(from_frame, So2Features(reg, lv), so3).blocks, scots)), shapes(reg)
        bcot = np.random.default_rng(70).normal(size=(3, 3))
        name, rng = case("expansion")
        yield name, rng, (lambda lv: sum_entries(ad.mul(expansion(
            So3Features(so3, lv[:3]), {l3: lv[3 + l3] for l3 in range(3)},
            1, 1), bcot))), shapes(so3) + [(2,), (2,), (2,)]
        tcots = {l: np.random.default_rng(l + 80).normal(size=(2, 2 * l + 1))
                 for l in (0, 1, 2)}
        name, rng = case("so3_tensor_product")
        sh = real_spherical_harmonics(2, random_unit_vector(rng))
        yield name, rng, (lambda lv: project(
            so3_tensor_product(So3Features(so3, lv[:3]), sh,
                               dict(zip(tp_paths, lv[3:]))).blocks,
            [tcots[l] for l in (0, 1, 2)])), shapes(so3) + [(2,)] * len(tp_paths)

    results = {}
    for name, rng, loss_of, arg_shapes in op_cases():
        worst = 0.0
        for _ in range(20):
            arrays = [rng.normal(size=shape) for shape in arg_shapes]
            worst = max(worst, directional_vjp_check(loss_of, arrays, rng))
        results[name] = worst
    bad = {k: v for k, v in results.items() if v >= 1e-5}
    detail = ", ".join(f"{k} {v:.1e}" for k, v in results.items())
    conclude(7, "gradient-contract", not bad, detail)


def test_08_fit_demo():
    """3-atom synthetic target: windowed MAE strictly decreases per 100
    steps, final MAE < 1e-3 within 2000 steps, deterministic, < 5 min."""
    positions = np.array([[0.0, 0.0, 0.0], [1.8, 0.3, 0.1], [0.5, 1.9, -0.4]])
    graph = build_graph([1, 1, 1], positions, cutoff=15.0)
    config = default_fit_config(graph)
    target, _ = gen_synthetic_target(graph, seed=11, config=config)
    t0 = time.perf_counter()
    losses, _ = fit_demo(graph, target, steps=2000, seed=1, config=config)
    elapsed = time.perf_counter() - t0
    windows = losses[:-1].reshape(20, 100).mean(axis=1)
    monotone = bool(np.all(np.diff(windows) < 0.0))
    final = float(losses[-1])
    ok = monotone and final < 1e-3 and elapsed < 300.0
    conclude(8, "fit-demo", ok,
             f"final MAE {final:.3e} < 1e-3; windowed means strictly "
             f"decreasing: {monotone}; {elapsed:.0f} s")


def test_09_eigensolver_and_metrics():
    """Residual and S-orthonormality below 1e-8 for 50 random pairs with
    dimension <= 64; metrics fixed point is exactly zero with cosine 1."""
    rng = stream(109, "acceptance-eig")
    worst_res = worst_orth = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 65))
        M = rng.normal(size=(n, n))
        H = 0.5 * (M + M.T)
        A = rng.normal(size=(n, n))
        S = A @ A.T + n * np.eye(n)
        eigvals, C = generalized_eigensolve(H, S)
        worst_res = max(worst_res, float(np.max(np.abs(
            H @ C - S @ C @ np.diag(eigvals)))))
        worst_orth = max(worst_orth, float(np.max(np.abs(
            C.T @ S @ C - np.eye(n)))))
    from so2frames.hamiltonian import BlockMatrix, layout_from_degrees
    layout = layout_from_degrees([(0, 0, 1), (0, 1)])
    M = rng.normal(size=(layout.dim, layout.dim))
    Hb = BlockMatrix(0.5 * (M + M.T), layout)
    fixed = metrics(Hb, Hb, None, 3)
    exact = (fixed["mae_diag"] == 0.0 and fixed["mae_offdiag"] == 0.0
             and fixed["mae_all"] == 0.0 and fixed["mae_eps"] == 0.0
             and fixed["cosine_psi"] == 1.0)
    ok = worst_res < 1e-8 and worst_orth < 1e-8 and exact
    conclude(9, "eigensolver", ok,
             f"max residual {worst_res:.3e}, max S-orthonormality error "
             f"{worst_orth:.3e} over 50 pairs; metrics fixed point exact: {exact}")


def test_10_report_determinism(tmp_path):
    """check-equiv and bench reports are bit-identical across two runs
    with the same seed."""
    mol = tmp_path / "mol.json"
    assert main(["gen", "--seed", "12", "--n-atoms", "3", "--out", str(mol)]) == 0
    pairs = []
    for tag in ("a", "b"):
        eq = tmp_path / f"eq_{tag}.json"
        be = tmp_path / f"be_{tag}.json"
        assert main(["check-equiv", str(mol), "--trials", "5", "--seed", "3",
                     "--json", "--out", str(eq)]) == 0
        assert main(["bench", "--lmax-range", "2:8", "--mmax-range", "2:10",
                     "--seed", "3", "--json", "--out", str(be)]) == 0
        pairs.append((eq.read_bytes(), be.read_bytes()))
    ok = pairs[0] == pairs[1]
    conclude(10, "report-determinism", ok,
             f"check-equiv bytes equal: {pairs[0][0] == pairs[1][0]}; "
             f"bench bytes equal: {pairs[0][1] == pairs[1][1]}")
