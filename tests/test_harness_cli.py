import copy
import json
import struct
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so2frames.cli import main
from so2frames.graph import build_graph, graph_from_json, sample_molecule
from so2frames.harness import bench, brute_force_pair_paths, check_equivariance
from so2frames.hamiltonian import (BlockMatrix, build_orbital_layout, gen_synthetic_target,
                                   layout_from_degrees, matrix_dumps, metrics, read_matrix,
                                   write_matrix)
from so2frames.model import (ModelConfig, checkpoint_dumps, checkpoint_loads,
                             default_fit_config, init_params, predict)
from so2frames.so2ops import enumerate_tp_paths


@pytest.fixture
def molecule_file(tmp_path):
    path = tmp_path / "mol.json"
    code = main(["gen", "--seed", "7", "--n-atoms", "3", "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture
def checkpoint_file(molecule_file, tmp_path):
    """A fresh checkpoint of the molecule's default fit config."""
    config = default_fit_config(graph_from_json(Path(molecule_file).read_text()))
    path = tmp_path / "ckpt.json"
    path.write_text(checkpoint_dumps(config, init_params(config)))
    return str(path)


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "--seed", "3", "--n-atoms", "4", "--out", str(a)]) == 0
        assert main(["gen", "--seed", "3", "--n-atoms", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_two_atoms_single_symmetric_pair(self):
        graph = sample_molecule(1, 2, [1], 1.4, 15.0)
        assert graph.edges.tolist() == [[0, 1], [1, 0]]

    def test_min_dist_respected(self):
        graph = sample_molecule(5, 6, [1], 1.3, 15.0)
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.linalg.norm(graph.positions[i] - graph.positions[j]) >= 1.3

    def test_embedded_targets_present(self, molecule_file):
        doc = json.loads(Path(molecule_file).read_text())
        assert "hamiltonian" in doc and "overlap" in doc
        H = np.array(doc["hamiltonian"])
        assert np.max(np.abs(H - H.T)) < 1e-12

    def test_impossible_packing_fails(self):
        with pytest.raises(RuntimeError):
            sample_molecule(0, 200, [1], 5.0, 15.0, max_tries=300)


class TestCheckEquiv:
    def test_untrained_model_passes(self, molecule_file):
        graph = graph_from_json(Path(molecule_file).read_text())
        config = default_fit_config(graph)
        params = init_params(config)
        report = check_equivariance(graph, params, config, trials=6, seed=1)
        assert report.passed
        assert report.checks["block_equivariance"]["max_error"] < 1e-9
        assert "edge_set" not in report.checks   # its edges are the same in every copy

    def test_corrupted_wigner_cache_fails(self, molecule_file):
        graph = graph_from_json(Path(molecule_file).read_text())
        config = default_fit_config(graph)
        params = init_params(config)
        report = check_equivariance(graph, params, config, trials=4, seed=1,
                                    corrupt_wigner=True)
        assert not report.passed

    def test_cli_exit_codes(self, molecule_file, tmp_path):
        assert main(["check-equiv", molecule_file, "--trials", "3"]) == 0
        assert main(["check-equiv", molecule_file, "--trials", "3",
                     "--corrupt-wigner"]) == 1
        assert main(["check-equiv", str(tmp_path / "missing.json")]) == 2

    def test_cli_corrupt_wigner_without_degree_1(self, tmp_path, capsys):
        # frames built at l_max 0 hold no degree-1 rotation for the flag to corrupt
        mol = tmp_path / "mol.json"
        assert main(["gen", "--n-atoms", "2", "--out", str(mol)]) == 0
        capsys.readouterr()
        assert main(["check-equiv", str(mol), "--lmax", "0", "--corrupt-wigner"]) == 2
        err = capsys.readouterr().err
        assert "--corrupt-wigner" in err and "degree 1" in err

    def test_cli_config_with_degree_gap(self, molecule_file, tmp_path, capsys):
        # node irreps without degree 1 still give a full, equivariant model
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            ModelConfig(node_irreps="8x0e+4x2e", elements=(1,)).to_json_obj()))
        capsys.readouterr()
        assert main(["check-equiv", molecule_file, "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] block_equivariance" in out and "tolerance=1.000e-09" in out

    def test_bond_at_the_cutoff_changes_the_edge_set(self, tmp_path, capsys):
        # two H atoms exactly a cutoff apart: some rotated copies lose the
        # bond, and the report says so instead of comparing other edges
        u = np.array([-0.6, 0.7, 0.3])
        mol = tmp_path / "mol.json"
        mol.write_text(build_graph([1, 1], [[0.0, 0.0, 0.0], 5.3 * u / np.linalg.norm(u)],
                                   5.3).to_json())
        capsys.readouterr()
        assert main(["check-equiv", str(mol), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["edge_set"] == "FAIL"
        assert report["checks"]["edge_set"]["edges"] == [[0, 1], [1, 0]]
        assert 1 <= report["checks"]["edge_set"]["trials"] < 20
        assert main(["check-equiv", str(mol)]) == 1
        assert "[FAIL] edge_set: edges=[(0, 1), (1, 0)]" in capsys.readouterr().out

    def test_report_bit_identical_across_runs(self, molecule_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code = main(["check-equiv", molecule_file, "--trials", "4",
                         "--seed", "9", "--json", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_slopes_and_counts(self):
        report = bench(l_range=range(2, 9), m_range=range(2, 11), seed=0)
        assert report.passed
        assert 5.0 <= report.checks["so3_tp_slope"]["slope"] <= 6.5
        assert 2.5 <= report.checks["rotation_so2linear_slope"]["slope"] <= 3.5

    @pytest.mark.parametrize("kwargs, name", [({"repeats": 0}, "repeats"),
                                              ({"l_range": range(0, 4)}, "l_range"),
                                              ({"m_range": range(0, 3)}, "m_range")],
                             ids=["zero-repeats", "l-range-from-zero", "m-range-from-zero"])
    def test_values_below_one_rejected(self, kwargs, name):
        # no count and no logarithm of zero reaches the slope fits
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
            bench(**kwargs)

    def test_path_count_matches_brute_force(self):
        for m in range(0, 5):
            assert len(enumerate_tp_paths(m, 2)) == brute_force_pair_paths(m)

    def test_report_bit_identical_across_runs(self, tmp_path):
        # narrow ranges keep this fast; verdicts may be FAIL there, the
        # property under test is that the artifact is reproducible
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        codes = []
        for out in (a, b):
            codes.append(main(["bench", "--lmax-range", "2:5", "--mmax-range",
                               "2:6", "--seed", "4", "--json", "--out", str(out)]))
        assert codes[0] == codes[1] and codes[0] in (0, 1)
        assert a.read_bytes() == b.read_bytes()


class TestProfile:
    STAGES = ("prepare_graph", "predict", "taped")

    def test_ladder_keys(self, tmp_path, capsys):
        out = tmp_path / "ladder.json"
        assert main(["profile", "--atoms", "3", "--repeats", "1", "--out", str(out)]) == 0
        ladder = json.loads(out.read_text())
        assert set(ladder) == {"molecules", "configs", "repeats", "threads", "rows"}
        assert ladder["repeats"] == 1 and set(ladder["configs"]) == {"fit", "lmax4"}
        assert set(ladder["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS"}
        rows = ladder["rows"]
        assert [(row["atoms"], row["edges"], row["config"]) for row in rows] == [
            (3, 6, "fit"), (3, 6, "lmax4")]
        for row in rows:
            assert set(row) == {"atoms", "edges", "config", *self.STAGES, "op_counts",
                                "tape_nodes", "tape_bytes", "backward_peak_bytes"}
            for stage in self.STAGES:   # one repeat has no spread
                assert row[stage]["median_ms"] > 0.0 and row[stage]["iqr_ms"] == 0.0
            assert row["tape_nodes"] > 0 and 0 < row["tape_bytes"] < row["backward_peak_bytes"]
        # the multiplies of one predict, as TestOpCounts and the digests count them
        assert rows[0]["op_counts"] == {"frame_rotation": 1620, "so2_linear": 12120,
                                        "so2_tp": 1704}
        assert capsys.readouterr().out.count(" atoms ") == 2

    @pytest.mark.parametrize("flags", [["--atoms", "0"], ["--atoms", "3,x"], ["--atoms", ""],
                                       ["--repeats", "0"]])
    def test_bad_sizes_and_repeats_exit_2(self, flags, capsys):
        assert main(["profile", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestFitCli:
    def test_zero_steps_checkpoint_equals_init(self, molecule_file, tmp_path):
        from so2frames.model import checkpoint_loads
        from dataclasses import replace

        ckpt = tmp_path / "ckpt.json"
        code = main(["fit", molecule_file, "--steps", "0", "--seed", "5",
                     "--out-checkpoint", str(ckpt)])
        assert code == 0
        config, params = checkpoint_loads(ckpt.read_text())
        graph = graph_from_json(Path(molecule_file).read_text())
        fresh = init_params(replace(default_fit_config(graph), seed=5))
        assert sorted(params) == sorted(fresh)
        for k in params:
            assert np.array_equal(params[k], fresh[k])

    def test_reproducible_losses(self, molecule_file, tmp_path):
        outs = []
        for tag in ("x", "y"):
            ckpt = tmp_path / f"{tag}.json"
            csv = tmp_path / f"{tag}.csv"
            code = main(["fit", molecule_file, "--steps", "6", "--seed", "2",
                         "--out-checkpoint", str(ckpt), "--out-losses", str(csv)])
            assert code == 0
            outs.append((ckpt.read_bytes(), csv.read_bytes()))
        assert outs[0] == outs[1]

    def test_losses_finite(self, molecule_file, tmp_path):
        csv = tmp_path / "l.csv"
        main(["fit", molecule_file, "--steps", "4", "--seed", "0",
              "--out-checkpoint", str(tmp_path / "c.json"), "--out-losses", str(csv)])
        rows = csv.read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert len(values) == 5
        assert all(np.isfinite(values))


class TestPredictMetricsCli:
    def test_roundtrip_matches_in_process(self, molecule_file, tmp_path, capsys):
        from so2frames.hamiltonian import BlockMatrix, build_orbital_layout, metrics
        from so2frames.model import checkpoint_loads, predict

        ckpt = tmp_path / "ckpt.json"
        main(["fit", molecule_file, "--steps", "2", "--seed", "1",
              "--out-checkpoint", str(ckpt)])
        pred_path = tmp_path / "H_pred.json"
        assert main(["predict", molecule_file, str(ckpt), "--out", str(pred_path)]) == 0
        capsys.readouterr()

        graph = graph_from_json(Path(molecule_file).read_text())
        config, params = checkpoint_loads(ckpt.read_text())
        layout = build_orbital_layout(graph.numbers, config.basis_map)
        true_path = tmp_path / "H_true.json"
        from so2frames.hamiltonian import matrix_dumps
        true_path.write_text(matrix_dumps(BlockMatrix(graph.hamiltonian, layout)))

        assert main(["metrics", str(pred_path), str(true_path), "--n-occ", "3",
                     "--json"]) == 0
        cli_result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        in_process = metrics(predict(graph, params, config),
                             BlockMatrix(graph.hamiltonian, layout), None, 3)
        assert cli_result == {k: float(v) for k, v in in_process.items()}

    def test_overlap_matrix(self, tmp_path, capsys):
        # --overlap sets S of the generalized eigenproblem; -I is refused
        graph = sample_molecule(4, 3, [1, 6, 8], 1.4, 15.0)
        config = default_fit_config(graph)
        H, S = gen_synthetic_target(graph, seed=5, config=config, spd_overlap=True)
        pred = predict(graph, init_params(config), config)
        minus = BlockMatrix(-np.eye(S.array.shape[0]), S.layout)
        paths = {}
        for name, matrix in {"pred": pred, "true": H, "S": S, "minus": minus}.items():
            paths[name] = str(tmp_path / f"{name}.json")
            write_matrix(paths[name], matrix)
        argv = ["metrics", paths["pred"], paths["true"], "--json"]
        assert main(argv + ["--overlap", paths["S"]]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(metrics(pred, H, S), sort_keys=True) + "\n"
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["mae_eps"] != json.loads(out)["mae_eps"]
        assert main(argv + ["--overlap", paths["minus"]]) == 2
        assert "not positive definite" in capsys.readouterr().err

    def test_binary_format_roundtrip(self, molecule_file, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        main(["fit", molecule_file, "--steps", "1", "--seed", "1",
              "--out-checkpoint", str(ckpt)])
        json_path = tmp_path / "H.json"
        bin_path = tmp_path / "H.bin"
        assert main(["predict", molecule_file, str(ckpt), "--out", str(json_path)]) == 0
        assert main(["predict", molecule_file, str(ckpt), "--out", str(bin_path)]) == 0
        assert np.array_equal(read_matrix(str(json_path)).array,
                              read_matrix(str(bin_path)).array)

    def test_layout_mismatch_exit_code(self, molecule_file, tmp_path, capsys):
        from so2frames.hamiltonian import BlockMatrix, matrix_dumps, layout_from_degrees

        small = tmp_path / "small.json"
        small.write_text(matrix_dumps(BlockMatrix(np.eye(2),
                                                  layout_from_degrees([(0,), (0,)]))))
        ckpt = tmp_path / "ckpt.json"
        main(["fit", molecule_file, "--steps", "1", "--seed", "1",
              "--out-checkpoint", str(ckpt)])
        pred_path = tmp_path / "H_pred.json"
        main(["predict", molecule_file, str(ckpt), "--out", str(pred_path)])
        assert main(["metrics", str(pred_path), str(small)]) == 2


def _hydrogen_basis_under(key: str) -> dict:
    """The default config's basis with element 1's entry under ``key``."""
    basis = ModelConfig().to_json_obj()["basis"]
    return {"basis": {key if z == "1" else z: orbs for z, orbs in basis.items()}}


class TestBadInput:
    """Invalid input gets ``error: ...`` on stderr and exit code 2."""

    def _molecule(self, tmp_path, atoms_json):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [%s], "cutoff": 15.0}' % atoms_json)
        return str(path)

    def _assert_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_coincident_atoms(self, tmp_path, capsys):
        mol = self._molecule(tmp_path, '{"z": 1, "pos": [0.0, 0.0, 0.0]}, '
                                       '{"z": 1, "pos": [0.0, 0.0, 0.0]}')
        self._assert_usage_error(["check-equiv", mol, "--trials", "1"], capsys)

    @pytest.mark.parametrize("text", [
        '{"atoms": [{"z": 1.7, "pos": [0.0, 0.0, 0.0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}]}',
        '{"atoms": [{"z": true, "pos": [0.0, 0.0, 0.0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}]}',
        '{"atoms": [{"z": 1, "pos": [0.0, 0.0, 0.0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}], '
        '"cutoff": "15"}',
        '[{"z": 1, "pos": [0.0, 0.0, 0.0]}]',
        '{"atoms": [[1, 0.0, 0.0, 0.0]]}',
        # H2 has 10 orbital rows
        '{"atoms": [{"z": 1, "pos": [0.0, 0.0, 0.0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}], '
        '"hamiltonian": [[0.1]]}',
        '{"atoms": [{"z": 1, "pos": [true, 0, 0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}]}',
        '{"atoms": [{"z": 1, "pos": ["1", 0, 0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}]}',
        '{"atoms": [{"z": 1, "pos": [0.0, 0.0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}]}',
        '{"atoms": [{"z": %d, "pos": [0.0, 0.0, 0.0]}]}' % 10 ** 30,
        # the right shape, so only the NaN is wrong
        json.dumps({"atoms": [{"z": 1, "pos": [0.0, 0.0, 0.0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}],
                    "hamiltonian": [[float("nan")] * 10] + [[0.0] * 10] * 9}),
    ], ids=["fractional-z", "boolean-z", "string-cutoff", "top-level-list", "atom-not-object",
            "hamiltonian-shape", "boolean-pos", "string-pos", "two-element-pos", "huge-z",
            "nan-hamiltonian"])
    def test_malformed_molecule_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        self._assert_usage_error(["fit", str(path), "--steps", "1",
                                  "--out-checkpoint", str(tmp_path / "ckpt.json")], capsys)

    def test_empty_molecule(self, tmp_path, capsys):
        # the error names the empty atom list, not the shape of its positions
        mol = self._molecule(tmp_path, "")
        assert main(["check-equiv", mol, "--trials", "1"]) == 2
        assert "empty atom list" in capsys.readouterr().err

    def test_nan_coordinates(self, tmp_path, capsys):
        mol = self._molecule(tmp_path, '{"z": 1, "pos": [0.0, 0.0, 0.0]}, '
                                       '{"z": 1, "pos": [NaN, 0.0, 1.5]}')
        self._assert_usage_error(["check-equiv", mol, "--trials", "1"], capsys)

    @pytest.mark.parametrize("cutoff", ["NaN", "0.0", "-2.0"])
    def test_bad_cutoff(self, tmp_path, capsys, cutoff):
        # a NaN or non-positive cutoff would silently leave every atom isolated
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [{"z": 1, "pos": [0.0, 0.0, 0.0]}, '
                        '{"z": 1, "pos": [0.0, 0.0, 1.5]}], "cutoff": %s}' % cutoff)
        self._assert_usage_error(["check-equiv", str(path), "--trials", "1"], capsys)

    @pytest.mark.parametrize("damage", ["trailing", "truncated", "negative"])
    def test_malformed_binary_matrix(self, tmp_path, capsys, damage):
        true = tmp_path / "H.json"
        write_matrix(str(true), BlockMatrix(np.eye(3), layout_from_degrees([(0,), (0,), (0,)])))
        good = tmp_path / "H.bin"
        write_matrix(str(good), BlockMatrix(np.eye(3), None))
        assert main(["metrics", str(good), str(true)]) == 0
        blob = good.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes({"trailing": blob + bytes(8), "truncated": blob[:-8],
                         "negative": blob[:8] + struct.pack("<q", -1)}[damage])
        capsys.readouterr()
        assert main(["metrics", str(bad), str(true)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bytes" in err

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_binary_matrix(self, tmp_path, capsys, entry):
        # the binary reader checks its entries as the JSON reader does, so
        # the error names the file rather than failing inside the eigensolver
        true = tmp_path / "H.json"
        write_matrix(str(true), BlockMatrix(np.eye(3), layout_from_degrees([(0,), (0,), (0,)])))
        bad = tmp_path / "bad.bin"
        data = np.eye(3)
        data[1, 2] = entry
        write_matrix(str(bad), BlockMatrix(data, None))
        assert main(["metrics", str(bad), str(true)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "finite" in err

    @pytest.mark.parametrize("doc", [
        {"layout": [[0], [], [0]], "data": [[1.0, 0.1], [0.1, 2.0]]},
        {"layout": [[0, 1]], "data": [[1.0, 0.1], [0.1, 2.0]]},
        [[1.0, 0.1], [0.1, 2.0]],
        {"layout": 2, "data": [[1.0, 0.1], [0.1, 2.0]]},
        {"layout": [[0], [0]]},
        {"layout": [0, 0], "data": [[1.0, 0.1], [0.1, 2.0]]},
        {"atoms": [{"z": 1, "pos": [0.0, 0.0, 0.0]}, {"z": 1, "pos": [0.0, 0.0, 1.4]}]},
        # JSON false is not degree 0: the layout would fit the 2 x 2 reference
        {"layout": [[False], [False]], "data": [[1.0, 0.1], [0.1, 2.0]]},
    ], ids=["atom-without-orbitals", "layout-dim-mismatch", "matrix-is-list", "integer-layout",
            "no-data", "layout-of-integers", "molecule-file", "layout-of-booleans"])
    def test_malformed_matrix_layout(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        # the reference carries no layout, so the bad one is the only one
        true = tmp_path / "H.bin"
        write_matrix(str(true), BlockMatrix(np.eye(2), None))
        self._assert_usage_error(["metrics", str(bad), str(true)], capsys)

    @pytest.mark.parametrize("flags", [["--steps", "-1"], ["--lr", "nan"], ["--lr", "0"],
                                       ["--lr", "-0.001"], ["--lr", "inf"]],
                             ids=["negative-steps", "nan-lr", "zero-lr", "negative-lr", "inf-lr"])
    def test_bad_fit_steps_or_learning_rate(self, molecule_file, tmp_path, capsys, flags):
        self._assert_usage_error(["fit", molecule_file, "--out-checkpoint",
                                  str(tmp_path / "ckpt.json")] + flags, capsys)

    @pytest.mark.parametrize("argv, named", [
        (["gen", "--n-atoms", "-2"], "n_atoms"),
        (["gen", "--n-atoms", "0"], "n_atoms"),
        (["gen", "--elements", "99"], "element 99"),
        (["gen", "--n-atoms", "200", "--min-dist", "5"], "min_dist"),
        (["gen", "--n-atoms", "2", "--min-dist", "nan"], "min_dist"),
        (["gen", "--cutoff", "-1"], "cutoff"),
        (["gen", "--cutoff", "0"], "cutoff"),
        (["gen", "--elements", "abc"], "--elements"),
        (["bench", "--lmax-range", "5:2"], "lmax-range"),
        (["bench", "--mmax-range", "4:4"], "mmax-range"),
        (["bench", "--repeats", "0"], "repeats"),
        (["bench", "--lmax-range", "0:3"], "lmax-range"),
        (["bench", "--mmax-range", "0:2"], "mmax-range"),
    ], ids=["negative-atoms", "zero-atoms", "element-without-basis", "impossible-packing",
            "nan-min-dist", "negative-cutoff", "zero-cutoff", "non-integer-elements",
            "descending-range", "one-point-range", "zero-repeats", "lmax-range-from-zero",
            "mmax-range-from-zero"])
    def test_bad_gen_or_bench_flags(self, tmp_path, capfd, argv, named):
        # capfd also sees what LAPACK writes to file descriptor 2 (a slope
        # fit on the logarithm of 0 prints DLASCL lines there)
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: ")
        assert named in err   # the flag, or the field it sets

    def test_gen_cutoff_too_small_for_two_atoms(self, tmp_path, capfd):
        # the atoms are placed in a cube of side 0.6 * cutoff; at cutoff 1
        # its diagonal, 1.04, is shorter than the default min_dist of 1.4,
        # so the pair is refused before any placement is tried
        start = time.perf_counter()
        code = main(["gen", "--n-atoms", "2", "--cutoff", "1", "--out", str(tmp_path / "m.json")])
        elapsed = time.perf_counter() - start
        err = capfd.readouterr().err
        assert code == 2 and elapsed < 1.0
        assert err.startswith("error: ") and "cutoff" in err and "min_dist" in err

    @pytest.mark.parametrize("flag, text", [("--lmax-range", "3"), ("--lmax-range", "a:b"),
                                            ("--mmax-range", "1:2:3")],
                             ids=["one-end", "not-integers", "three-ends"])
    def test_malformed_bench_range(self, tmp_path, capsys, flag, text):
        assert main(["bench", flag, text, "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {text} ") and "lo:hi" in err

    @pytest.mark.parametrize("flags", [["--layers", "-1"], ["--trials", "0"],
                                       ["--trials", "-3"], ["--tolerance", "nan"],
                                       ["--tolerance=-1e-9"], ["--tolerance", "inf"]],
                             ids=["negative-layers", "zero-trials", "negative-trials",
                                  "nan-tolerance", "negative-tolerance", "inf-tolerance"])
    def test_bad_check_equiv_flags(self, molecule_file, capsys, flags):
        # a verdict needs at least one trial against a finite bound
        self._assert_usage_error(["check-equiv", molecule_file] + flags, capsys)

    @pytest.mark.parametrize("fields", [
        {"node_irreps": "4x1e+2x2e"}, {"invariant_width": 0}, {"rbf_size": 0},
        {"elements": [1, 8, 16]}, {"elements": [1, 1, 8]},
        {"tp_arity": 2.5}, {"layers": "2"}, {"layers": 1.5}, {"node_irreps": 5},
        {"tp_channels": 2.5}, {"basis": {**ModelConfig().to_json_obj()["basis"], "1": [0.5]}},
        {"elements": [1.0, 6]}, {"elements": 5}, {"basis": [1]},
        {"basis": {**ModelConfig().to_json_obj()["basis"], "1": 5}},
        {"basis": {**ModelConfig().to_json_obj()["basis"], "01": ["a"]}},
    ], ids=["no-scalar-channels", "zero-invariant-width", "zero-rbf-size",
            "element-without-basis", "repeated-element", "fractional-tp-arity",
            "string-layers", "fractional-layers", "integer-node-irreps",
            "fractional-tp-channels", "fractional-basis-degree", "float-element",
            "scalar-elements", "basis-list", "scalar-basis-entry",
            "repeated-basis-key"])
    def test_invalid_config(self, molecule_file, tmp_path, capsys, fields):
        # rejected when the config is read, before any model is built
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**ModelConfig().to_json_obj(), **fields}))
        self._assert_usage_error(["check-equiv", molecule_file, "--config", str(config),
                                  "--trials", "1"], capsys)

    @pytest.mark.parametrize("fields, field", [
        ({"basis": {**ModelConfig().to_json_obj()["basis"], "01": [0, 0, 1]}}, "basis"),
        ({"basis": {**ModelConfig().to_json_obj()["basis"], "abc": [0]}}, "basis"),
        ({"basis": {**ModelConfig().to_json_obj()["basis"], "0": [0]}}, "basis"),
        ({"basis": {**ModelConfig().to_json_obj()["basis"], "119": [0]}}, "basis"),
        ({"elements": [1, 0], "basis": {"1": [0], "0": [0]}}, "elements"),
        ({"elements": [1, -3], "basis": {"1": [0], "-3": [0]}}, "elements"),
        ({"elements": [1, 500], "basis": {"1": [0], "500": [0]}}, "elements"),
        (_hydrogen_basis_under("+1"), "basis"),
        (_hydrogen_basis_under(" 1"), "basis"),
        (_hydrogen_basis_under("\u0661"), "basis"),
        (_hydrogen_basis_under("01"), "basis"),
        ({"basis": {**ModelConfig().to_json_obj()["basis"], "1_0": [0]}}, "basis"),
    ], ids=["basis-key-1-and-01", "basis-key-not-a-number", "basis-key-zero",
            "basis-key-119", "element-zero", "element-negative", "element-500",
            "basis-key-plus-1", "basis-key-space-1", "basis-key-arabic-indic-1",
            "basis-key-lone-01", "basis-key-1_0"])
    def test_invalid_config_atomic_numbers(self, molecule_file, tmp_path, capsys, fields,
                                           field):
        # elements and basis keys are atomic numbers in 1..118, as in a
        # molecule file, and the basis names each element once
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**ModelConfig().to_json_obj(), **fields}))
        assert main(["check-equiv", molecule_file, "--config", str(config),
                     "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("damage", ["missing", "mis-shaped", "unknown"])
    def test_checkpoint_parameter_mismatch(self, molecule_file, tmp_path, capsys, damage):
        # a checkpoint must hold exactly the parameters its config needs,
        # with their shapes; the error names the first that differs
        config = default_fit_config(graph_from_json(Path(molecule_file).read_text()))
        doc = json.loads(checkpoint_dumps(config, init_params(config)))
        name = {"missing": "L0/ffn/gate/mlp/2/b", "mis-shaped": "L0/ln_node/1/g",
                "unknown": "L0/extra/w"}[damage]
        if damage == "missing":
            del doc["params"][name]
        else:
            doc["params"][name] = [0.5] * 3
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        for argv in (["predict", molecule_file, str(ckpt), "--out", str(tmp_path / "H.json")],
                     ["check-equiv", molecule_file, str(ckpt), "--trials", "1"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and name in err
        with pytest.raises(ValueError, match=name):
            checkpoint_loads(json.dumps(doc))

    def test_tensor_product_too_large_to_build(self, molecule_file, checkpoint_file, tmp_path,
                                               capsys):
        # 1.03e9 fusion paths at l_max 4: refused when read, not enumerated
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**ModelConfig().to_json_obj(), "tp_arity": 12}))
        doc = json.loads(Path(checkpoint_file).read_text())
        doc["config"] = {**doc["config"], "node_irreps": ModelConfig().node_irreps,
                         "tp_arity": 12}
        ckpt = tmp_path / "ckpt12.json"
        ckpt.write_text(json.dumps(doc))
        for argv in (["check-equiv", molecule_file, "--config", str(config)],
                     ["predict", molecule_file, str(ckpt), "--out", str(tmp_path / "H.json")]):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "tp_arity 12" in err

    def test_checkpoint_or_config_not_an_object(self, molecule_file, tmp_path, capsys):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        self._assert_usage_error(["predict", molecule_file, str(listed), "--out",
                                  str(tmp_path / "H.json")], capsys)
        self._assert_usage_error(["check-equiv", molecule_file, "--config", str(listed)], capsys)

    def test_atomic_number_beyond_the_table(self, tmp_path, capsys):
        mol = self._molecule(tmp_path, '{"z": %d, "pos": [0.0, 0.0, 0.0]}' % 10 ** 30)
        self._assert_usage_error(["check-equiv", mol, "--trials", "1"], capsys)

    @pytest.mark.parametrize("flag, value", [("--v", "3"), ("--layers", "2"), ("--lmax", "1"),
                                             ("--cutoff", "5"), ("--config", None)],
                             ids=["v", "layers", "lmax", "cutoff", "config"])
    def test_checkpoint_fixes_the_model(self, molecule_file, checkpoint_file, tmp_path, capsys,
                                        flag, value):
        config = tmp_path / "cfg.json"  # the checkpoint's own config
        config.write_text(json.dumps(json.loads(Path(checkpoint_file).read_text())["config"]))
        assert main(["check-equiv", molecule_file, checkpoint_file, "--trials", "1",
                     flag, value or str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "the checkpoint fixes it" in err

    def test_predict_needs_out(self, molecule_file, checkpoint_file, capsys):
        assert main(["predict", molecule_file, checkpoint_file]) == 2
        assert "required: --out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "--json"], ["fit", "m.json", "--json"], ["fit", "m.json", "--out", "c.json"],
        ["predict", "m.json", "c.json", "--out", "H.json", "--seed", "1"],
        ["predict", "m.json", "c.json", "--out", "H.json", "--json"],
        ["metrics", "a.json", "b.json", "--seed", "1"],
        ["metrics", "a.json", "b.json", "--out", "x.json"],
    ], ids=["gen-json", "fit-json", "fit-out", "predict-seed", "predict-json", "metrics-seed",
            "metrics-out"])
    def test_flags_a_command_does_not_read(self, capsys, argv):
        # argparse rejects these before any file is opened
        assert main(argv) == 2
        assert "usage: " in capsys.readouterr().err

    def test_element_missing_from_checkpoint(self, molecule_file, tmp_path, capsys):
        from so2frames.model import checkpoint_dumps

        graph = graph_from_json(Path(molecule_file).read_text())
        config = default_fit_config(graph)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(checkpoint_dumps(config, init_params(config)))
        mol = self._molecule(tmp_path, '{"z": 1, "pos": [0.0, 0.0, 0.0]}, '
                                       '{"z": 8, "pos": [0.0, 0.0, 1.8]}')
        self._assert_usage_error(["predict", mol, str(ckpt), "--out",
                                  str(tmp_path / "H.json")], capsys)


# JSON trees for the fuzzer.  Integers stay small: a config's integers are
# sizes, and a large one asks for a large model, which costs time and
# memory but raises nothing.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda tree: st.lists(tree, max_size=4) | st.dictionaries(st.text(max_size=4), tree,
                                                              max_size=4),
    max_leaves=10)


@st.composite
def _mutated(draw, doc):
    """``doc`` with one value dropped or replaced by a JSON tree; the value
    lies at the end of a walk of one to five steps down from the root."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for _ in range(draw(st.integers(1, 5))):
        if not isinstance(node, (dict, list)) or not node:
            break
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON)
    return doc


class TestFuzzedFiles:
    """Every input file, valid, damaged or arbitrary JSON, gets exit 0, 1
    or 2 from ``main``, and no exception escapes it."""

    # (the document fuzzed, the command line); {fuzz} is its file
    CASES = [
        ("molecule", ["predict", "{fuzz}", "{checkpoint}", "--out", "{out}"]),
        ("checkpoint", ["predict", "{molecule}", "{fuzz}", "--out", "{out}"]),
        ("molecule", ["check-equiv", "{fuzz}", "--trials", "1"]),
        ("config", ["check-equiv", "{molecule}", "--config", "{fuzz}", "--trials", "1"]),
        ("molecule", ["fit", "{fuzz}", "--steps", "1", "--out-checkpoint", "{out}"]),
        ("matrix", ["metrics", "{fuzz}", "{matrix}"]),
        ("matrix", ["metrics", "{matrix}", "{fuzz}"]),
    ]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """Valid documents of each kind for an H2 molecule, and their files."""
        root = tmp_path_factory.mktemp("fuzz")
        molecule = root / "molecule.json"
        assert main(["gen", "--seed", "7", "--n-atoms", "2", "--out", str(molecule)]) == 0
        graph = graph_from_json(molecule.read_text())
        config = default_fit_config(graph)
        layout = build_orbital_layout(graph.numbers, config.basis_map)
        docs = {"molecule": json.loads(molecule.read_text()),
                "checkpoint": json.loads(checkpoint_dumps(config, init_params(config))),
                "config": config.to_json_obj(),
                "matrix": json.loads(matrix_dumps(BlockMatrix(graph.hamiltonian, layout)))}
        paths = {"fuzz": root / "fuzz.json", "out": root / "out.json"}
        for kind, doc in docs.items():
            paths[kind] = root / f"{kind}.json"
            paths[kind].write_text(json.dumps(doc))
        return docs, paths

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from(CASES), data=st.data())
    def test_no_exception_escapes_main(self, files, case, data):
        docs, paths = files
        kind, argv = case
        doc = data.draw(_JSON | _mutated(docs[kind]))
        paths["fuzz"].write_text(json.dumps(doc))
        assert main([arg.format(**paths) for arg in argv]) in (0, 1, 2)


class TestCheckpointCutoff:
    """predict and check-equiv build the graph at the checkpoint's cutoff,
    not at the molecule file's."""

    def _files(self, tmp_path, distance, file_cutoff):
        mol = tmp_path / "mol.json"
        mol.write_text(build_graph([1, 1], [[0.0, 0.0, 0.0], [0.0, 0.0, distance]],
                                   file_cutoff).to_json())
        config = replace(default_fit_config(graph_from_json(mol.read_text())), cutoff=5.0)
        params = init_params(config)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(checkpoint_dumps(config, params))
        return str(mol), str(ckpt), config, params

    def test_atoms_beyond_checkpoint_cutoff(self, tmp_path):
        mol, ckpt, _, _ = self._files(tmp_path, 6.0, 15.0)
        out = tmp_path / "H.json"
        assert main(["predict", mol, ckpt, "--out", str(out)]) == 0
        H = read_matrix(str(out))
        assert not np.any(H.array[H.layout.atom_slice(0), H.layout.atom_slice(1)])
        assert main(["check-equiv", mol, ckpt, "--trials", "2"]) == 0

    def test_edges_within_checkpoint_cutoff(self, tmp_path):
        mol, ckpt, config, params = self._files(tmp_path, 4.0, 3.0)
        out = tmp_path / "H.bin"
        assert main(["predict", mol, ckpt, "--out", str(out)]) == 0
        graph = build_graph([1, 1], [[0.0, 0.0, 0.0], [0.0, 0.0, 4.0]], 5.0)
        assert read_matrix(str(out)).array.tobytes() == \
            predict(graph, params, config).array.tobytes()


class TestFrameEdgeCases:
    """Molecules whose frames sit on or next to the target axis, or have no
    reference direction at all."""

    def _molecule(self, tmp_path, positions, numbers=None):
        path = tmp_path / "mol.json"
        path.write_text(build_graph(numbers or [1] * len(positions), positions, 15.0).to_json())
        return str(path)

    def test_bond_next_to_minus_z(self, tmp_path):
        # the bond 1 -> 0 points 1e-7 away from -z
        mol = self._molecule(tmp_path, [[0.0, 0.0, 0.0], [1e-7, 0.0, 1.8]])
        assert main(["check-equiv", mol, "--trials", "4"]) == 0
        graph = graph_from_json(Path(mol).read_text())
        config = default_fit_config(graph)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(checkpoint_dumps(config, init_params(config)))
        assert main(["predict", mol, str(ckpt), "--out", str(tmp_path / "H.json")]) == 0

    @pytest.mark.parametrize("positions", [[[0.0, 0.0, 0.0]],
                                           [[0.0, 0.0, 0.0], [0.0, 16.0, 3.0]]],
                             ids=["single-atom", "beyond-cutoff"])
    def test_isolated_atoms_equivariant(self, tmp_path, positions):
        mol = self._molecule(tmp_path, positions, [8] + [1] * (len(positions) - 1))
        graph = graph_from_json(Path(mol).read_text())
        assert len(graph.edges) == 0
        config = default_fit_config(graph)
        report = check_equivariance(graph, init_params(config), config, trials=6, seed=2)
        for name in ("node_track_equivariance", "pair_track_equivariance",
                     "block_equivariance"):
            assert report.checks[name]["max_error"] < 1e-9, name
        assert main(["check-equiv", mol, "--trials", "4"]) == 0

    @pytest.mark.parametrize("numbers, positions", [
        ([8, 1, 1], [[0.0, 0.0, 0.0], [1.8, 0.0, 0.3], [-1.8, 0.0, 0.3]]),
        ([1, 1, 1], [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
        ([1, 1, 1], [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [2.0, 0.0, 0.0]]),
    ], ids=["water", "right-angle", "right-angle-relabelled"])
    def test_tied_nearest_neighbors(self, tmp_path, numbers, positions):
        # atom 0's two nearest neighbors are exactly equidistant
        assert main(["check-equiv", self._molecule(tmp_path, positions, numbers)]) == 0

    def test_unsupported_mmax_is_usage_error(self, molecule_file, tmp_path, capsys):
        # SO(2) orders always run up to l_max: --mmax is no flag, and a
        # checkpoint with another m_max is rejected
        assert main(["check-equiv", molecule_file, "--trials", "1", "--mmax", "1"]) == 2
        assert "unrecognized arguments: --mmax 1" in capsys.readouterr().err
        config = default_fit_config(graph_from_json(Path(molecule_file).read_text()))
        doc = json.loads(checkpoint_dumps(config, init_params(config)))
        doc["config"]["m_max"] = 1
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        assert main(["check-equiv", molecule_file, str(ckpt), "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "m_max 1" in err and "l_max 2" in err


class TestIdentityTrial:
    def test_identity_rotation_deviation_exactly_zero(self, molecule_file):
        graph = graph_from_json(Path(molecule_file).read_text())
        config = default_fit_config(graph)
        params = init_params(config)
        report = check_equivariance(graph, params, config, trials=1, seed=0)
        assert report.checks["identity_trial"]["max_error"] == 0.0
        assert report.verdicts["identity_trial"] == "PASS"
