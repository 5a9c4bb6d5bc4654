import json
import os

import numpy as np
import pytest

from so2frames.cli import main
from so2frames.graph import graph_from_json, sample_molecule
from so2frames.harness import bench, brute_force_pair_paths, check_equivariance
from so2frames.hamiltonian import matrix_loads, read_matrix
from so2frames.model import default_fit_config, init_params
from so2frames.so2ops import enumerate_tp_paths


@pytest.fixture
def molecule_file(tmp_path):
    path = tmp_path / "mol.json"
    code = main(["gen", "--seed", "7", "--n-atoms", "3", "--out", str(path)])
    assert code == 0
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
        assert {(e.i, e.j) for e in graph.edges} == {(0, 1), (1, 0)}

    def test_min_dist_respected(self):
        graph = sample_molecule(5, 6, [1], 1.3, 15.0)
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.linalg.norm(graph.positions[i] - graph.positions[j]) >= 1.3

    def test_embedded_targets_present(self, molecule_file):
        doc = json.loads(open(molecule_file).read())
        assert "hamiltonian" in doc and "overlap" in doc
        H = np.array(doc["hamiltonian"])
        assert np.max(np.abs(H - H.T)) < 1e-12

    def test_impossible_packing_fails(self):
        with pytest.raises(RuntimeError):
            sample_molecule(0, 200, [1], 5.0, 15.0, max_tries=300)


class TestCheckEquiv:
    def test_untrained_model_passes(self, molecule_file):
        graph = graph_from_json(open(molecule_file).read())
        config = default_fit_config(graph)
        params = init_params(config)
        report = check_equivariance(graph, params, config, trials=6, seed=1)
        assert report.passed
        assert report.checks["block_equivariance"]["max_error"] < 1e-9

    def test_corrupted_wigner_cache_fails(self, molecule_file):
        graph = graph_from_json(open(molecule_file).read())
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


class TestFitCli:
    def test_zero_steps_checkpoint_equals_init(self, molecule_file, tmp_path):
        from so2frames.model import checkpoint_loads
        from dataclasses import replace

        ckpt = tmp_path / "ckpt.json"
        code = main(["fit", molecule_file, "--steps", "0", "--seed", "5",
                     "--out-checkpoint", str(ckpt)])
        assert code == 0
        config, params = checkpoint_loads(ckpt.read_text())
        graph = graph_from_json(open(molecule_file).read())
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

        graph = graph_from_json(open(molecule_file).read())
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

    def test_nan_coordinates(self, tmp_path, capsys):
        mol = self._molecule(tmp_path, '{"z": 1, "pos": [0.0, 0.0, 0.0]}, '
                                       '{"z": 1, "pos": [NaN, 0.0, 1.5]}')
        self._assert_usage_error(["check-equiv", mol, "--trials", "1"], capsys)

    def test_element_missing_from_checkpoint(self, molecule_file, tmp_path, capsys):
        from so2frames.model import checkpoint_dumps

        graph = graph_from_json(open(molecule_file).read())
        config = default_fit_config(graph)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(checkpoint_dumps(config, init_params(config)))
        mol = self._molecule(tmp_path, '{"z": 1, "pos": [0.0, 0.0, 0.0]}, '
                                       '{"z": 8, "pos": [0.0, 0.0, 1.8]}')
        self._assert_usage_error(["predict", mol, str(ckpt), "--out",
                                  str(tmp_path / "H.json")], capsys)


class TestIdentityTrial:
    def test_identity_rotation_deviation_exactly_zero(self, molecule_file):
        graph = graph_from_json(open(molecule_file).read())
        config = default_fit_config(graph)
        params = init_params(config)
        report = check_equivariance(graph, params, config, trials=1, seed=0)
        assert report.checks["identity_trial"]["max_error"] == 0.0
        assert report.verdicts["identity_trial"] == "PASS"
