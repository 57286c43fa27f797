import json
import subprocess
import sys

import numpy as np
import pytest

from csepsolve.cli import main

from conftest import PROBLEM_DIR

SCALAR = str(PROBLEM_DIR / "vi_scalar_1d.json")
HALFLINE = str(PROBLEM_DIR / "vi_halfline_2d.json")


class TestSolve:
    def test_tolerance_exit_zero(self, capsys, tmp_path):
        code = main([
            "solve", SCALAR, "--algorithm", "single",
            "--lambda", "0.3", "--k", "4", "--tol", "1e-8",
            "--trace", str(tmp_path / "t.csv"),
            "--summary", str(tmp_path / "s.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stop_reason: tolerance" in out
        assert (tmp_path / "t.csv").exists()
        assert json.loads((tmp_path / "s.json").read_text())["algorithm"] == "single"

    def test_summary_records_derived_params(self, capsys, tmp_path):
        from csepsolve import derive_default_params, load_problem

        code = main(["solve", SCALAR, "--algorithm", "single",
                     "--summary", str(tmp_path / "s.json")])
        assert code == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        lam, k = derive_default_params(load_problem(SCALAR))
        assert (summary["lam"], summary["k"]) == (lam, k)

    def test_parameter_violation_exit_two(self, capsys):
        code = main(["solve", SCALAR, "--algorithm", "single",
                     "--lambda", "1.0", "--k", "4"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["single", "extragradient", "armijo"])
    @pytest.mark.parametrize("flag", [["--max-outer", "0"], ["--tol", "-1"]])
    def test_bad_tol_or_max_outer_exit_two_for_every_solver(self, capsys, algorithm, flag):
        code = main(["solve", SCALAR, "--algorithm", algorithm, *flag])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_max_outer_exit_one(self, capsys):
        code = main(["solve", SCALAR, "--algorithm", "single",
                     "--lambda", "0.3", "--k", "4", "--max-outer", "2"])
        assert code == 1

    def test_bad_file_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["solve", str(bad), "--algorithm", "single"])
        assert code == 2

    @pytest.mark.parametrize("command", [["solve", "--algorithm", "single"], ["validate"]])
    def test_a_face_that_denotes_the_empty_set_exit_two_naming_it(self, capsys, tmp_path,
                                                                    command):
        path = tmp_path / "empty_face.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "set": {"type": "polyhedron", "cuts": [
                {"normal": [1.0, 0.0], "offset": 1.0},
                {"normal": [0, 0], "offset": -1},
            ]},
            "bifunctions": [{"type": "vi_affine", "M": [[1.0, 0.0], [0.0, 1.0]],
                             "q": [0.0, 0.0]}],
            "x0": [0.0, 0.0],
        }))
        code = main([command[0], str(path), *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert "set.cuts[1]:" in err and "denotes the empty set" in err

    def test_negative_certify_exit_two(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        code = main(["solve", SCALAR, "--algorithm", "single", "--certify", "-3",
                     "--summary", str(summary)])
        assert code == 2
        assert "certify_probes=-3" in capsys.readouterr().err
        assert not summary.exists()

    def test_relaxed_rule_accepts_wider_lambda(self, capsys):
        code = main(["solve", SCALAR, "--algorithm", "single",
                     "--lambda", "0.8", "--k", "8", "--rule", "relaxed"])
        assert code == 0

    def test_inner_nonconvergence_exit_four(self, capsys, tmp_path, monkeypatch):
        import csepsolve.prox as prox_module

        rng = np.random.default_rng(3)
        d = 4
        C = rng.standard_normal((d, d))
        dense_q = C @ C.T
        # both Q are dense, so the two subproblems are solved in one stacked
        # projected-gradient loop; the nearly zero Q_0 converges in 3 steps
        # and the row of Q_1 stops at the cap
        bifunctions = [
            {"type": "affine_quadratic", "P": np.diag([1.0, 2.0, 1.5, 1.0]).tolist(),
             "Q": np.full((d, d), 1e-12).tolist(), "q": [0.0] * d},
            {"type": "affine_quadratic", "P": (dense_q + np.eye(d)).tolist(),
             "Q": dense_q.tolist(), "q": [0.0] * d},
        ]
        path = tmp_path / "dense_aq.json"
        path.write_text(json.dumps({
            "dimension": d,
            "set": {"type": "box", "lower": [-1.0] * d, "upper": [1.0] * d},
            "bifunctions": bifunctions,
            "x0": [0.5] * d,
            "known_solution": {"type": "singleton", "point": [0.0] * d},
        }))
        monkeypatch.setattr(prox_module, "MAX_INNER", 3)
        code = main(["solve", str(path), "--algorithm", "maxsel", "--lambda", "0.05",
                     "--k", "6", "--tol", "0", "--max-outer", "4"])
        captured = capsys.readouterr()
        # the run itself stopped at the outer cap (exit 1 without the
        # unconverged inner solve)
        assert "stop_reason: max_outer" in captured.out
        assert code == 4
        assert ("iteration 1, subproblem 1): projected gradient hit 3 iterations"
                in captured.err)

    def test_exit_codes_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "4 an inner solve stopped at its iteration cap" in help_text

    @pytest.mark.parametrize("algorithm", ["parallel", "maxsel", "sequential"])
    def test_multi_algorithms_on_system(self, capsys, algorithm):
        code = main(["solve", str(PROBLEM_DIR / "csep3_plane_3d.json"),
                     "--algorithm", algorithm, "--lambda", "0.2", "--k", "6"])
        assert code == 0


class TestOracle:
    def test_prints_reference(self, capsys):
        code = main(["oracle", HALFLINE])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reference"] == [0.0, 0.3]


class TestCompare:
    def test_table_and_json(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.json"
        code = main(["compare", SCALAR,
                     "--algorithms", "single,extragradient",
                     "--lambda", "0.3", "--k", "4",
                     "--output", str(out_path)])
        assert code == 0
        table = capsys.readouterr().out
        assert "extragradient" in table
        data = json.loads(out_path.read_text())
        rows = {r["algorithm"]: r for r in data["rows"]}
        assert rows["extragradient"]["prox_per_iteration"] == 2.0
        assert rows["single"]["prox_per_iteration"] == 1.0


class TestValidate:
    def test_report_json(self, capsys):
        code = main(["validate", SCALAR, "--samples", "50"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["samples"] == 50
        assert data["total_violations"] == 0


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "csepsolve", "solve", SCALAR,
         "--algorithm", "single", "--lambda", "0.3", "--k", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "tolerance" in proc.stdout
