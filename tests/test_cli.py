import json
import subprocess
import sys

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

    def test_max_outer_exit_one(self, capsys):
        code = main(["solve", SCALAR, "--algorithm", "single",
                     "--lambda", "0.3", "--k", "4", "--max-outer", "2"])
        assert code == 1

    def test_bad_file_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["solve", str(bad), "--algorithm", "single"])
        assert code == 2

    def test_relaxed_rule_accepts_wider_lambda(self, capsys):
        code = main(["solve", SCALAR, "--algorithm", "single",
                     "--lambda", "0.8", "--k", "8", "--rule", "relaxed"])
        assert code == 0

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
