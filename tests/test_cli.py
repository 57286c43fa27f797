import json
import math
import subprocess
import sys

import numpy as np
import pytest

from csepsolve.cli import main

from conftest import PROBLEM_DIR

SCALAR = str(PROBLEM_DIR / "vi_scalar_1d.json")
HALFLINE = str(PROBLEM_DIR / "vi_halfline_2d.json")


DIVERGING_PARAMS = ["--lambda", "0.9", "--k", "4", "--rule", "relaxed"]


def diverging_problem(tmp_path, monkeypatch, subgradient=None):
    """A 1-D black-box problem whose first inner solve fails: by default its
    subgradients of +-1e308 send each step across the line until the step
    overflows."""
    import csepsolve.harness as harness_module

    if subgradient is None:
        def subgradient(x, y):
            return np.where(y < 0.0, -1e308, 1e308)

    monkeypatch.setitem(harness_module._BLACKBOX_REGISTRY, "diverging",
                        (lambda x, y: 0.0, subgradient))
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "set": {"type": "whole_space"},
        "bifunctions": [{"type": "blackbox", "name": "diverging", "c1": 0.25, "c2": 0.25}],
        "x0": [0.5],
    }))
    return str(path)


def projector_missing_once(monkeypatch, then_fail=False, at=1):
    """Make ``drive``'s projector return, at its call ``at``, the midpoint
    of x0 and the projection, which lies outside a cut whenever x0 lies
    outside their intersection; other calls project, or after that one
    with ``then_fail`` raise EmptyIntersection."""
    from csepsolve import hybrid
    from csepsolve.errors import EmptyIntersection

    project, calls = hybrid.project_halfspace_intersection, []

    def missing_once(cuts, x0, x0_sq=None):
        calls.append(1)
        if len(calls) == at:
            return 0.5 * (x0 + project(cuts, x0, x0_sq))
        if then_fail and len(calls) > at:
            raise EmptyIntersection("the projector gave up")
        return project(cuts, x0, x0_sq)

    monkeypatch.setattr(hybrid, "project_halfspace_intersection", missing_once)


def dense_aq_problem(tmp_path, monkeypatch):
    """Two dense affine-quadratic subproblems with no known solution,
    solved in one stacked projected-gradient loop with MAX_INNER = 3: the
    nearly zero Q_0 starts at its interior minimizer and converges at once,
    while q_1 puts the minimizer of row 1 on the face y_0 = -1, so that row
    stops at the cap."""
    import csepsolve.prox as prox_module

    rng = np.random.default_rng(3)
    d = 4
    C = rng.standard_normal((d, d))
    dense_q = C @ C.T
    bifunctions = [
        {"type": "affine_quadratic", "P": np.diag([1.0, 2.0, 1.5, 1.0]).tolist(),
         "Q": np.full((d, d), 1e-12).tolist(), "q": [0.0] * d},
        {"type": "affine_quadratic", "P": (dense_q + np.eye(d)).tolist(),
         "Q": dense_q.tolist(), "q": [100.0, 0.0, 0.0, 0.0]},
    ]
    path = tmp_path / "dense_aq.json"
    path.write_text(json.dumps({
        "dimension": d,
        "set": {"type": "box", "lower": [-1.0] * d, "upper": [1.0] * d},
        "bifunctions": bifunctions,
        "x0": [0.5] * d,
    }))
    monkeypatch.setattr(prox_module, "MAX_INNER", 3)
    return str(path)


DENSE_AQ_ARGS = ["--algorithm", "maxsel", "--lambda", "0.05", "--k", "6", "--tol", "0",
                 "--max-outer", "4"]


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
        from csepsolve.harness import derive_default_params, load_problem

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

    @pytest.mark.parametrize("algorithm, flag", [
        ("single", ["--k", "inf"]), ("parallel", ["--k", "inf"]),
        *[(a, ["--lambda", "inf"]) for a in ("single", "extragradient", "armijo")]])
    def test_a_parameter_that_is_not_finite_exit_two_before_the_run(self, capsys, tmp_path,
                                                                    algorithm, flag):
        summary, trace = tmp_path / "s.json", tmp_path / "t.csv"
        code = main(["solve", SCALAR, "--algorithm", algorithm, *flag,
                     "--summary", str(summary), "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: " in captured.err and "inf" in captured.err
        assert captured.out == ""
        assert not summary.exists() and not trace.exists()

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

    def test_a_negative_seed_with_certificates_exit_two_before_the_run(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        code = main(["solve", SCALAR, "--algorithm", "single", "--certify", "3", "--seed", "-1",
                     "--summary", str(summary)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: seed=-1 must be >= 0 with certify_probes=3" in captured.err
        assert captured.out == ""
        assert not summary.exists()

    def test_an_unwritable_summary_exit_two(self, capsys, tmp_path):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code = main(["solve", SCALAR, "--algorithm", "single",
                     "--summary", str(blocker / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err

    def test_relaxed_rule_accepts_wider_lambda(self, capsys):
        code = main(["solve", SCALAR, "--algorithm", "single",
                     "--lambda", "0.8", "--k", "8", "--rule", "relaxed"])
        assert code == 0

    def test_inner_nonconvergence_exit_four(self, capsys, tmp_path, monkeypatch):
        code = main(["solve", dense_aq_problem(tmp_path, monkeypatch), *DENSE_AQ_ARGS])
        captured = capsys.readouterr()
        # the run itself stopped at the outer cap (exit 1 without the
        # unconverged inner solve)
        assert "stop_reason: max_outer" in captured.out
        assert code == 4
        assert ("iteration 1, subproblem 1): projected gradient hit 3 iterations"
                in captured.err)

    @pytest.mark.parametrize("budget, stop_reason", [([], "tolerance"),
                                                     (["--max-outer", "1"], "max_outer")])
    def test_a_fired_check_exit_five(self, capsys, monkeypatch, budget, stop_reason):
        # without the projector that misses a cut, the same runs exit 0 and 1
        projector_missing_once(monkeypatch)
        code = main(["solve", SCALAR, "--algorithm", "single", "--lambda", "0.3", "--k", "4",
                     *budget])
        captured = capsys.readouterr()
        assert code == 5
        assert f"stop_reason: {stop_reason}" in captured.out
        assert "invariant checks fired: anchor_projection 1" in captured.err

    def test_the_summary_gives_the_first_iteration_each_check_fired(self, capsys, tmp_path,
                                                                    monkeypatch):
        # the projector misses at iteration 3; x_4 lies outside a cut of
        # iteration 4 too, and x_3 lies nearer x0 than x_2
        projector_missing_once(monkeypatch, at=3)
        path = tmp_path / "summary.json"
        code = main(["solve", SCALAR, "--algorithm", "single", "--lambda", "0.3", "--k", "4",
                     "--summary", str(path)])
        assert code == 5
        summary = json.loads(path.read_text())
        assert summary["invariant_violations"] == {
            "cut_containment": 0, "solution_distance_bound": 0,
            "anchor_monotonicity": 1, "anchor_projection": 2}
        assert summary["first_violation"] == {
            "cut_containment": None, "solution_distance_bound": None,
            "anchor_monotonicity": 3, "anchor_projection": 3}

    def test_a_fired_check_exit_five_ahead_of_four(self, capsys, tmp_path, monkeypatch):
        projector_missing_once(monkeypatch)
        code = main(["solve", dense_aq_problem(tmp_path, monkeypatch), *DENSE_AQ_ARGS])
        assert code == 5
        assert "invariant checks fired: anchor_projection" in capsys.readouterr().err

    def test_a_run_error_exit_three_ahead_of_five(self, capsys, monkeypatch):
        projector_missing_once(monkeypatch, then_fail=True)
        code = main(["solve", SCALAR, "--algorithm", "single", "--lambda", "0.3", "--k", "4"])
        captured = capsys.readouterr()
        assert code == 3
        assert "invariant_violations: 1" in captured.out
        assert "error: the projector gave up" in captured.err

    def test_run_error_exit_three_with_the_error_in_the_summary(self, capsys, tmp_path,
                                                                monkeypatch):
        from csepsolve.harness import RunSpec, run

        path = diverging_problem(tmp_path, monkeypatch)
        with np.errstate(over="ignore"):
            code = main(["solve", path, "--algorithm", "single", *DIVERGING_PARAMS,
                         "--summary", str(tmp_path / "s.json")])
            outcome = run(RunSpec(problem_path=path, algorithm="single", lam=0.9, k=4.0,
                                  rule="relaxed"))
        assert code == 3
        assert "error: subgradient iteration diverged" in capsys.readouterr().err
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["error"] == "subgradient iteration diverged"
        assert "dist_to_oracle" not in summary
        assert outcome.trace == []
        assert math.isnan(outcome.final_dist_to_known())

    def test_run_error_without_a_message_exit_three(self, capsys, tmp_path, monkeypatch):
        from csepsolve.errors import NonFiniteObjective

        def subgradient(x, y):
            raise NonFiniteObjective()

        path = diverging_problem(tmp_path, monkeypatch, subgradient)
        assert main(["solve", path, "--algorithm", "single", *DIVERGING_PARAMS,
                     "--summary", str(tmp_path / "s.json")]) == 3
        captured = capsys.readouterr()
        assert "stop_reason: error" in captured.out
        # an empty message is reported by the exception's class name
        assert "error: NonFiniteObjective" in captured.err
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["error"] == "NonFiniteObjective"

    def test_solver_error_outside_the_run_exit_three(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "dimension": 1,
            "set": {"type": "polyhedron", "cuts": [{"normal": [1.0], "offset": -1.0},
                                                   {"normal": [-1.0], "offset": -2.0}]},
            "bifunctions": [{"type": "vi_affine", "M": [[1.0]], "q": [0.0]}],
            "x0": [0.0],
        }))
        assert main(["solve", str(path), "--algorithm", "single"]) == 3
        assert "error: polyhedron appears empty" in capsys.readouterr().err

    def test_exit_codes_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "4 an inner solve stopped at its iteration cap" in help_text
        assert "5 an invariant check fired; a run takes 3, else 5, else 4, else 0 or 1" in help_text

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

    def test_prints_a_solution_on_a_face_of_the_box(self, capsys, tmp_path):
        # A(x) = (x2 - 0.5, -x1 + x2 + 0.5) on [-1, 1]^2: the unique solution
        # (1, 0.5) lies on the face x1 = 1
        path = tmp_path / "corner.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "set": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "bifunctions": [{"type": "vi_affine", "M": [[0.0, 1.0], [-1.0, 1.0]],
                             "q": [-0.5, 0.5]}],
            "x0": [0.0, 0.0],
        }))
        assert main(["oracle", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["reference"] == [1.0, 0.5]

    def test_unavailable_exit_three(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "bifunctions": [IDENTITY],
            "x0": [0.5, 0.5],
        }))
        assert main(["oracle", str(path)]) == 3
        assert "oracle unavailable: " in capsys.readouterr().err

    @pytest.mark.parametrize("fixed", [{}, {"0": 0.5}])
    def test_an_inverted_known_box_exit_two_naming_it(self, capsys, tmp_path, fixed):
        # lower [-1, 1] and upper [1, -1] hold no point; the error names the
        # known solution, not one of its fixed coordinates
        path = tmp_path / "inverted.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "set": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "bifunctions": [{"type": "vi_affine", "M": [[1.0, 0.0], [0.0, 0.0]],
                             "q": [0.0, 0.0]}],
            "x0": [0.5, 0.3],
            "known_solution": {"type": "affine_segment_box", "fixed": fixed,
                               "lower": [-1.0, 1.0], "upper": [1.0, -1.0]},
        }))
        assert main(["oracle", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: known_solution: ")
        assert "fixed" not in captured.err


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

    def test_each_row_counts_its_fired_checks(self, capsys, tmp_path, monkeypatch):
        # the projector misses once, in the first algorithm's first iteration
        projector_missing_once(monkeypatch)
        out_path = tmp_path / "cmp.json"
        code = main(["compare", SCALAR, "--algorithms", "single,single",
                     "--lambda", "0.3", "--k", "4", "--output", str(out_path)])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split()[-1] == "viol"
        assert [row.split()[-1] for row in rows[2:]] == ["1", "0"]
        data = json.loads(out_path.read_text())
        assert [r["invariant_violations"] for r in data["rows"]] == [1, 0]

    def test_output_creates_its_directory(self, capsys, tmp_path):
        out_path = tmp_path / "new" / "dir" / "cmp.json"
        code = main(["compare", SCALAR, "--algorithms", "single", "--lambda", "0.3", "--k", "4",
                     "--output", str(out_path)])
        assert code == 0
        assert [r["algorithm"] for r in json.loads(out_path.read_text())["rows"]] == ["single"]

    def test_an_unwritable_output_exit_two(self, capsys, tmp_path):
        # the output path is a directory
        code = main(["compare", SCALAR, "--algorithms", "single", "--lambda", "0.3", "--k", "4",
                     "--output", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("algorithms", [",", "", " , "])
    def test_no_algorithm_exit_two(self, capsys, algorithms):
        assert main(["compare", SCALAR, "--algorithms", algorithms]) == 2
        assert "error: compare needs at least one algorithm" in capsys.readouterr().err

    def test_an_error_row_exit_three(self, capsys, tmp_path, monkeypatch):
        path = diverging_problem(tmp_path, monkeypatch)
        with np.errstate(over="ignore"):
            code = main(["compare", path, "--algorithms", "single,extragradient",
                         *DIVERGING_PARAMS])
        assert code == 3
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[:2] for row in rows] == [["single", "error"],
                                                    ["extragradient", "error"]]


IDENTITY = {"type": "vi_affine", "M": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]}
# (the field named in the error, the top-level entries that replace a valid file's)
MALFORMED = [
    ("set.cuts[1].offset", {"set": {"type": "polyhedron", "cuts": [
        {"normal": [1.0, 0.0], "offset": 1.0}, {"normal": [0.0, 1.0], "offset": [1]}]}}),
    ("set.radius", {"set": {"type": "ball", "center": [0.0, 0.0], "radius": [1]}}),
    ("set.radius", {"set": {"type": "ball", "center": [0.0, 0.0], "radius": "abc"}}),
    ("bifunctions[0].L", {"bifunctions": [{**IDENTITY, "L": [2]}]}),
    ("bifunctions[0].c1", {"bifunctions": [{**IDENTITY, "c1": [1], "c2": 1.0}]}),
    ("bifunctions[1]", {"bifunctions": [IDENTITY, 5]}),
    ("known_solution.fixed", {"known_solution": {
        "type": "affine_segment_box", "fixed": [1], "lower": [-1.0, -1.0],
        "upper": [1.0, 1.0]}}),
    ("set", {"set": {"type": "box", "lower": [-1.0, 2.0], "upper": [1.0, 1.0]}}),
    ("set.radius", {"set": {"type": "ball", "center": [0.0, 0.0], "radius": 0.0}}),
    ("set.radius", {"set": {"type": "ball", "center": [0.0, 0.0], "radius": "nan"}}),
    ("set.radius", {"set": {"type": "ball", "center": [0.0, 0.0], "radius": math.inf}}),
    ("set.cuts", {"set": {"type": "polyhedron", "cuts": []}}),
    ("bifunctions[0].L", {"bifunctions": [{**IDENTITY, "L": -1.0}]}),
    # json reads 1e400 as inf, as it reads Infinity
    ("bifunctions[0].L", {"bifunctions": [{**IDENTITY, "L": math.inf}]}),
    ("bifunctions[0]", {"bifunctions": [{**IDENTITY, "c1": math.inf, "c2": 1.0}]}),
    ("bifunctions[0]", {"bifunctions": [{**IDENTITY, "c1": 1.0, "c2": math.inf}]}),
    *[(f"known_solution.fixed.{j}", {"known_solution": {
        "type": "affine_segment_box", "fixed": {j: value}, "lower": [-1.0, -1.0],
        "upper": [1.0, 1.0]}}) for j, value in (("a", 0.0), ("2", 0.0), ("1", 3.0))],
    # "0" and "00" name one coordinate, whether or not with one value
    *[("known_solution.fixed.00", {"known_solution": {
        "type": "affine_segment_box", "fixed": {"0": 0.0, "00": value},
        "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}) for value in (0.7, 0.0)],
    ("set.cuts", {"set": {"type": "polyhedron", "cuts": 5}}),
    ("bifunctions", {"bifunctions": 5}),
    ("bifunctions[0].M", {"bifunctions": [{**IDENTITY, "M": {"a": 1}}]}),
    ("bifunctions[0].M", {"bifunctions": [{**IDENTITY, "M": [[1, 0], [0]]}]}),
    ("bifunctions[0].M", {"bifunctions": [{**IDENTITY, "M": "abc"}]}),
    ("x0", {"x0": [0, [1]]}),
    ("bifunctions[0].q", {"bifunctions": [{**IDENTITY, "q": [math.inf, 0.0]}]}),
    ("bifunctions[0].M", {"bifunctions": [{**IDENTITY, "M": [[1.0, math.nan], [0.0, 1.0]]}]}),
    ("bifunctions[0].M", {"bifunctions": [{**IDENTITY, "M": [[1.0, 0.0, 0.0],
                                                             [0.0, 1.0, 0.0]]}]}),
    ("bifunctions[0]", {"bifunctions": [{**IDENTITY, "c1": 1.0}]}),
    ("bifunctions[0].type", {"bifunctions": [{**IDENTITY, "type": "cubic"}]}),
    ("known_solution.type", {"known_solution": {"type": "ray"}}),
    # P = Q^T derives c1 = c2 = 0, and no constants are given
    ("bifunctions[0]", {"bifunctions": [{"type": "affine_quadratic",
                                         "P": [[1.0, 2.0], [0.0, 1.0]],
                                         "Q": [[1.0, 0.0], [2.0, 1.0]]}]}),
]


class TestValidate:
    def test_report_json(self, capsys):
        code = main(["validate", SCALAR, "--samples", "50"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["samples"] == 50
        assert data["total_violations"] == 0

    @pytest.mark.parametrize("field, entries", MALFORMED)
    def test_a_malformed_field_exit_two_naming_it(self, capsys, tmp_path, field, entries):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "set": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "bifunctions": [IDENTITY],
            "x0": [0.5, 0.5],
            **entries,
        }))
        code = main(["validate", str(path)])
        assert code == 2
        assert f"error: {field}: " in capsys.readouterr().err

    def test_a_missing_file_exit_two_naming_it(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        assert main(["validate", str(path)]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    def test_an_unset_seed_leaves_its_default_to_problems_validate(self, capsys, monkeypatch):
        import csepsolve.cli as cli
        from csepsolve.problems import validate

        calls = []

        def recording_validate(instance, **options):
            calls.append(options)
            return validate(instance, **options)

        monkeypatch.setattr(cli, "validate", recording_validate)
        assert main(["validate", SCALAR, "--samples", "5"]) == 0
        assert main(["validate", SCALAR, "--samples", "5", "--seed", "3"]) == 0
        assert calls == [{"samples": 5}, {"samples": 5, "seed": 3}]

    def test_a_negative_seed_exit_two_naming_it(self, capsys):
        code = main(["validate", SCALAR, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: seed=-1 must be >= 0" in captured.err
        assert captured.out == ""

    def test_a_top_level_array_exit_two(self, capsys, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[]")
        assert main(["validate", str(path)]) == 2
        assert "error: top level: expected an object" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "csepsolve", "solve", SCALAR,
         "--algorithm", "single", "--lambda", "0.3", "--k", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "tolerance" in proc.stdout
