import json

import numpy as np
import pytest

from csepsolve import AffineOperator, Box, CsepInstance, SingletonSolution, ViInducedBifunction
from csepsolve.errors import (
    ConstantsMissing,
    EmptyF,
    OracleUnavailable,
    ParameterViolation,
    ParseError,
    SchemaError,
)
from csepsolve.geometry import Ball
from csepsolve.harness import (
    RunSpec,
    compare,
    derive_default_params,
    load_problem,
    reference_solution,
    run,
)
from csepsolve.outcome import TRACE_HEADER, IterationRecord
from csepsolve.problems import BlackBoxBifunction, LipschitzData

from conftest import PROBLEM_DIR


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_DOC = {
    "dimension": 2,
    "set": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "bifunctions": [
        {"type": "vi_affine", "M": [[1.0, 0.0], [0.0, 0.0]], "q": [0.0, 0.0], "L": 1.0}
    ],
    "x0": [0.5, 0.3],
    "known_solution": {
        "type": "affine_segment_box",
        "fixed": {"0": 0.0},
        "lower": [-1.0, -1.0],
        "upper": [1.0, 1.0],
    },
}


class TestLoadProblem:
    def test_well_formed(self, tmp_path):
        inst = load_problem(write_problem(tmp_path, BASE_DOC))
        assert inst.n_problems == 1
        data = inst.bifunctions[0].lipschitz_data()
        assert data.c1 == data.c2 == 0.5

    def test_bundled_files_load(self):
        for path in sorted(PROBLEM_DIR.glob("*.json")):
            inst = load_problem(str(path))
            assert inst.n_problems >= 1

    def test_mismatched_vector_named(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["bifunctions"][0]["q"] = [0.0, 0.0, 0.0]
        with pytest.raises(SchemaError, match=r"bifunctions\[0\]\.q"):
            load_problem(write_problem(tmp_path, doc))

    @pytest.mark.parametrize("field, entries, named", [
        ("L", {"L": 1e400}, r"bifunctions\[0\]\.L: .*finite"),
        ("c1", {"c1": 1e400, "c2": 0.5}, r"bifunctions\[0\]: .*finite"),
        ("c2", {"c1": 0.5, "c2": 1e400}, r"bifunctions\[0\]: .*finite"),
    ])
    def test_an_infinite_constant_is_rejected_naming_its_bifunction(self, tmp_path, field,
                                                                   entries, named):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["bifunctions"][0].update(entries)
        # the file holds the literal 1e400, which json reads as inf
        text = json.dumps(doc).replace("Infinity", "1e400")
        assert f'"{field}": 1e400' in text
        path = tmp_path / "problem.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=named):
            load_problem(str(path))

    def test_blackbox_missing_constants(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["bifunctions"] = [{"type": "blackbox", "name": "zero"}]
        with pytest.raises(ConstantsMissing):
            load_problem(write_problem(tmp_path, doc))

    def test_blackbox_registered(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["bifunctions"] = [{"type": "blackbox", "name": "zero", "c1": 0.5, "c2": 0.5}]
        doc.pop("known_solution")
        inst = load_problem(write_problem(tmp_path, doc))
        assert inst.bifunctions[0].value(np.zeros(2), np.ones(2)) == 0.0

    def test_blackbox_unknown_name(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["bifunctions"] = [{"type": "blackbox", "name": "mystery", "c1": 1.0, "c2": 1.0}]
        with pytest.raises(SchemaError, match="mystery"):
            load_problem(write_problem(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError, match="line 1"):
            load_problem(str(path))

    def test_a_file_that_is_not_utf8_raises_a_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dimension": 1, "set": {"type": "box", "lower": [\xff]}}')
        with pytest.raises(ParseError, match=f"{path}: .*can't decode byte 0xff"):
            load_problem(str(path))

    def test_unknown_set_variant(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["set"] = {"type": "simplex"}
        with pytest.raises(SchemaError, match="set.type"):
            load_problem(write_problem(tmp_path, doc))

    @pytest.mark.parametrize("dimension", [2.7, 2.0, "2", True, 0, -1, None, [2]])
    def test_dimension_must_be_a_positive_json_integer(self, tmp_path, dimension):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["dimension"] = dimension
        with pytest.raises(SchemaError, match="dimension"):
            load_problem(write_problem(tmp_path, doc))

    def test_missing_field_named(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["x0"]
        with pytest.raises(SchemaError, match="x0"):
            load_problem(write_problem(tmp_path, doc))

    def test_ball_and_whole_space_sets(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc.pop("known_solution")
        doc["set"] = {"type": "ball", "center": [0.0, 0.0], "radius": 2.0}
        inst = load_problem(write_problem(tmp_path, doc))
        assert inst.set.contains(np.array([1.0, 1.0]))
        doc["set"] = {"type": "whole_space"}
        inst = load_problem(write_problem(tmp_path, doc, "ws.json"))
        assert inst.set.dimension == 2

    def test_polyhedron_set(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc.pop("known_solution")
        doc["set"] = {"type": "polyhedron", "cuts": [
            {"normal": [1.0, 0.0], "offset": 1.0},
            {"normal": [-1.0, 0.0], "offset": 1.0},
        ]}
        inst = load_problem(write_problem(tmp_path, doc))
        assert inst.set.contains(np.array([0.5, 9.0]))


class TestReferenceSolution:
    def test_singleton(self):
        inst = CsepInstance(
            1, Box([-1.0], [1.0]),
            [ViInducedBifunction(AffineOperator(np.eye(1), np.zeros(1)))],
            [0.9], SingletonSolution([0.25]),
        )
        assert np.allclose(reference_solution(inst), [0.25])

    def test_segment_clamps_free_coordinate(self):
        inst = load_problem(str(PROBLEM_DIR / "vi_halfline_2d.json"))
        assert np.allclose(reference_solution(inst), [0.0, 0.3])

    def test_brute_force_common_zero(self):
        ops = [AffineOperator(np.eye(2), np.zeros(2)),
               AffineOperator(2.0 * np.eye(2), np.zeros(2))]
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]),
                            [ViInducedBifunction(o) for o in ops], [0.5, -0.7])
        assert np.linalg.norm(reference_solution(inst)) < 1e-5

    def test_brute_force_boundary_solution(self):
        # A(x) = x - 2 pushes the solution to the upper box corner
        op = AffineOperator(np.eye(1), np.array([-2.0]))
        inst = CsepInstance(1, Box([-1.0], [1.0]), [ViInducedBifunction(op)], [0.0])
        assert abs(reference_solution(inst)[0] - 1.0) < 1e-5

    def test_brute_force_non_singleton_picks_nearest(self):
        op = AffineOperator(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]),
                            [ViInducedBifunction(op)], [0.5, 0.3])
        assert np.allclose(reference_solution(inst), [0.0, 0.3], atol=1e-5)

    def test_empty_intersection_detected(self):
        ops = [AffineOperator(np.eye(1), np.array([-2.0])),
               AffineOperator(np.eye(1), np.array([2.0]))]
        inst = CsepInstance(1, Box([-1.0], [1.0]),
                            [ViInducedBifunction(o) for o in ops], [0.0])
        with pytest.raises(EmptyF):
            reference_solution(inst)

    def test_unavailable_in_high_dimension(self):
        op = AffineOperator(np.eye(4), np.zeros(4))
        inst = CsepInstance(4, Box(-np.ones(4), np.ones(4)),
                            [ViInducedBifunction(op)], np.full(4, 0.5))
        with pytest.raises(OracleUnavailable):
            reference_solution(inst)

    def test_unavailable_off_a_box(self):
        op = AffineOperator(np.eye(2), np.zeros(2))
        inst = CsepInstance(2, Ball([0.0, 0.0], 1.0), [ViInducedBifunction(op)], [0.5, 0.5])
        with pytest.raises(OracleUnavailable, match="box"):
            reference_solution(inst)

    def test_unavailable_for_a_blackbox_bifunction(self):
        f = BlackBoxBifunction(lambda x, y: 0.0, lambda x, y: np.zeros_like(x),
                               LipschitzData(1.0, 1.0))
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]), [f], [0.5, 0.5])
        with pytest.raises(OracleUnavailable, match="affine"):
            reference_solution(inst)

    @pytest.mark.parametrize("name", ["csep2_zero_2d", "csep3_mixed_3d", "csep3_plane_3d",
                                      "vi_halfline_2d", "vi_scalar_1d"])
    def test_matches_analytic_when_both_available(self, name):
        inst_full = load_problem(str(PROBLEM_DIR / f"{name}.json"))
        declared = reference_solution(inst_full)
        blind = CsepInstance(inst_full.dimension, inst_full.set,
                             inst_full.bifunctions, inst_full.x0)
        assert np.linalg.norm(reference_solution(blind) - declared) < 1e-12


def test_write_trace_writes_the_header_and_each_csv_row():
    pytest.importorskip("hypothesis")
    import math
    import tempfile
    from pathlib import Path

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from csepsolve.outcome import write_trace

    edge = st.sampled_from([math.nan, -math.nan, 0.0, -0.0, 5e-324, -5e-324,
                            2.2250738585072014e-308 / 3, 1e308, -1e308, math.inf, -math.inf,
                            0.1, 1e-10, 123456789.123456789])
    floats = st.one_of(edge, st.floats())
    counts = st.integers(0, 10**12)

    @st.composite
    def records(draw):
        eps_min = draw(floats)
        # the two-cut iterations pass one float object as both ends
        eps_max = eps_min if draw(st.booleans()) else draw(floats)
        return IterationRecord(draw(counts), draw(floats), draw(floats), eps_min, eps_max,
                               draw(floats), draw(floats), draw(counts),
                               draw(st.one_of(st.none(), counts)))

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.csv"

        @settings(max_examples=100, deadline=None)
        @given(st.lists(records(), max_size=8))
        def check(trace):
            write_trace(str(path), trace)
            expected = ",".join(TRACE_HEADER) + "\n" + "".join(r.csv_row() + "\n" for r in trace)
            assert path.read_bytes() == expected.encode("utf-8")

        check()


class TestRun:
    def test_tolerance_stop_matches_oracle(self, tmp_path):
        spec = RunSpec(
            problem_path=str(PROBLEM_DIR / "vi_scalar_1d.json"),
            algorithm="single", lam=0.3, k=4.0,
            trace_path=str(tmp_path / "trace.csv"),
            summary_path=str(tmp_path / "summary.json"),
        )
        out = run(spec)
        assert out.stop_reason == "tolerance"
        assert abs(out.final_x[0]) < 1e-5

        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        assert TRACE_HEADER[-2:] == ("degenerate_cuts", "selected_index")
        assert len(lines) == out.iterations + 1
        # at n = 1 the Q-cut is the whole space (x_1 = x0); N = 1 selects 0
        assert lines[1].split(",")[-2:] == ["1", "0"]
        assert IterationRecord(1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, None).csv_row().endswith(",0,")

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stop_reason"] == "tolerance"
        assert summary["iterations"] == out.iterations
        assert summary["dist_to_oracle"] < 1e-5
        assert sum(summary["invariant_violations"].values()) == 0
        assert summary["counters"]["prox_nonconverged"] == 0
        assert "first_prox_nonconverged" not in summary
        assert (summary["lam"], summary["k"], summary["rule"]) == (0.3, 4.0, "strict")
        assert (summary["tol"], summary["max_outer"]) == (1e-8, 100_000)

    def test_out_of_bounds_lam_raises(self):
        spec = RunSpec(problem_path=str(PROBLEM_DIR / "vi_scalar_1d.json"),
                       algorithm="single", lam=1.0, k=4.0)
        with pytest.raises(ParameterViolation):
            run(spec)

    def test_max_outer_cap(self):
        spec = RunSpec(problem_path=str(PROBLEM_DIR / "vi_scalar_1d.json"),
                       algorithm="single", lam=0.3, k=4.0, max_outer=3)
        out = run(spec)
        assert out.stop_reason == "max_outer"
        assert out.iterations == 3

    def test_single_only_algorithms_reject_systems(self):
        for algorithm in ("single", "extragradient", "armijo"):
            spec = RunSpec(problem_path=str(PROBLEM_DIR / "csep2_zero_2d.json"),
                           algorithm=algorithm)
            with pytest.raises(ParameterViolation):
                run(spec)

    def test_default_params_derived(self):
        spec = RunSpec(problem_path=str(PROBLEM_DIR / "vi_scalar_1d.json"),
                       algorithm="single")
        out = run(spec)
        assert out.stop_reason == "tolerance"

    def test_derive_default_params_admissible(self):
        inst = load_problem(str(PROBLEM_DIR / "csep2_zero_2d.json"))
        lam, k = derive_default_params(inst)
        lip = LipschitzData.largest(inst.lipschitz_all())
        assert 0 < lam < 1.0 / (2.0 * (lip.c1 + lip.c2))
        assert k > 1.0 / (1.0 - 2.0 * lam * (lip.c1 + lip.c2))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterViolation):
            RunSpec(problem_path="x.json", algorithm="magic")


class TestCompare:
    def test_prox_counts_single_vs_extragradient(self):
        path = str(PROBLEM_DIR / "vi_scalar_1d.json")
        report = compare([
            RunSpec(problem_path=path, algorithm="single", lam=0.3, k=4.0),
            RunSpec(problem_path=path, algorithm="extragradient", lam=0.3),
            RunSpec(problem_path=path, algorithm="armijo", lam=0.3),
        ])
        by_name = {r.algorithm: r for r in report.rows}
        assert by_name["single"].prox_per_iteration == 1.0
        assert by_name["extragradient"].prox_per_iteration == 2.0
        dists = [r.final_dist_to_oracle for r in report.rows]
        assert max(dists) < 1e-4

    def test_prox_counts_parallel_vs_sequential(self):
        path = str(PROBLEM_DIR / "csep3_plane_3d.json")
        report = compare([
            RunSpec(problem_path=path, algorithm="parallel", lam=0.2, k=6.0),
            RunSpec(problem_path=path, algorithm="sequential", lam=0.2, k=6.0),
        ])
        by_name = {r.algorithm: r for r in report.rows}
        assert by_name["parallel"].prox_per_iteration == 3.0
        assert by_name["sequential"].prox_per_iteration == 1.0
        finals = [r.final_dist_to_oracle for r in report.rows]
        assert max(finals) < 1e-4

    @pytest.mark.parametrize("name, algorithms", [
        ("vi_scalar_1d.json", ("single", "extragradient", "armijo")),
        ("csep3_mixed_3d.json", ("parallel", "maxsel", "sequential")),
    ])
    def test_loads_once_and_each_row_equals_a_separate_run(self, tmp_path, monkeypatch,
                                                           name, algorithms):
        import dataclasses

        import csepsolve.harness as harness_module

        def summaries(tag):
            """Each spec's summary, ``wall_ms`` left out."""
            out = []
            for a in algorithms:
                summary = json.loads((tmp_path / f"{tag}-{a}.json").read_text())
                del summary["wall_ms"]
                out.append(summary)
            return out

        path = str(PROBLEM_DIR / name)
        specs = [RunSpec(problem_path=path, algorithm=a, max_outer=300,
                         summary_path=str(tmp_path / f"run-{a}.json")) for a in algorithms]
        separate = [run(spec) for spec in specs]
        specs = [dataclasses.replace(s, summary_path=str(tmp_path / f"compare-{s.algorithm}.json"))
                 for s in specs]
        loads = []
        original = harness_module.load_problem
        monkeypatch.setattr(harness_module, "load_problem",
                            lambda p: loads.append(p) or original(p))
        report = compare(specs)
        assert loads == [path]
        for row, outcome in zip(report.rows, separate, strict=True):
            expected = dataclasses.replace(
                row, stop_reason=outcome.stop_reason, iterations=outcome.iterations,
                prox_solves=outcome.counters.prox_solves,
                prox_per_iteration=outcome.counters.prox_solves / outcome.iterations,
                set_projections=outcome.counters.set_projections,
                final_dist_to_oracle=outcome.final_dist_to_known(),
                invariant_violations=outcome.total_violations)
            assert repr(row) == repr(expected)
            assert row.wall_ms > 0.0
        assert summaries("compare") == summaries("run")  # final_x bit for bit

    def test_requires_shared_problem(self):
        with pytest.raises(ParameterViolation):
            compare([
                RunSpec(problem_path="a.json", algorithm="single"),
                RunSpec(problem_path="b.json", algorithm="single"),
            ])

    def test_text_table_renders(self):
        path = str(PROBLEM_DIR / "vi_scalar_1d.json")
        report = compare([RunSpec(problem_path=path, algorithm="single",
                                  lam=0.3, k=4.0)])
        text = report.to_text()
        assert "single" in text and "prox/it" in text


class TestUnconstrainedRun:
    def test_whole_space_solve_without_oracle(self, tmp_path):
        doc = {
            "dimension": 4,
            "set": {"type": "whole_space"},
            "bifunctions": [
                {"type": "vi_affine",
                 "M": np.eye(4).tolist(),
                 "q": [-0.3, 0.1, 0.0, 0.2],
                 "L": 1.0}
            ],
            "x0": [1.0, -1.0, 0.5, 0.0],
        }
        path = write_problem(tmp_path, doc, "unconstrained.json")
        spec = RunSpec(problem_path=path, algorithm="single", lam=0.3, k=4.0,
                       max_outer=20_000, trace_path=str(tmp_path / "t.csv"))
        out = run(spec)
        assert out.error is None
        # the operator's unique zero is -q
        assert np.linalg.norm(out.final_x - np.array([0.3, -0.1, 0.0, -0.2])) < 1e-3
        lines = (tmp_path / "t.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[5] == ""  # no oracle: empty dist_to_known field


class TestReproducibility:
    def test_identical_spec_and_seed(self):
        spec = RunSpec(problem_path=str(PROBLEM_DIR / "vi_halfline_2d.json"),
                       algorithm="single", lam=0.4, k=6.0, seed=7,
                       certify_probes=50)
        a = run(spec)
        b = run(spec)
        assert a.iterations == b.iterations
        for ra, rb in zip(a.trace, b.trace):
            assert ra.step_norm == rb.step_norm
            assert ra.residual == rb.residual
            assert ra.eps_min == rb.eps_min
            assert ra.eps_max == rb.eps_max
            assert ra.dist_to_known == rb.dist_to_known
        assert a.min_prox_certificate == b.min_prox_certificate

    @pytest.mark.parametrize("problem, algorithm, extra", [
        ("csep2_zero_2d", "parallel", dict(certify_probes=3, seed=11)),
        ("csep3_mixed_3d", "sequential", dict(rule="relaxed")),
        ("ep_quadratic_2d", "maxsel", dict(certify_probes=2, seed=4)),
        ("vi_halfline_2d", "armijo", dict(eta=0.7)),
        ("vi_scalar_1d", "extragradient", dict(seed=3)),
    ])
    def test_summary_fields_reproduce_the_run(self, tmp_path, problem, algorithm, extra):
        path = tmp_path / "summary.json"
        first = run(RunSpec(problem_path=str(PROBLEM_DIR / f"{problem}.json"),
                            algorithm=algorithm, max_outer=150, summary_path=str(path),
                            **extra))
        summary = json.loads(path.read_text())
        assert set(summary["versions"]) == {"csepsolve", "numpy", "python"}
        assert summary["versions"]["numpy"] == np.__version__
        fields = ("lam", "k", "eta", "tol", "max_outer", "rule", "seed", "certify_probes")
        again = run(RunSpec(problem_path=summary["problem"], algorithm=summary["algorithm"],
                            **{f: summary[f] for f in fields if f in summary}))
        assert again.final_x.tobytes() == first.final_x.tobytes()
        assert np.array(summary["final_x"]).tobytes() == first.final_x.tobytes()
        assert again.iterations == summary["iterations"]
