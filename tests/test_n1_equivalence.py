"""At N = 1 the four hybrids are one algorithm.

``single``, ``maxsel``, ``sequential`` and ``parallel`` solve the one
subproblem from the same anchor each iteration and cut with its solution,
so their runs must agree bit for bit: ``final_x``, the iterations, every
trace field but ``wall_ms`` and ``selected_index`` (``parallel`` selects
no subproblem), the counters, the invariant counts and
``min_prox_certificate``, with and without certificate probes.  This is
what lets ``tools/parity.py`` run the N = 1 problems under ``single``
alone.
"""

import dataclasses

import pytest

from csepsolve import RunSpec, run
from csepsolve.outcome import IterationRecord

from conftest import PROBLEM_DIR, seeded_problem

HYBRIDS = ("single", "maxsel", "sequential", "parallel")
BUNDLED = ("ep_quadratic_2d", "vi_halfline_2d", "vi_scalar_1d")
SEEDED = [("vi_system", 1), ("vi_system", 2), ("aq_system", 1), ("aq_system", 2)]
TRACE_FIELDS = [f.name for f in dataclasses.fields(IterationRecord)
                if f.name not in ("wall_ms", "selected_index")]


def record(path, algorithm, probes, max_outer):
    """Every compared field of one run at the default parameters, with
    floats as their bytes or ``repr`` (so that NaN equals NaN)."""
    outcome = run(RunSpec(problem_path=path, algorithm=algorithm, tol=1e-8,
                          max_outer=max_outer, certify_probes=probes))
    fields = {
        "final_x": outcome.final_x.tobytes(),
        "iterations": outcome.iterations,
        "stop_reason": outcome.stop_reason,
        "counters": dataclasses.asdict(outcome.counters),
        "violations": outcome.invariant_violations,
        "min_prox_certificate": repr(outcome.min_prox_certificate),
        "first_nonconverged": outcome.first_nonconverged,
        "error": outcome.error,
    }
    for name in TRACE_FIELDS:
        fields[name] = [repr(float(getattr(r, name))) for r in outcome.trace]
    return fields


def assert_one_algorithm(path, probes, max_outer):
    single = record(path, "single", probes, max_outer)
    for algorithm in HYBRIDS[1:]:
        other = record(path, algorithm, probes, max_outer)
        assert {k for k in single if single[k] != other[k]} == set(), algorithm


@pytest.mark.parametrize("probes", [0, 3])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_n1_files_run_as_one_algorithm(name, probes):
    assert_one_algorithm(str(PROBLEM_DIR / f"{name}.json"), probes, 2000)


@pytest.mark.parametrize("probes", [0, 3])
@pytest.mark.parametrize("family, seed", SEEDED)
def test_seeded_n1_systems_run_as_one_algorithm(tmp_path, family, seed, probes):
    assert_one_algorithm(seeded_problem(tmp_path, family, seed), probes, 300)


def test_only_parallel_selects_no_subproblem():
    path = str(PROBLEM_DIR / "vi_scalar_1d.json")
    for algorithm in HYBRIDS:
        trace = run(RunSpec(problem_path=path, algorithm=algorithm, max_outer=5)).trace
        expected = None if algorithm == "parallel" else 0
        assert [r.selected_index for r in trace] == [expected] * 5
