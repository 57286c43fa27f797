"""The anchor step that ``hybrid.drive`` takes for all six solvers.

A solver's step hands ``drive`` only the points it cuts with; ``drive``
builds the C-cuts and the Q-cut from x0 and x_n, projects x0 with the
solver's projector, takes the step length and checks ``tol`` and
``max_outer`` for every solver alike.
"""

import math

import numpy as np
import pytest

from csepsolve import (
    STOP_ERROR,
    ArmijoParams,
    EmptyIntersection,
    HybridParams,
    ParameterViolation,
    baselines,
    build_q_cut,
    hybrid,
    run_armijo_hybrid,
    run_hybrid_extragradient,
    run_maxsel_hybrid,
    run_parallel_hybrid,
    run_sequential,
    run_single,
)
from csepsolve.hybrid import Step, drive
from csepsolve.prox import ProxRecord
from csepsolve.outcome import RunCounters

from conftest import csep2_instance, halfline_instance

HYBRIDS = {
    "parallel": run_parallel_hybrid,
    "maxsel": run_maxsel_hybrid,
    "sequential": run_sequential,
    "single": run_single,
}
SOLVERS = (*HYBRIDS, "extragradient", "armijo")


def solve(name, tol=1e-8, max_outer=100_000, **kw):
    """``name`` on csep2 (N = 2) or, for the N = 1 solvers, the half-line."""
    if name == "extragradient":
        return run_hybrid_extragradient(halfline_instance(), 0.3, tol, max_outer, **kw)
    if name == "armijo":
        return run_armijo_hybrid(halfline_instance(), ArmijoParams(eta=0.5, lam=0.3),
                                 tol, max_outer, **kw)
    instance = halfline_instance() if name == "single" else csep2_instance()
    return HYBRIDS[name](instance, HybridParams(lam=0.2, k=6.0, tol=tol, max_outer=max_outer),
                         **kw)


def record_projections(monkeypatch, name):
    """Wrap the ``project`` that ``name``'s runner hands ``drive``; returns
    the list of (cuts, anchor, result) of its calls."""
    module = hybrid if name in HYBRIDS else baselines
    real_drive = module.drive
    calls = []

    def recording_drive(*args, project=None, **kw):
        inner = project or hybrid.project_halfspace_intersection

        def recording(cuts, anchor):
            z = inner(cuts, anchor)
            calls.append((cuts, anchor, z))
            return z

        return real_drive(*args, project=recording, **kw)

    monkeypatch.setattr(module, "drive", recording_drive)
    return calls


@pytest.mark.parametrize("name", SOLVERS)
def test_drive_projects_x0_onto_the_step_cuts_and_its_q_cut(monkeypatch, name):
    calls = record_projections(monkeypatch, name)
    out = solve(name, tol=0.0, max_outer=6, collect_iterates=True)
    assert out.iterations == len(calls) == 6
    x0 = calls[0][1]
    xs = [x0, *out.iterates]
    for n, (cuts, anchor, z) in enumerate(calls):
        q_cut = build_q_cut(x0, xs[n])
        assert anchor is x0
        assert np.array_equal(cuts[-1].normal, q_cut.normal)
        assert cuts[-1].offset == q_cut.offset
        assert len(cuts) == (3 if name == "parallel" else 2)
        assert np.array_equal(z, xs[n + 1])
    assert out.final_x is calls[-1][2]


def test_a_step_without_cuts_keeps_x_and_skips_the_checks():
    def step(n, x, dx2):
        assert dx2 == 0.0
        return Step(None, np.array([[9.0, 9.0]]), -1.0, 0.5, ProxRecord.of([]))

    def project(cuts, x0):
        raise AssertionError("nothing to project")

    x0 = np.array([1.0, 2.0])
    out = drive("fixed", step, x0, 0.0, 3, RunCounters(), project=project,
                known_point=[0.0, 0.0], collect_iterates=True)
    assert out.iterations == 3
    assert all(np.array_equal(x, x0) for x in out.iterates)
    assert [(r.step_norm, r.degenerate_cuts) for r in out.trace] == [(0.0, 0)] * 3
    assert sum(out.invariant_violations.values()) == 0


def test_a_projection_error_counts_no_work_of_its_iteration():
    calls = []

    def step(n, x, dx2):
        records = [ProxRecord(1, 5, (), math.inf), ProxRecord(1, 7, ((0, None),), math.inf)]
        return Step(np.empty((0, x.size)), np.empty((0, x.size)), 0.0, 1.0,
                    ProxRecord.of(records))

    def project(cuts, x0):
        calls.append(cuts)
        if len(calls) == 2:
            raise EmptyIntersection("planted at iteration 2")
        return x0 + 1.0

    out = drive("fixed", step, np.zeros(2), 0.0, 5, RunCounters(), project=project)
    assert out.stop_reason == STOP_ERROR
    assert out.error == "planted at iteration 2"
    assert out.iterations == 1
    assert np.array_equal(out.final_x, np.ones(2))
    assert out.counters == RunCounters(prox_solves=2, set_projections=12, prox_nonconverged=1)
    assert (out.first_nonconverged.n, out.first_nonconverged.subproblem) == (1, 1)


def test_a_solver_whose_projection_fails_keeps_the_work_before_it(monkeypatch):
    one = solve("maxsel", tol=0.0, max_outer=1)
    real = hybrid.project_halfspace_intersection
    calls = []

    def failing(cuts, x0):
        calls.append(cuts)
        if len(calls) == 2:
            raise EmptyIntersection("planted at iteration 2")
        return real(cuts, x0)

    monkeypatch.setattr(hybrid, "project_halfspace_intersection", failing)
    out = solve("maxsel", tol=0.0, max_outer=5)
    assert (out.stop_reason, out.iterations) == (STOP_ERROR, 1)
    assert out.counters == one.counters
    assert np.array_equal(out.final_x, one.final_x)


@pytest.mark.parametrize("name", SOLVERS)
@pytest.mark.parametrize("bad", [{"max_outer": 0}, {"tol": -1.0}, {"tol": float("nan")}])
def test_every_solver_rejects_a_bad_tol_or_max_outer(name, bad):
    with pytest.raises(ParameterViolation):
        solve(name, **bad)
