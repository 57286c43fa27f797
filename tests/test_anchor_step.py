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
from oracles import iterates, q_of, record_projections

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


@pytest.mark.parametrize("name", SOLVERS)
def test_drive_projects_x0_onto_the_step_cuts_and_its_q_cut(monkeypatch, name):
    calls = record_projections(monkeypatch, hybrid if name in HYBRIDS else baselines)
    out = solve(name, tol=0.0, max_outer=6)
    assert out.iterations == len(calls) == 6
    x0 = calls[0][1]
    xs = [x0, *iterates(calls)]
    for n, (cuts, anchor, z) in enumerate(calls):
        q_cut = build_q_cut(*q_of(x0, xs[n]), xs[n])
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

    def project(cuts, x0, x0_sq):
        raise AssertionError("nothing to project")

    x0 = np.array([1.0, 2.0])
    out = drive("fixed", step, x0, 0.0, 3, RunCounters(), project=project,
                known_point=[0.0, 0.0])
    assert out.iterations == 3
    assert np.array_equal(out.final_x, x0)
    assert [(r.step_norm, r.degenerate_cuts) for r in out.trace] == [(0.0, 0)] * 3
    assert sum(out.invariant_violations.values()) == 0


def test_a_projection_closer_to_x0_than_the_last_counts_a_monotonicity_violation():
    # x_{n+1} = x0 + r_n e_1 with r = 3, 2, 2, 1: the distance to x0 drops
    # at iterations 2 and 4 only
    radii = iter([3.0, 2.0, 2.0, 1.0])

    def step(n, x, dx2):
        return Step(x[None] + 1.0, np.empty((0, x.size)), 0.0, 1.0, ProxRecord.of([]))

    def project(cuts, x0, x0_sq):
        return x0 + next(radii) * np.array([1.0, 0.0])

    out = drive("fixed", step, np.zeros(2), 0.0, 4, RunCounters(), project=project)
    assert out.iterations == 4
    assert out.invariant_violations["anchor_monotonicity"] == 2


@pytest.mark.parametrize("shift, count", [(0.3, 2), (1e-13, 0)])
def test_a_projection_outside_a_cut_counts_an_anchor_projection_violation(shift, count):
    # x0 = 0 and y = x + e_1 give C_n = {z_1 >= x_1 + 1/2} and Q_n =
    # {z_1 >= x_1}; the projector moves x_{n+1} back by ``shift`` along e_1
    # at iterations 2 and 4, which leaves it in Q_n and outside C_n by
    # ``shift`` in distance: counted beyond ANCHOR_PROJECTION_TOL only
    shifts = iter([0.0, shift, 0.0, shift])
    e1 = np.array([1.0, 0.0])

    def step(n, x, dx2):
        return Step(x[None] + e1, np.empty((0, x.size)), 0.0, 1.0, ProxRecord.of([]))

    xs = []

    def project(cuts, x0, x0_sq):
        xs.append(hybrid.project_halfspace_intersection(cuts, x0, x0_sq) - next(shifts) * e1)
        return xs[-1]

    out = drive("fixed", step, np.zeros(2), 0.0, 4, RunCounters(), project=project)
    assert [x[0] for x in xs] == pytest.approx(
        [0.5, 1.0 - shift, 1.5 - shift, 2.0 - 2 * shift])
    assert out.invariant_violations["anchor_projection"] == count
    assert out.invariant_violations["anchor_monotonicity"] == 0


def test_a_short_c_cut_normal_near_convergence_counts_no_anchor_projection_violation():
    # x0 = 0; iteration 1 cuts with C_1 = {z_1 >= 1}, so x_2 = (1, 0) and
    # Q_2 = {z_1 >= 1}; iteration 2 cuts with y = x_2 + (0, 1e-8), whose
    # C-cut {z_2 >= about 2e-8} has a normal of length 2e-8, as near a
    # tolerance of 1e-8.  x_3 = (1, 2e-8) lies in both cuts; (1, 0) would
    # lie 2e-8 outside the C-cut in distance
    points = iter([(np.array([[1.0, 0.0]]), -1.0), (np.array([[1.0, 1e-8]]), -3e-16)])

    def step(n, x, dx2):
        y, eps = next(points)
        return Step(y, np.empty((0, x.size)), eps, 1.0, ProxRecord.of([]))

    xs = []

    def project(cuts, x0, x0_sq):
        xs.append(hybrid.project_halfspace_intersection(cuts, x0, x0_sq))
        return xs[-1]

    out = drive("fixed", step, np.zeros(2), 0.0, 2, RunCounters(), project=project)
    assert out.iterations == 2
    assert out.invariant_violations["anchor_projection"] == 0
    assert xs[0].tolist() == [1.0, 0.0]
    assert xs[1] == pytest.approx([1.0, 2e-8], rel=1e-6)


def test_a_projection_error_counts_no_work_of_its_iteration():
    calls = []

    def step(n, x, dx2):
        records = [ProxRecord(1, 5, (), math.inf), ProxRecord(1, 7, ((0, None),), math.inf)]
        return Step(np.empty((0, x.size)), np.empty((0, x.size)), 0.0, 1.0,
                    ProxRecord.of(records))

    def project(cuts, x0, x0_sq):
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

    def failing(cuts, x0, x0_sq):
        calls.append(cuts)
        if len(calls) == 2:
            raise EmptyIntersection("planted at iteration 2")
        return real(cuts, x0, x0_sq)

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


@pytest.mark.parametrize("name", SOLVERS)
def test_certifying_with_a_negative_seed_fails_before_the_first_iteration(monkeypatch, name):
    # the seed is only drawn from when certificates are sampled
    assert solve(name, tol=0.0, max_outer=2, seed=-1).iterations == 2

    def no_run(*args, **kw):
        raise AssertionError("the run started")

    monkeypatch.setattr(hybrid if name in HYBRIDS else baselines, "drive", no_run)
    with pytest.raises(ParameterViolation, match=r"seed=-1 must be >= 0 with certify_probes=2"):
        solve(name, certify_probes=2, seed=-1)
