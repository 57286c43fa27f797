"""Tests of the benchmark's span tracer.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
from csepsolve import baselines, geometry, harness, hybrid, outcome, problems  # noqa: E402

MODULES = dict(harness=harness, hybrid=hybrid, baselines=baselines,
               geometry=geometry, problems=problems, outcome=outcome)


def _current(entries):
    return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            for owner, attr, _, _ in entries]


def _solve(algorithm, name):
    instance = harness.load_problem(str(ROOT / "problems" / f"{name}.json"))
    known = harness.reference_solution(instance)
    lam, k = harness.derive_default_params(instance)
    params = hybrid.HybridParams(lam=lam, k=k, tol=1e-8, max_outer=300)
    return getattr(hybrid, algorithm)(instance, params, known_point=known)


def test_restore_puts_back_every_callable_and_results_are_unchanged():
    entries = spans.targets(**MODULES)
    before = _current(entries)
    plain = _solve("run_single", "vi_scalar_1d")
    tracer = spans.Tracer()
    tracer.install(entries)
    try:
        assert _current(entries) != before
        traced = _solve("run_single", "vi_scalar_1d")
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(_current(entries), before))
    assert traced.iterations == plain.iterations
    assert np.array_equal(traced.final_x, plain.final_x)


def test_layer_totals_count_the_work_of_each_iteration():
    tracer = spans.Tracer()
    tracer.install(spans.targets(**MODULES))
    try:
        two_cut = _solve("run_single", "vi_scalar_1d")
        many_cut = _solve("run_parallel_hybrid", "csep3_plane_3d")
    finally:
        tracer.restore()
    calls, incl, self_s, counts = tracer.layer_totals()
    iters = two_cut.iterations + many_cut.iterations
    assert calls["hybrid.solver"] == 2
    assert calls["prox.solve"] == two_cut.iterations + 3 * many_cut.iterations
    assert calls["geometry.anchor_project"] == iters
    # Four cuts reach Dykstra unless some degenerate to the whole space.
    assert 0 < calls["geometry.dykstra"] <= many_cut.iterations
    assert counts["prox.solve"] == [calls["prox.solve"], 0]
    assert calls["geometry.cut_new"] == 2 * two_cut.iterations + 4 * many_cut.iterations
    for name in calls:
        assert 0.0 <= self_s[name] <= incl[name] + 1e-9
