"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from csepsolve import (
    AffineOperator,
    Box,
    HybridParams,
    ViInducedBifunction,
    hybrid,
    run_parallel_hybrid,
)
from csepsolve.baselines import ArmijoParams, run_armijo_hybrid, run_hybrid_extragradient
from csepsolve.cli import main as cli_main
from csepsolve.errors import ParameterViolation
from csepsolve.geometry import (
    Ball,
    HalfspaceCut,
    Polyhedron,
    WholeSpace,
    dykstra_halfspaces,
    project_two_halfspaces,
)
from csepsolve.harness import RunSpec, compare
from csepsolve.hybrid import run_maxsel_hybrid, run_sequential, run_single
from csepsolve.prox import solve_prox

from conftest import (
    PROBLEM_DIR,
    csep3_plane_instance,
    halfline_instance,
    scalar_1d_instance,
)
from oracles import iterates, record_projections
from test_harness import load_problem


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


CERTIFY_PROBES = 200


@pytest.fixture(scope="module")
def acceptance_runs():
    """Shared certified runs: every per-iteration check on, 200 probes per
    inner solve."""
    kw = dict(certify_probes=CERTIFY_PROBES, seed=0)
    runs = {}

    halfline = halfline_instance()
    ref_h = halfline.reference_point()
    params_h = HybridParams(lam=0.4, k=6.0, tol=1e-8, max_outer=20_000)
    for name, runner in (("parallel", run_parallel_hybrid),
                         ("maxsel", run_maxsel_hybrid),
                         ("single", run_single),
                         ("sequential", run_sequential)):
        t0 = time.perf_counter()
        out = runner(halfline, params_h, known_point=ref_h, **kw)
        runs[f"halfline/{name}"] = (out, halfline, ref_h, time.perf_counter() - t0)

    scalar = scalar_1d_instance()
    ref_s = scalar.reference_point()
    t0 = time.perf_counter()
    out = run_single(scalar, HybridParams(lam=0.3, k=4.0, tol=1e-8,
                                          max_outer=20_000),
                     known_point=ref_s, **kw)
    runs["scalar/single"] = (out, scalar, ref_s, time.perf_counter() - t0)
    t0 = time.perf_counter()
    out = run_hybrid_extragradient(scalar, lam=0.3, tol=1e-8, known_point=ref_s, **kw)
    runs["scalar/extragradient"] = (out, scalar, ref_s, time.perf_counter() - t0)
    t0 = time.perf_counter()
    out = run_armijo_hybrid(scalar, ArmijoParams(eta=0.5, lam=0.3), tol=1e-8,
                            known_point=ref_s, **kw)
    runs["scalar/armijo"] = (out, scalar, ref_s, time.perf_counter() - t0)

    csep3 = csep3_plane_instance()
    ref_3 = csep3.reference_point()
    params_3 = HybridParams(lam=0.2, k=6.0, tol=1e-8, max_outer=20_000)
    for name, runner in (("parallel", run_parallel_hybrid),
                         ("maxsel", run_maxsel_hybrid),
                         ("sequential", run_sequential)):
        t0 = time.perf_counter()
        out = runner(csep3, params_3, known_point=ref_3, **kw)
        runs[f"csep3/{name}"] = (out, csep3, ref_3, time.perf_counter() - t0)

    quad = load_problem(str(PROBLEM_DIR / "ep_quadratic_2d.json"))
    ref_q = quad.reference_point()
    t0 = time.perf_counter()
    out = run_single(quad, HybridParams(lam=0.2, k=3.0, tol=1e-8, max_outer=5000),
                     known_point=ref_q, **kw)
    runs["quadratic/single"] = (out, quad, ref_q, time.perf_counter() - t0)

    for key, (out, _, _, _) in runs.items():
        assert out.error is None, f"{key} errored: {out.error}"
    return runs


def test_criterion_01_projection_toolbox(rng):
    started = time.perf_counter()
    n_cases = 10_000
    sets = {
        "box": Box([-1.0, -0.5, 0.0], [1.0, 1.5, 2.0]),
        "ball": Ball([0.2, -0.1, 0.3], 1.5),
        "whole": WholeSpace(3),
        "poly": Polyhedron([
            HalfspaceCut(np.array([1.0, 0.0, 0.0]), 0.6),
            HalfspaceCut(np.array([0.0, 1.0, 0.0]), 0.5),
            HalfspaceCut(np.array([1.0, 1.0, 1.0]), 0.9),
        ]),
    }
    worst_firm = worst_split = worst_char = np.inf
    for name, set_ in sets.items():
        batched = name != "poly"

        def proj(P):
            if batched:
                return set_.project(P)
            return np.array([set_.project(p) for p in P])

        X = rng.standard_normal((n_cases, 3)) * 2.0
        Y = rng.standard_normal((n_cases, 3)) * 2.0
        PX, PY = proj(X), proj(Y)
        firm = np.einsum("ij,ij->i", PX - PY, X - Y) - np.einsum(
            "ij,ij->i", PX - PY, PX - PY)
        worst_firm = min(worst_firm, float(firm.min()))

        inside = np.atleast_2d(set_.sample(rng, n_cases))
        split = (
            np.einsum("ij,ij->i", inside - Y, inside - Y)
            - np.einsum("ij,ij->i", inside - PY, inside - PY)
            - np.einsum("ij,ij->i", PY - Y, PY - Y)
        )
        worst_split = min(worst_split, float(split.min()))

        for _ in range(100):
            x = rng.standard_normal(3) * 2.0
            z = set_.project(x)
            probes = np.atleast_2d(set_.sample(rng, 100))
            char = (z - probes) @ (x - z)
            worst_char = min(worst_char, float(np.min(char)))

    pairs_checked = 0
    worst_pair = 0.0
    while pairs_checked < 1000:
        a1 = rng.standard_normal(3)
        a2 = rng.standard_normal(3)
        p = rng.standard_normal(3)
        c1 = HalfspaceCut(a1, float(a1 @ p) + abs(rng.standard_normal()))
        c2 = HalfspaceCut(a2, float(a2 @ p) + abs(rng.standard_normal()))
        x0 = rng.standard_normal(3) * 2.0
        closed = project_two_halfspaces(c1, c2, x0)
        iterative = dykstra_halfspaces([c1, c2], x0, tol=1e-10)
        worst_pair = max(worst_pair, float(np.linalg.norm(closed - iterative)))
        pairs_checked += 1

    elapsed = time.perf_counter() - started
    ok = (worst_firm >= -1e-10 and worst_split >= -1e-10
          and worst_char >= -1e-10 and worst_pair <= 1e-8 and elapsed < 10.0)
    report(
        "criterion 1: projection toolbox properties",
        ok,
        f"firm>={worst_firm:.1e}, split>={worst_split:.1e}, "
        f"char>={worst_char:.1e}, two-cut agreement<={worst_pair:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_prox_certificates(acceptance_runs, rng):
    worst = min(out.min_prox_certificate for out, _, _, _ in acceptance_runs.values())

    # exact projected-step identity for operator-induced subproblems
    worst_identity = 0.0
    box = Box(-np.ones(3), np.ones(3))
    f = ViInducedBifunction(AffineOperator(rng.standard_normal((3, 3)),
                                           rng.standard_normal(3)))
    for _ in range(200):
        w = rng.standard_normal(3)
        x = rng.standard_normal(3)
        lam = float(rng.uniform(0.05, 0.45))
        got = solve_prox(f, w, x, lam, box)[0][0]
        direct = box.project(x - lam * f.operator(w))
        worst_identity = max(worst_identity, float(np.linalg.norm(got - direct)))

    ok = worst >= -1e-6 and worst_identity <= 1e-12
    report(
        "criterion 2: prox certificates and projected-step identity",
        ok,
        f"min certificate {worst:.2e} over "
        f"{sum(o.counters.prox_solves for o, _, _, _ in acceptance_runs.values())} "
        f"solves, identity gap {worst_identity:.1e}",
    )


def test_criterion_03_per_iteration_inequalities(acceptance_runs):
    total = {}
    for key, (out, _, _, _) in acceptance_runs.items():
        for check, count in out.invariant_violations.items():
            total[check] = total.get(check, 0) + count
    ok = sum(total.values()) == 0
    report("criterion 3: per-iteration inequality checks", ok, str(total))


def test_criterion_04_strong_convergence_halfline(acceptance_runs):
    target = np.array([0.0, 0.3])
    details = []
    ok = True
    for name in ("parallel", "maxsel", "single", "sequential"):
        out, _, _, wall = acceptance_runs[f"halfline/{name}"]
        dist = float(np.linalg.norm(out.final_x - target))
        ok &= dist <= 1e-5 and out.iterations <= 20_000 and wall < 5.0
        details.append(f"{name}: {dist:.1e}/{out.iterations}it/{wall:.1f}s")
    report("criterion 4: anchored limit on the non-singleton problem", ok,
           "; ".join(details))


def test_criterion_05_three_problem_system(acceptance_runs):
    details = []
    ok = True
    finals = {}
    for name in ("parallel", "maxsel", "sequential"):
        out, _, ref, _ = acceptance_runs[f"csep3/{name}"]
        dist = float(np.linalg.norm(out.final_x - ref))
        finals[name] = out.final_x
        ok &= dist <= 1e-5
        details.append(f"{name}: {dist:.1e}")
    agreement = float(np.linalg.norm(finals["parallel"] - finals["maxsel"]))
    ok &= agreement <= 1e-4
    report("criterion 5: three-problem system reaches the oracle", ok,
           "; ".join(details) + f"; parallel-maxsel gap {agreement:.1e}")


def test_criterion_06_single_problem_coincidence(monkeypatch):
    inst = halfline_instance()
    params = HybridParams(lam=0.4, k=6.0, tol=0.0, max_outer=100)
    calls = record_projections(monkeypatch, hybrid)
    run_maxsel_hybrid(inst, params)
    xs_a = iterates(calls)
    calls.clear()
    run_single(inst, params)
    gaps = [float(np.linalg.norm(xa - xb)) for xa, xb in zip(xs_a, iterates(calls))]
    ok = len(gaps) == 100 and max(gaps) <= 1e-12
    report("criterion 6: max-selection equals the single-problem method at N=1",
           ok, f"max gap {max(gaps):.1e} over {len(gaps)} iterations")


def test_criterion_07_baseline_agreement(acceptance_runs):
    _, _, ref, _ = acceptance_runs["scalar/single"]
    details = []
    ok = True
    for name in ("single", "extragradient", "armijo"):
        out, _, _, _ = acceptance_runs[f"scalar/{name}"]
        dist = float(np.linalg.norm(out.final_x - ref))
        ok &= dist <= 1e-4
        details.append(f"{name}: {dist:.1e}")

    path = str(PROBLEM_DIR / "vi_scalar_1d.json")
    report_cmp = compare([
        RunSpec(problem_path=path, algorithm="single", lam=0.3, k=4.0),
        RunSpec(problem_path=path, algorithm="extragradient", lam=0.3),
    ])
    by_name = {r.algorithm: r for r in report_cmp.rows}
    ok &= by_name["extragradient"].prox_per_iteration == 2.0
    ok &= by_name["single"].prox_per_iteration == 1.0
    report("criterion 7: baselines reach the same limit at their stated cost",
           ok, "; ".join(details) + "; prox/it 2 vs 1")


def test_criterion_08_residual_decay(acceptance_runs):
    details = []
    ok = True
    tolerance_stopped = 0
    for key, (out, inst, _, _) in acceptance_runs.items():
        if out.stop_reason != "tolerance":
            continue
        tolerance_stopped += 1
        last = out.trace[-1]
        ok &= last.step_norm <= 1e-8 and last.residual <= 1e-8
        steps_sq = sum(r.step_norm**2 for r in out.trace)
        x0 = inst.x0
        spread = float(np.linalg.norm(out.final_x - x0)) ** 2
        ok &= steps_sq <= spread + 1e-8
        details.append(f"{key}: sum {steps_sq:.3e} <= {spread:.3e}")
    ok &= tolerance_stopped >= 8
    report("criterion 8: residuals vanish and squared steps telescope", ok,
           f"{tolerance_stopped} tolerance-stopped runs")


def test_criterion_09_parameter_gate():
    inst = scalar_1d_instance()
    raised = 0
    for lam, k in ((1.0, 4.0), (0.5, 4.0), (0.3, 2.0)):
        try:
            run_single(inst, HybridParams(lam=lam, k=k))
        except ParameterViolation:
            raised += 1
    code = cli_main(["solve", str(PROBLEM_DIR / "vi_scalar_1d.json"),
                     "--algorithm", "single", "--lambda", "1.0", "--k", "4"])
    ok = raised == 3 and code == 2
    report("criterion 9: inadmissible parameters rejected before iterating",
           ok, f"{raised}/3 raised, exit code {code}")


def test_criterion_10_determinism():
    spec = RunSpec(problem_path=str(PROBLEM_DIR / "vi_halfline_2d.json"),
                   algorithm="single", lam=0.4, k=6.0, seed=11,
                   certify_probes=50)
    from csepsolve.harness import run as run_spec

    a = run_spec(spec)
    b = run_spec(spec)
    identical = a.iterations == b.iterations and all(
        ra.step_norm == rb.step_norm
        and ra.residual == rb.residual
        and ra.eps_min == rb.eps_min
        and ra.eps_max == rb.eps_max
        and ra.dist_to_known == rb.dist_to_known
        for ra, rb in zip(a.trace, b.trace)
    )
    report("criterion 10: seeded reruns reproduce traces",
           identical, f"repeat identical: {identical}")
