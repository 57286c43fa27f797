"""csepsolve benchmark: closed-loop solve workloads through the public API.

Usage (from the repository root):

    python3 bench/run.py --workload bundled-twocut --seed 0 --seconds 20 --trace 0

One caller runs a workload's solves back to back in one process and one
thread.  A *pass* is the workload's whole solve list; the run repeats
passes until ``--seconds`` have elapsed, with a fresh set-up before each.
Every solve goes through the set-up that ``harness.run`` uses
(``load_problem`` -> ``reference_solution`` -> derived parameters), is
given the oracle point so that all four invariant checks run, and writes
its trace CSV and summary JSON as the CLI does.

Times are reported in *reference seconds*.  A shared 2-vCPU 2.1 GHz Xeon
VM was measured changing speed by up to 1.6x for stretches of seconds to a
minute (thread CPU time follows wall time, so it is not preemption); raw
medians of runs minutes apart then differ by more than any useful bound.
A fixed interpreter-plus-numpy kernel (``reference_kernel``, independent of
csepsolve) therefore runs before every set-up and solve and after the
last, and each time is scaled by REF_SECONDS over the mean of the two
kernel times around it.  The raw median solve time is printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs one
pass with spans around every layer (see ``spans.py``) and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs go to ``.bench_out/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: the benchmark measures a single-threaded solver.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS thread setting)

import gen  # noqa: E402
from spans import Tracer, targets  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"

TOL = 1e-8
# Nominal time of one reference_kernel call; fixes the unit "reference
# second".  The kernel took 3-5 ms per call on a 2-vCPU 2.1 GHz Xeon VM
# with numpy 2.4.6.
REF_SECONDS = 0.004
# A tolerance stop farther than this from the oracle counts as a failed solve.
ORACLE_DIST_LIMIT = 1e-6

N1_FILES = ("ep_quadratic_2d", "vi_halfline_2d", "vi_scalar_1d")
MULTI_FILES = ("csep2_zero_2d", "csep3_mixed_3d", "csep3_plane_3d")

WORKLOADS = ("bundled-twocut", "cutpool", "synth-highdim")
# End-to-end metrics in the result line.  converged_frac and failed_frac are
# printed but left out: converged_frac is 0 on synth-highdim and failed_frac
# is 0 everywhere, so neither has a median to bound a change against;
# failures reach the result through "failed" and "correct".
END_TO_END = ("solve_s", "iters_per_s", "iter_us.p50", "iter_us.p99", "outer_iters",
              "final_dist.gmean", "setup_s", "peak_rss_mb")


def reference_kernel() -> float:
    """Seconds taken by a fixed loop of small numpy calls and matvecs."""
    t0 = time.perf_counter()
    M = np.full((64, 64), 1.0 / 64.0)
    x = np.linspace(-1.0, 1.0, 64)
    acc = 0.0
    for i in range(400):
        y = np.clip(M @ x - 1e-3 * i, -1.0, 1.0)
        acc += float(y @ x)
        x = 0.5 * (x + y)
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel diverged")
    return time.perf_counter() - t0


def _bundled(name: str) -> str:
    return str(PROBLEMS / f"{name}.json")


def workload_solves(workload: str, seed: int, out_dir: Path):
    """(problem path, algorithm) pairs and the outer-iteration budget.

    The seed fixes the synthetic systems and the order of the solves; the
    k-th synthetic system of a workload draws from the stream (seed, k).
    """
    gen_dir = out_dir / "problems"
    gen_dir.mkdir(parents=True, exist_ok=True)
    made = []

    def synthetic(family, d, n):
        k = len(made)
        made.append(str(gen_dir / f"{family}_{k}_d{d}_n{n}.json"))
        gen.write(made[-1], getattr(gen, family)((seed, k), d, n))
        return made[-1]

    if workload == "bundled-twocut":
        budget = 1000
        solves = [(_bundled(f), a) for f in N1_FILES + MULTI_FILES
                  for a in ("maxsel", "sequential")]
        solves += [(_bundled(f), a) for f in N1_FILES for a in ("single", "parallel")]
    elif workload == "cutpool":
        budget = 550
        solves = [(_bundled(f), "parallel") for f in MULTI_FILES]
        solves += [(_bundled(f), a) for f in N1_FILES
                   for a in ("extragradient", "armijo")]
        # Two systems per size: the Dykstra cost of an iteration depends on
        # the cut geometry, which varies from system to system.
        for d, n in ((10, 4), (16, 6), (20, 8)) * 2:
            solves.append((synthetic("vi_system", d, n), "parallel"))
    elif workload == "synth-highdim":
        budget = 300
        solves = []
        for _ in range(2):
            path = synthetic("vi_system", 100, 16)
            solves += [(path, "maxsel"), (path, "sequential")]
        for _ in range(2):
            solves.append((synthetic("aq_system", 50, 4), "maxsel"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    order = np.random.default_rng(seed).permutation(len(solves))
    return [solves[i] for i in order], budget


@dataclass
class Job:
    """One prepared solve: the runner and its arguments, and output paths."""

    spec: object
    runner: tuple
    args: tuple
    kwargs: dict
    trace_path: str
    summary_path: str


def set_up(api, solves, budget, seed, out_dir: Path) -> list[Job]:
    """The harness.run set-up for every solve: load, oracle, parameters."""
    harness, hybrid, baselines = api["harness"], api["hybrid"], api["baselines"]
    loaded = {}
    jobs = []
    for i, (path, algorithm) in enumerate(solves):
        if path not in loaded:
            instance = harness.load_problem(path)
            loaded[path] = (instance, harness.reference_solution(instance))
        instance, known = loaded[path]
        spec = harness.RunSpec(problem_path=path, algorithm=algorithm, tol=TOL,
                               max_outer=budget, seed=seed, workers=1)
        common = dict(known_point=known, certify_probes=0, seed=seed)
        if algorithm in ("parallel", "maxsel", "single", "sequential"):
            spec.lam, spec.k = harness.derive_default_params(instance, spec.rule)
            params = hybrid.HybridParams(lam=spec.lam, k=spec.k, tol=TOL,
                                         max_outer=budget, rule=spec.rule)
            runner = (hybrid, {"parallel": "run_parallel_hybrid",
                               "maxsel": "run_maxsel_hybrid",
                               "single": "run_single",
                               "sequential": "run_sequential"}[algorithm])
            args, kwargs = (instance, params), dict(workers=1, **common)
        elif algorithm == "extragradient":
            spec.lam = harness.extragradient_default_lam(instance)
            runner = (baselines, "run_hybrid_extragradient")
            args, kwargs = (instance, spec.lam), dict(tol=TOL, max_outer=budget, **common)
        else:
            spec.lam = harness.derive_default_params(instance)[0]
            params = baselines.ArmijoParams(eta=spec.eta, lam=spec.lam)
            runner = (baselines, "run_armijo_hybrid")
            args, kwargs = (instance, params), dict(tol=TOL, max_outer=budget, **common)
        stem = out_dir / f"{i:02d}-{Path(path).stem}-{algorithm}"
        jobs.append(Job(spec, runner, args, kwargs,
                        f"{stem}.trace.csv", f"{stem}.summary.json"))
    return jobs


@dataclass
class SolveResult:
    algorithm: str
    stop_reason: str
    iterations: int
    final_x: bytes
    dist: float
    violations: int
    error: str | None
    wall_ms: list
    seconds: float = 0.0
    # REF_SECONDS over the reference kernel's time around this solve.
    scale: float = 1.0

    @property
    def failed(self) -> bool:
        return (self.stop_reason == "error" or self.violations != 0
                or (self.stop_reason == "tolerance" and not self.dist <= ORACLE_DIST_LIMIT))


def solve(api, job: Job) -> SolveResult:
    """One solve as the CLI does it: run, then write the trace and summary."""
    owner, name = job.runner
    t0 = time.perf_counter()
    outcome = getattr(owner, name)(*job.args, **job.kwargs)
    wall_ms = (time.perf_counter() - t0) * 1e3
    api["outcome"].write_trace(job.trace_path, outcome.trace)
    summary = api["harness"].summarize(job.spec, outcome, wall_ms)
    with open(job.summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return SolveResult(
        algorithm=job.spec.algorithm,
        stop_reason=outcome.stop_reason,
        iterations=outcome.iterations,
        final_x=outcome.final_x.tobytes(),
        dist=outcome.final_dist_to_known(),
        violations=outcome.total_violations,
        error=outcome.error,
        wall_ms=[r.wall_ms for r in outcome.trace],
    )


def run_pass(api, jobs, tracer=None):
    """All solves back to back, the reference kernel between them.

    Returns (solve reference seconds, results).
    """
    results = []
    ref = reference_kernel()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.solve_id = i
        t0 = time.perf_counter()
        result = solve(api, job)
        result.seconds = time.perf_counter() - t0
        ref_after = reference_kernel()
        result.scale = 2.0 * REF_SECONDS / (ref + ref_after)
        ref = ref_after
        results.append(result)
    return sum(r.seconds * r.scale for r in results), results


def same_results(a, b) -> bool:
    return all(x.iterations == y.iterations and x.final_x == y.final_x
               for x, y in zip(a, b)) and len(a) == len(b)


def parity_check(api, jobs, results, out_dir: Path) -> list[str]:
    """Per algorithm, the cheapest solve again through harness.run(RunSpec).

    The benchmark's set-up-then-solve path must give the same iteration
    count and a bitwise-equal final point.
    """
    harness = api["harness"]
    cheapest = {}
    for job, res in zip(jobs, results):
        best = cheapest.get(res.algorithm)
        if best is None or res.iterations < best[1].iterations:
            cheapest[res.algorithm] = (job, res)
    problems = []
    for algorithm, (job, res) in sorted(cheapest.items()):
        spec = harness.RunSpec(
            problem_path=job.spec.problem_path, algorithm=algorithm, tol=TOL,
            max_outer=job.spec.max_outer, seed=job.spec.seed, workers=1,
            trace_path=str(out_dir / f"parity-{algorithm}.trace.csv"),
            summary_path=str(out_dir / f"parity-{algorithm}.summary.json"),
        )
        outcome = harness.run(spec)
        if (outcome.iterations != res.iterations
                or outcome.final_x.tobytes() != res.final_x):
            problems.append(f"{algorithm} on {Path(spec.problem_path).name}: "
                            f"harness.run gave {outcome.iterations} iterations, "
                            f"the benchmark {res.iterations}, or final_x differs")
    return problems


def timed_set_up(api, solves, budget, seed, out_dir):
    """One set-up; returns (seconds, scale to reference seconds, jobs)."""
    ref = reference_kernel()
    t0 = time.perf_counter()
    jobs = set_up(api, solves, budget, seed, out_dir)
    dt = time.perf_counter() - t0
    return dt, 2.0 * REF_SECONDS / (ref + reference_kernel()), jobs


def end_to_end(passes, setup_times):
    """The workload's end-to-end metrics; every pass holds the same solves.

    Every pass repeats the same deterministic computation.  A solve's time
    is the median over passes of its reference seconds; ``solve_s`` sums
    them.  Each outer iteration's time is the median over passes of its
    ``IterationRecord.wall_ms`` in reference units, and the percentiles are
    taken over those per-iteration medians.  ``setup_s`` is the median
    set-up.
    """
    results = passes[0][1]
    outer = sum(r.iterations for r in results)
    solve_s = 0.0
    iter_ms = []
    for j in range(len(results)):
        runs = [rs[j] for _, rs in passes]
        solve_s += statistics.median(r.seconds * r.scale for r in runs)
        iter_ms.append(np.median([np.asarray(r.wall_ms) * r.scale for r in runs], axis=0))
    iter_us = np.concatenate(iter_ms) * 1e3
    p50, p99 = np.percentile(iter_us, [50, 99])
    dists = [r.dist for r in results]
    n = len(results)
    metrics = {
        "solve_s": (solve_s, "s"),
        "iters_per_s": (outer / solve_s, "1/s"),
        "iter_us.p50": (float(p50), "us"),
        "iter_us.p99": (float(p99), "us"),
        "outer_iters": (outer, "count"),
        "converged_frac": (sum(r.stop_reason == "tolerance" for r in results) / n, "ratio"),
        "failed_frac": (sum(r.failed for r in results) / n, "ratio"),
        # The floor keeps an exact hit of the oracle from zeroing the mean.
        "final_dist.gmean": (
            math.exp(statistics.fmean(math.log(max(d, 1e-300)) for d in dists)), "dist"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_s = statistics.median(sum(r.seconds for r in rs) for _, rs in passes)
    notes = {
        "solve_s": f"{n} solves, median of {len(passes)} passes; raw median {raw_s:.4g} s",
        "iter_us.p50": f"{outer} iterations, each the median of {len(passes)} repeats",
        "iter_us.p99": f"{outer} iterations, each the median of {len(passes)} repeats",
        "setup_s": f"median of {len(setup_times)} set-ups",
    }
    return metrics, notes


def per_layer(tracer, traced, untraced_s, outer_iters, setup_tracer, setup_scale):
    """Per-layer metrics from one traced pass and one traced set-up.

    Times are in reference units, like the end-to-end metrics; shares are
    fractions of the traced pass's raw solve time.
    """
    calls, incl, self_s, counts = tracer.layer_totals()
    s_calls, s_incl, _, _ = setup_tracer.layer_totals()
    traced_raw_s = sum(r.seconds for r in traced)
    traced_s = sum(r.seconds * r.scale for r in traced)
    per_it = 1e6 / outer_iters * traced_s / traced_raw_s

    def us(x):
        return (x * per_it, "us/iter")

    def mean_count(name):
        return counts[name][0] / calls[name] if name in counts else 0.0

    solver_self = self_s["hybrid.solver"] + self_s["baselines.solver"]
    return {
        "hybrid.self_us_per_iter": us(self_s["hybrid.solver"]),
        "hybrid.build_cut.us_per_iter": us(incl["hybrid.build_cut"]),
        "hybrid.check.us_per_iter": us(incl["hybrid.check"]),
        "geometry.cut_new.calls_per_iter": (calls["geometry.cut_new"] / outer_iters, "calls/iter"),
        "geometry.cut_new.us_per_iter": us(incl["geometry.cut_new"]),
        "geometry.two_halfspace.us_per_iter": us(incl["geometry.two_halfspace"]),
        "outcome.write_trace.us_per_iter": us(incl["outcome.write_trace"]),
        "geometry.anchor_project.us_per_iter": us(incl["geometry.anchor_project"]),
        "geometry.anchor_project.halfspaces": (mean_count("geometry.anchor_project"), "count"),
        "geometry.dykstra.calls_per_iter": (calls["geometry.dykstra"] / outer_iters, "calls/iter"),
        "geometry.dykstra.us_per_iter": us(incl["geometry.dykstra"]),
        "baselines.linesearch.us_per_iter": us(incl["baselines.linesearch"]),
        "baselines.linesearch.trials_per_call": (mean_count("baselines.linesearch"), "count"),
        "baselines.self_us_per_iter": us(self_s["baselines.solver"]),
        "prox.solve.calls_per_iter": (calls["prox.solve"] / outer_iters, "calls/iter"),
        "prox.solve.us_per_iter": us(incl["prox.solve"]),
        "prox.solve.self_us_per_iter": us(self_s["prox.solve"]),
        "prox.inner_iters_per_call": (mean_count("prox.solve"), "count"),
        "prox.nonconverged": (counts["prox.solve"][1] if "prox.solve" in counts else 0, "count"),
        "geometry.set_project.calls_per_iter": (
            calls["geometry.set_project"] / outer_iters, "calls/iter"),
        "geometry.set_project.us_per_iter": us(incl["geometry.set_project"]),
        "harness.load_problem.ms": (s_incl["harness.load_problem"] * 1e3 * setup_scale, "ms"),
        "problems.spectral_norm.calls": (s_calls["problems.spectral_norm"], "count"),
        "problems.spectral_norm.ms": (
            s_incl["problems.spectral_norm"] * 1e3 * setup_scale, "ms"),
        "share.prox": (incl["prox.solve"] / traced_raw_s, "ratio"),
        "share.anchor_project": (incl["geometry.anchor_project"] / traced_raw_s, "ratio"),
        "share.build_cut": (incl["hybrid.build_cut"] / traced_raw_s, "ratio"),
        "share.check": (incl["hybrid.check"] / traced_raw_s, "ratio"),
        "share.self": (solver_self / traced_raw_s, "ratio"),
        "share.write_trace": (incl["outcome.write_trace"] / traced_raw_s, "ratio"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
    }


def load_api():
    """Import csepsolve from this checkout's ``src``; None when it is absent."""
    if not (SRC / "csepsolve" / "__init__.py").is_file() or not PROBLEMS.is_dir():
        return None
    sys.path.insert(0, str(SRC))
    import csepsolve
    from csepsolve import baselines, geometry, harness, hybrid, outcome, problems

    if Path(csepsolve.__file__).resolve().parent != SRC / "csepsolve":
        return None
    return dict(harness=harness, hybrid=hybrid, baselines=baselines,
                geometry=geometry, problems=problems, outcome=outcome)


def report(metrics, notes, title):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:>16.6g} {unit}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    api = load_api()
    if api is None:
        print(f"error: no csepsolve sources under {SRC} or no {PROBLEMS}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    solves, budget = workload_solves(args.workload, args.seed, out_dir)
    print(f"# workload {args.workload}: {len(solves)} solves per pass, tol {TOL:g}, "
          f"budget {budget} outer iterations, seed {args.seed}")
    print(f"# nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, BLAS threads {BLAS_THREADS}, workers 1")

    # Each pass gets a fresh set-up, so that set-up repeats are spread over
    # the run like the passes are.
    setup_times = []
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        setup_s, scale, jobs = timed_set_up(api, solves, budget, args.seed, out_dir)
        setup_times.append(setup_s * scale)
        passes.append(run_pass(api, jobs))

    problems = []
    base = passes[0][1]
    if not all(same_results(base, p[1]) for p in passes[1:]):
        problems.append("passes disagree on iterations or final_x")
    problems += parity_check(api, jobs, base, out_dir)
    for job, res in zip(jobs, base):
        if res.failed:
            problems.append(f"failed solve: {res.algorithm} on "
                            f"{Path(job.spec.problem_path).name}: stop {res.stop_reason}, "
                            f"{res.violations} violations, dist {res.dist:.3g}, "
                            f"error {res.error}")
    attempted = sum(len(p[1]) for p in passes)
    failed = sum(r.failed for p in passes for r in p[1])

    metrics, notes = end_to_end(passes, setup_times)
    report(metrics, notes, "end-to-end (untraced)")
    if args.trace:
        tracer, setup_tracer = Tracer(), Tracer()
        entries = targets(**{k: api[k] for k in ("harness", "hybrid", "baselines",
                                                  "geometry", "problems", "outcome")})
        setup_tracer.install(entries)
        try:
            _, setup_scale, jobs = timed_set_up(api, solves, budget, args.seed, out_dir)
        finally:
            setup_tracer.restore()
        tracer.install(entries)
        try:
            _, traced = run_pass(api, jobs, tracer)
        finally:
            tracer.restore()
        attempted += len(traced)
        failed += sum(r.failed for r in traced)
        if not same_results(base, traced):
            problems.append("traced pass differs from untraced in iterations or final_x")
        untraced_s = statistics.median(p[0] for p in passes)
        metrics = per_layer(tracer, traced, untraced_s, metrics["outer_iters"][0],
                            setup_tracer, setup_scale)
        report(metrics, {}, f"per-layer (one traced pass, {len(tracer.spans)} spans)")
        tracer.write(str(out_dir / "spans.csv"))
        setup_tracer.write(str(out_dir / "setup_spans.csv"))
    else:
        metrics = {k: metrics[k] for k in END_TO_END}

    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
