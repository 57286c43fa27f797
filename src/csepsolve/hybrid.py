"""Extra-step-free hybrid solvers built on cutting halfspaces.

Each outer iteration solves one proximal subproblem per equilibrium problem
(anchored at the previous subproblem solution, not at the current iterate,
which is what removes the extragradient corrector step), builds halfspace
cuts certified to contain the solution set, and projects the fixed anchor
x0 onto their intersection.  Four variants:

* ``run_parallel_hybrid`` - one cut per subproblem, N+1 halfspaces total;
* ``run_maxsel_hybrid``   - shared anchor sequence, the farthest subproblem
  solution defines a single cut, two halfspaces total;
* ``run_single``          - the N = 1 specialization;
* ``run_sequential``      - one subproblem per iteration, cycled.

The correction term added to each cut keeps the solution set inside despite
the missing corrector step; it may be negative and is used unclamped.

Every solver, the baselines in ``baselines`` included, shares one outer
loop, ``drive``.  A solver supplies only a *step*: a callable
``step(n, x, dx2) -> Step`` that keeps its own state (previous subproblem
solutions) and returns its C-cuts and residual.  ``drive`` owns the rest:
the anchor step x_{n+1} = P_{C_n ∩ Q_n}(x0), iteration count and timing,
work counters, the four per-iteration invariant checks, trace records, the
stop tests, turning a ``SolverError`` into an error outcome, and the outcome.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleCut, ParameterViolation, SolverError
from .geometry import (
    HalfspaceCut,
    as_point,
    norm,
    project_halfspace,
    project_halfspace_intersection,
    row_dots,
    row_norms,
)
from .outcome import (
    STOP_ERROR,
    STOP_MAX_OUTER,
    STOP_TOLERANCE,
    InnerNonconvergence,
    IterationRecord,
    RunCounters,
    SolverOutcome,
)
from .problems import CsepInstance, LipschitzData
from .prox import ProxResult, ProxSystem, solve_prox  # solve_prox: bench/spans.py wraps it

RULE_STRICT = "strict"
RULE_RELAXED = "relaxed"

# Slacks for the per-iteration checks.
CONTAINMENT_SLACK = 1e-8
DISTANCE_BOUND_SLACK = 1e-8
MONOTONE_SLACK = 1e-12
ANCHOR_PROJECTION_TOL = 1e-10

VIOLATION_KEYS = (
    "cut_containment",
    "solution_distance_bound",
    "anchor_monotonicity",
    "anchor_projection",
)


@dataclass
class HybridParams:
    """Step size lam, cut-inflation constant k, stopping tolerance, and caps.

    ``rule`` selects the admissible (lam, k) region: "strict" requires
    lam < 1/(2(c1+c2)) and k > 1/(1 - 2 lam (c1+c2)); "relaxed" requires
    lam < 1/(c1+c2) and k > 1/(1 - lam (c1+c2)).  Strict satisfies both
    published bound families and is the default everywhere.
    """

    lam: float
    k: float
    tol: float = 1e-8
    max_outer: int = 100_000
    rule: str = RULE_STRICT

    def __post_init__(self):
        rule_factor(self.rule)


def rule_factor(rule: str) -> float:
    """The factor of the step bound lam < 1/(factor (c1 + c2)): 2 under the
    strict rule, 1 under the relaxed one."""
    if rule not in (RULE_STRICT, RULE_RELAXED):
        raise ParameterViolation(f"unknown rule {rule!r}")
    return 2.0 if rule == RULE_STRICT else 1.0


def validate_params(params: HybridParams, c1: float, c2: float) -> None:
    """Check (lam, k) against the bound family selected by ``params.rule``."""
    s = c1 + c2
    factor = rule_factor(params.rule)
    if not 0.0 < params.lam < 1.0 / (factor * s):
        raise ParameterViolation(
            f"lam={params.lam:g} outside (0, {1.0 / (factor * s):g}) "
            f"for rule={params.rule} with c1+c2={s:g}"
        )
    k_floor = 1.0 / (1.0 - factor * params.lam * s)
    if not params.k > k_floor:
        raise ParameterViolation(f"k={params.k:g} must exceed {k_floor:g} for rule={params.rule}")


def epsilon(
    params: HybridParams, lip: LipschitzData, dx: float, dy_prev: float, dy: float
) -> float:
    """Cut correction term from squared displacements.

    ``dx``, ``dy_prev``, ``dy`` are ||x_n - x_{n-1}||^2, ||y_n - y_{n-1}||^2
    and ||y_{n+1} - y_n||^2.  May be negative; never clamped (the signed
    third term is what drives the residuals to zero).
    """
    return (
        params.k * dx
        + 2.0 * params.lam * lip.c1 * dy_prev
        - (1.0 - 1.0 / params.k - 2.0 * params.lam * lip.c2) * dy
    )


def build_c_cut(x_n: np.ndarray, y_next: np.ndarray, eps: float) -> HalfspaceCut:
    """Linearized cut {z : ||y_next - z||^2 <= ||x_n - z||^2 + eps}.

    Expands to 2<x_n - y_next, z> <= <x_n + y_next, x_n - y_next> + eps.
    Collapses to the whole space when y_next == x_n and the residual scalar
    inequality 0 <= eps holds; a contradictory collapse raises.
    """
    diff = x_n - y_next
    rhs = float((x_n + y_next) @ diff) + eps
    if norm(diff) < 1e-14:
        if rhs < -1e-12:
            raise InfeasibleCut(
                f"cut degenerated to the contradiction 0 <= {rhs:g}"
            )
        return HalfspaceCut(np.zeros_like(x_n), rhs)
    return HalfspaceCut(2.0 * diff, rhs)


def build_q_cut(x0: np.ndarray, x_n: np.ndarray) -> HalfspaceCut:
    """Anchor cut {z : <x0 - x_n, z - x_n> <= 0}; the whole space when x_n == x0."""
    normal = x0 - x_n
    return HalfspaceCut(normal, float(normal @ x_n))


def cyclic_index(n: int, n_problems: int) -> int:
    """0-based subproblem index for outer iteration n of the cyclic variant
    (iteration 1 works on subproblem 2 when more than one is present)."""
    return n % n_problems


class Step(NamedTuple):
    """What one outer iteration of an algorithm hands ``drive``.

    ``c_cuts`` are the iteration's C-cuts, to which ``drive`` adds the
    Q-cut; None when the step stopped at x without cutting, and then
    ``drive`` keeps x and runs no checks.  ``near`` is the (k, d) stack of
    points bounded by the solution-distance check and ``eps`` their
    correction term: one float shared by every row, or an array of k;
    ``prox`` holds the inner solves the step made and ``selected`` the
    subproblem it chose, if any.
    """

    c_cuts: list[HalfspaceCut] | None
    near: np.ndarray
    eps: float | np.ndarray
    residual: float
    prox: list[ProxResult]
    selected: int | None = None


def require_one_worker(workers: int) -> None:
    """Subproblems are solved serially; ``workers`` accepts only 1."""
    if workers != 1:
        raise ParameterViolation(
            f"workers={workers}: only 1 is supported (subproblems run serially)"
        )


def drive(
    algorithm: str,
    step: Callable[[int, np.ndarray, float], Step],
    x0: np.ndarray,
    tol: float,
    max_outer: int,
    counters: RunCounters,
    *,
    project: Callable[[list[HalfspaceCut], np.ndarray], np.ndarray] | None = None,
    known_point: np.ndarray | None = None,
    collect_iterates: bool = False,
) -> SolverOutcome:
    """Run the anchored iteration from x_1 = x0 until
    max(||x_{n+1} - x_n||, residual) <= tol or ``max_outer`` iterations.

    Iteration n calls ``step(n, x_n, ||x_n - x_{n-1}||^2)`` and takes the
    anchor step of the CQ method, x_{n+1} = ``project([*Step.c_cuts, Q_n], x0)``
    with Q_n = ``build_q_cut(x0, x_n)``; ``project`` defaults to
    ``project_halfspace_intersection``.

    Per iteration: checks that x_n is the projection of x0 onto Q_n,
    that ||x_{n+1} - x0|| does not decrease, and, given ``known_point``,
    that every cut contains it and that ||y - p||^2 <= ||x_n - p||^2 + eps
    for each row y of ``Step.near`` and its eps.  The trace records the
    least and greatest eps.  The first unconverged inner solve
    is recorded with its subproblem index: its position in ``Step.prox``,
    or ``Step.selected`` when the step solved that one subproblem alone.
    """
    if max_outer < 1 or not tol >= 0.0:
        raise ParameterViolation(f"need max_outer >= 1 and tol >= 0, got {max_outer} and {tol}")
    project = project or project_halfspace_intersection
    known_sq = math.nan  # ||x - known_point||^2 for the current x
    if known_point is not None:
        known_point = as_point(known_point, x0.size)
        known_sq = float((x0 - known_point) @ (x0 - known_point))
    violations = dict.fromkeys(VIOLATION_KEYS, 0)
    anchor_tol = ANCHOR_PROJECTION_TOL * (1.0 + norm(x0))
    trace: list[IterationRecord] = []
    iterates: list[np.ndarray] = []
    min_cert = np.inf
    first_nonconverged = None
    anchor_dist = 0.0
    dx2 = 0.0  # ||x - x_prev||^2
    x = x0.copy()
    stop_reason = STOP_MAX_OUTER
    error_msg = None

    try:
        for n in range(1, max_outer + 1):
            t0 = time.perf_counter()
            c_cuts, near, eps, residual, results, selected = step(n, x, dx2)
            if c_cuts is None:
                x_next, dx2, cuts = x, 0.0, []
            else:
                q_cut = build_q_cut(x0, x)
                cuts = [*c_cuts, q_cut]
                x_next = project(cuts, x0)
                d = x_next - x
                dx2 = float(d.dot(d))
                if not q_cut.is_whole_space and norm(project_halfspace(q_cut, x0) - x) > anchor_tol:
                    violations["anchor_projection"] += 1
                next_dist = norm(x_next - x0)
                if next_dist < anchor_dist - MONOTONE_SLACK:
                    violations["anchor_monotonicity"] += 1
                anchor_dist = next_dist
                if known_point is not None:
                    for cut in cuts:
                        if cut.violation(known_point) > CONTAINMENT_SLACK:
                            violations["cut_containment"] += 1
                    lhs = row_dots(near - known_point)
                    violations["solution_distance_bound"] += int(np.count_nonzero(
                        lhs > (known_sq + eps) + DISTANCE_BOUND_SLACK))
            counters.prox_solves += len(results)
            for j, r in enumerate(results):
                counters.set_projections += r.inner_iterations
                if not r.converged:
                    counters.prox_nonconverged += 1
                    if first_nonconverged is None:
                        i = selected if len(results) == 1 and selected is not None else j
                        first_nonconverged = InnerNonconvergence(n, i, r.diagnostic)
                if not math.isnan(r.certificate_gap):
                    min_cert = min(min_cert, r.certificate_gap)

            step_norm = math.sqrt(dx2)
            if known_point is not None:
                to_known = x_next - known_point
                known_sq = float(to_known @ to_known)
            eps_min, eps_max = (
                (eps, eps) if isinstance(eps, float) else (float(eps.min()), float(eps.max()))
            )
            trace.append(
                IterationRecord(
                    n=n,
                    step_norm=step_norm,
                    residual=residual,
                    eps_min=eps_min,
                    eps_max=eps_max,
                    dist_to_known=math.sqrt(known_sq),
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                    degenerate_cuts=sum(c.is_whole_space for c in cuts),
                    selected_index=selected,
                )
            )
            if collect_iterates:
                iterates.append(x_next.copy())
            x = x_next
            if max(step_norm, residual) <= tol:
                stop_reason = STOP_TOLERANCE
                break
    except SolverError as exc:
        stop_reason = STOP_ERROR
        error_msg = str(exc)

    return SolverOutcome(
        algorithm=algorithm,
        final_x=x,
        stop_reason=stop_reason,
        iterations=len(trace),
        trace=trace,
        invariant_violations=violations,
        counters=counters,
        min_prox_certificate=float(min_cert) if np.isfinite(min_cert) else float("nan"),
        error=error_msg,
        iterates=iterates if collect_iterates else None,
        first_nonconverged=first_nonconverged,
    )


def run_parallel_hybrid(instance: CsepInstance, params: HybridParams, **kw) -> SolverOutcome:
    """All subproblems per iteration; anchor projected onto N+1 halfspaces."""
    return _run("parallel", instance, params, **kw)


def run_maxsel_hybrid(instance: CsepInstance, params: HybridParams, **kw) -> SolverOutcome:
    """All subproblems per iteration; the farthest solution defines one cut."""
    return _run("maxsel", instance, params, **kw)


def run_single(instance: CsepInstance, params: HybridParams, **kw) -> SolverOutcome:
    """Single equilibrium problem; two-halfspace projection each iteration."""
    if instance.n_problems != 1:
        raise ParameterViolation("run_single requires an instance with N = 1")
    outcome = _run("maxsel", instance, params, **kw)
    outcome.algorithm = "single"
    return outcome


def run_sequential(instance: CsepInstance, params: HybridParams, **kw) -> SolverOutcome:
    """One subproblem per iteration, cycled modulo N."""
    return _run("sequential", instance, params, **kw)


def _run(
    mode: str,
    instance: CsepInstance,
    params: HybridParams,
    *,
    workers: int = 1,
    known_point: np.ndarray | None = None,
    certify_probes: int = 0,
    seed: int = 0,
    collect_iterates: bool = False,
) -> SolverOutcome:
    require_one_worker(workers)
    lips = instance.lipschitz_all()
    lip_max = LipschitzData.largest(lips)
    validate_params(params, lip_max.c1, lip_max.c2)
    x0 = as_point(instance.x0, instance.dimension)
    counters = RunCounters()
    y_init = instance.set.project(x0)
    counters.set_projections += 1

    system = ProxSystem(instance.bifunctions, params.lam, instance.set, certify_probes, seed)
    if mode == "parallel":
        step = _parallel_step(params, lips, y_init, system)
    else:
        step = _shared_anchor_step(params, lip_max, y_init, system, cyclic=mode == "sequential")
    return drive(mode, step, x0, params.tol, params.max_outer, counters,
                 known_point=known_point, collect_iterates=collect_iterates)


def _parallel_step(params, lips, y_init, system):
    """Every subproblem from its own previous solution; one C-cut each."""
    n_problems = len(lips)
    y_cur = np.tile(y_init, (n_problems, 1))
    dy_prev = [0.0] * n_problems  # ||y_cur[i] - y_prev[i]||^2, the previous dy

    def step(n, x, dx2):
        nonlocal y_cur, dy_prev
        y_next, results = system.solve(y_cur, x, n)
        dy = row_dots(y_next - y_cur).tolist()
        eps_list = [epsilon(params, lips[i], dx2, dy_prev[i], dy[i])
                    for i in range(n_problems)]
        cuts = [build_c_cut(x, y_next[i], eps_list[i]) for i in range(n_problems)]
        residual = float(row_norms(y_next - x).max())
        y_cur, dy_prev = y_next, dy
        return Step(cuts, y_next, np.array(eps_list), residual, results)

    return step


def _shared_anchor_step(params, lip, y_init, system, cyclic):
    """Subproblems anchored at one shared sequence ybar; one C-cut.

    ``maxsel`` (cyclic=False) solves every subproblem in one ``system``
    call and cuts with the solution farthest from x_n; ``sequential``
    (cyclic=True) solves only the one chosen by ``cyclic_index`` and
    measures the residual over the latest solution of each subproblem.
    """
    n_problems = len(system.fs)
    ybar = y_init
    dy_prev = 0.0  # ||ybar - ybar_prev||^2, the previous step's dy
    last_Y = np.tile(y_init, (n_problems, 1))  # latest solution of each subproblem

    def step(n, x, dx2):
        nonlocal ybar, dy_prev
        if cyclic:
            selected = cyclic_index(n, n_problems)
            results = [system.solve_one(selected, ybar, x, n)]
            y_next = last_Y[selected] = results[0].minimizer
            residual = float(row_norms(last_Y - x).max())
        else:
            Y, results = system.solve(ybar, x, n)
            dists = row_norms(Y - x)
            selected = int(dists.argmax())
            y_next = Y[selected]
            residual = float(dists[selected])
        dy = y_next - ybar
        dy2 = float(dy @ dy)
        eps = epsilon(params, lip, dx2, dy_prev, dy2)
        ybar, dy_prev = y_next, dy2
        return Step([build_c_cut(x, y_next, eps)], y_next[None] if cyclic else Y, eps,
                    residual, results, selected)

    return step
