"""Extra-step-free hybrid solvers built on cutting halfspaces.

Each outer iteration solves one proximal subproblem per equilibrium problem
(anchored at the previous subproblem solution, not at the current iterate,
which is what removes the extragradient corrector step), builds halfspace
cuts certified to contain the solution set, and projects the fixed anchor
x0 onto their intersection.  An iteration's subproblems travel as arrays:
the (N, d) minimizers with one ``ProxRecord`` of their inner solves, and
its cuts as one ``CutStack`` from ``build_cuts``.  Four variants:

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
solutions) and returns the points it cuts with, their correction terms,
its residual and ``ProxRecord``.  ``drive`` owns the rest: the cuts C_n
and Q_n (``build_cuts``), the anchor step x_{n+1} = P_{C_n ∩ Q_n}(x0),
iteration count and timing, work counters, the four per-iteration
invariant checks, trace records, the stop tests, turning a
``SolverError`` into an error outcome, and the outcome.
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
    DEGENERACY_THRESHOLD,
    WHOLE_SPACE_OFFSET_FLOOR,
    CutStack,
    HalfspaceCut,
    as_point,
    norm,
    project_halfspace,
    project_halfspace_intersection,
    row_dot,
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
from .prox import ProxRecord, ProxSystem, solve_prox  # solve_prox: bench/spans.py wraps it

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
    if norm(diff) < DEGENERACY_THRESHOLD:
        if rhs < WHOLE_SPACE_OFFSET_FLOOR:
            raise InfeasibleCut(
                f"cut degenerated to the contradiction 0 <= {rhs:g}"
            )
        return HalfspaceCut(np.zeros_like(x_n), rhs)
    return HalfspaceCut(2.0 * diff, rhs)


def build_q_cut(x0: np.ndarray, x_n: np.ndarray) -> HalfspaceCut:
    """Anchor cut {z : <x0 - x_n, z - x_n> <= 0}; the whole space when x_n == x0."""
    normal = x0 - x_n
    return HalfspaceCut(normal, float(normal @ x_n))


def build_cuts(x0: np.ndarray, x_n: np.ndarray, Y: np.ndarray,
               eps: float | np.ndarray) -> CutStack:
    """The cuts of iteration n: ``build_c_cut(x_n, Y[i], eps_i)`` for each of
    the k rows of Y, then Q_n = ``build_q_cut(x0, x_n)``, bit for bit and
    with the errors of building them one by one in that order.  ``eps`` is
    one float shared by every row or an array of k (unused when k = 0).

    One row gives the stack of those two cuts, and none the stack of Q_n
    alone.  More give one stack of k + 1 rows validated once: normals
    2(x_n - Y), offsets <x_n + Y, x_n - Y> + eps, and a zero normal where
    a row is within ``DEGENERACY_THRESHOLD`` of x_n, whose contradiction
    raises ``InfeasibleCut`` after any error of an earlier row.
    """
    k = len(Y)
    if k == 1:
        eps_0 = eps if isinstance(eps, float) else float(eps[0])
        return CutStack.of([build_c_cut(x_n, Y[0], eps_0), build_q_cut(x0, x_n)])
    if k == 0:
        return CutStack.of([build_q_cut(x0, x_n)])
    normals, offsets = np.empty((k + 1, x_n.size)), np.empty(k + 1)
    diff = x_n - Y
    np.multiply(diff, 2.0, out=normals[:k])
    offsets[:k] = row_dot(x_n + Y, diff) + eps
    normals[k] = q = x0 - x_n
    offsets[k] = q @ x_n
    degenerate = row_norms(diff) < DEGENERACY_THRESHOLD
    if np.count_nonzero(degenerate):
        normals[:k][degenerate] = 0.0
        bad = np.flatnonzero(degenerate & (offsets[:k] < WHOLE_SPACE_OFFSET_FLOOR))
        if bad.size:
            i = bad[0]
            CutStack(normals[:i], offsets[:i])  # the rows before i raise first
            raise InfeasibleCut(f"cut degenerated to the contradiction 0 <= {offsets[i]:g}")
    return CutStack(normals, offsets)


def cyclic_index(n: int, n_problems: int) -> int:
    """0-based subproblem index for outer iteration n of the cyclic variant
    (iteration 1 works on subproblem 2 when more than one is present)."""
    return n % n_problems


class Step(NamedTuple):
    """What one outer iteration of an algorithm hands ``drive``.

    ``points`` is the (k, d) stack of the points y that the iteration cuts
    with, for which ``drive`` builds the C-cuts and Q_n with ``build_cuts``;
    None when the step stopped at x without cutting, and then ``drive``
    keeps x and runs no checks.  ``near`` is the (m, d) stack of points
    bounded by the solution-distance check and ``eps`` the correction term
    of both: one float shared by every row, or an array of m, the rows of
    ``near``, which are then the points too (or there are none).
    ``prox`` records the inner solves the step made and ``selected`` is the
    subproblem it chose, if any.
    """

    points: np.ndarray | None
    near: np.ndarray
    eps: float | np.ndarray
    residual: float
    prox: ProxRecord
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
    project: Callable[[CutStack, np.ndarray], np.ndarray] | None = None,
    known_point: np.ndarray | None = None,
    collect_iterates: bool = False,
) -> SolverOutcome:
    """Run the anchored iteration from x_1 = x0 until
    max(||x_{n+1} - x_n||, residual) <= tol or ``max_outer`` iterations.

    Iteration n calls ``step(n, x_n, ||x_n - x_{n-1}||^2)`` and takes the
    anchor step of the CQ method, x_{n+1} = ``project(cuts, x0)`` for
    ``cuts = build_cuts(x0, x_n, Step.points, Step.eps)``, the C-cuts
    followed by Q_n; ``project`` defaults to
    ``project_halfspace_intersection``.

    Per iteration: checks that x_n is the projection of x0 onto Q_n,
    that ||x_{n+1} - x0|| does not decrease, and, given ``known_point``,
    that every cut contains it and that ||y - p||^2 <= ||x_n - p||^2 + eps
    for each row y of ``Step.near`` and its eps.  The trace records the
    least and greatest eps.  The work counters, the least certificate gap
    and the first unconverged inner solve, with its subproblem index, come
    from ``Step.prox``.
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
            points, near, eps, residual, record, selected = step(n, x, dx2)
            if points is None:
                x_next, dx2, degenerate = x, 0.0, 0
            else:
                cuts = build_cuts(x0, x, points, eps)
                q_cut = cuts[-1]
                x_next = project(cuts, x0)
                degenerate = len(cuts) - len(cuts.live)
                d = x_next - x
                dx2 = float(d.dot(d))
                if not q_cut.is_whole_space and norm(project_halfspace(q_cut, x0) - x) > anchor_tol:
                    violations["anchor_projection"] += 1
                next_dist = norm(x_next - x0)
                if next_dist < anchor_dist - MONOTONE_SLACK:
                    violations["anchor_monotonicity"] += 1
                anchor_dist = next_dist
                if known_point is not None:
                    violations["cut_containment"] += cuts.violated(known_point,
                                                                   CONTAINMENT_SLACK)
                    lhs = row_dots(near - known_point)
                    violations["solution_distance_bound"] += int(np.count_nonzero(
                        lhs > (known_sq + eps) + DISTANCE_BOUND_SLACK))
            counters.prox_solves += record.solves
            counters.set_projections += record.inner_iterations
            if record.nonconverged:
                counters.prox_nonconverged += len(record.nonconverged)
                if first_nonconverged is None:
                    first_nonconverged = InnerNonconvergence(n, *record.nonconverged[0])
            if record.min_certificate < min_cert:
                min_cert = record.min_certificate

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
                    degenerate_cuts=degenerate,
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
    """Every subproblem from its own previous solution; one C-cut each.

    The eps of all subproblems are k dx + a dy_prev - b dy with the arrays
    a = 2 lam c1 and b = 1 - 1/k - 2 lam c2 formed once: the operations of
    ``epsilon`` in its order, so each row equals it bit for bit.
    """
    n_problems = len(lips)
    k = params.k
    a = 2.0 * params.lam * np.array([lip.c1 for lip in lips])
    b = 1.0 - 1.0 / params.k - 2.0 * params.lam * np.array([lip.c2 for lip in lips])
    y_cur = np.tile(y_init, (n_problems, 1))
    dy_prev = np.zeros(n_problems)  # ||y_cur[i] - y_prev[i]||^2, the previous dy

    def step(n, x, dx2):
        nonlocal y_cur, dy_prev
        y_next, record = system.solve(y_cur, x, n)
        dy = row_dots(y_next - y_cur)
        eps = k * dx2 + a * dy_prev - b * dy
        residual = float(row_norms(y_next - x).max())
        y_cur, dy_prev = y_next, dy
        return Step(y_next, y_next, eps, residual, record)

    return step


def _shared_anchor_step(params, lip, y_init, system, cyclic):
    """Subproblems anchored at one shared sequence ybar; one C-cut point.

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
            Y, record = system.solve_row(selected, ybar, x, n)
            y_next = last_Y[selected] = Y[0]
            residual = float(row_norms(last_Y - x).max())
        else:
            Y, record = system.solve(ybar, x, n)
            dists = row_norms(Y - x)
            selected = int(dists.argmax())
            y_next = Y[selected]
            residual = float(dists[selected])
        dy = y_next - ybar
        dy2 = float(dy @ dy)
        eps = epsilon(params, lip, dx2, dy_prev, dy2)
        ybar, dy_prev = y_next, dy2
        return Step(Y if cyclic else y_next[None], Y, eps, residual, record, selected)

    return step
