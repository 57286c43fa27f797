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

Every solver, the baselines included, is a *step* for the one outer loop
``drive``: ``step(n, x, dx2) -> Step`` keeps its own state, and ``drive``
owns the cuts, anchor step, checks, counters, trace, stop tests and outcome.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterViolation, SolverError
from .geometry import (
    CutStack,
    HalfspaceCut,
    as_point,
    count_nonzero,
    dot,
    max_of,
    project_halfspace,  # not called here; bench/spans.py wraps it by name in this module
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


def lam_bound(rule: str, c1: float, c2: float) -> float:
    """The bound 1/(factor (c1 + c2)) that lam must stay below under ``rule``."""
    return 1.0 / (rule_factor(rule) * (c1 + c2))


def k_floor(rule: str, lam: float, c1: float, c2: float) -> float:
    """The floor 1/(1 - factor lam (c1 + c2)) that k must exceed under ``rule``."""
    return 1.0 / (1.0 - rule_factor(rule) * lam * (c1 + c2))


def validate_params(params: HybridParams, c1: float, c2: float) -> None:
    """Check (lam, k) against the bound family selected by ``params.rule``;
    k must also be finite, since an infinite k makes every cut's eps
    non-finite."""
    bound = lam_bound(params.rule, c1, c2)
    if not 0.0 < params.lam < bound:
        raise ParameterViolation(
            f"lam={params.lam:g} outside (0, {bound:g}) "
            f"for rule={params.rule} with c1+c2={c1 + c2:g}"
        )
    floor = k_floor(params.rule, params.lam, c1, c2)
    if not floor < params.k < math.inf:
        raise ParameterViolation(
            f"k={params.k:g} must be finite and exceed {floor:g} for rule={params.rule}")


def eps_coefficients(params: HybridParams, c1, c2):
    """The coefficients a = 2 lam c1 and b = 1 - 1/k - 2 lam c2, for float
    or array constants c1, c2, of the cut correction
    eps = k dx + a dy_prev - b dy, where dx, dy_prev and dy are
    ||x_n - x_{n-1}||^2, ||y_n - y_{n-1}||^2 and ||y_{n+1} - y_n||^2.
    eps may be negative and is never clamped."""
    return 2.0 * params.lam * c1, 1.0 - 1.0 / params.k - 2.0 * params.lam * c2


def build_c_cut(x_n: np.ndarray, y_next: np.ndarray, eps: float) -> HalfspaceCut:
    """Linearized cut {z : ||y_next - z||^2 <= ||x_n - z||^2 + eps}.

    Expands to 2<x_n - y_next, z> <= <x_n + y_next, x_n - y_next> + eps.
    ``HalfspaceCut`` decides the collapse: the whole space when
    ||2(x_n - y_next)|| < 1e-14 and the offset is at least -1e-12, else
    ``DegenerateCut``.
    """
    diff = x_n - y_next
    normal = 2.0 * diff
    return HalfspaceCut._of(normal, dot(x_n + y_next, diff) + eps, float(normal.dot(normal)))


def build_q_cut(q: np.ndarray, q_sq: float, x_n: np.ndarray) -> HalfspaceCut:
    """Anchor cut {z : <x0 - x_n, z - x_n> <= 0} from its normal q = x0 - x_n
    and q_sq = <q, q>; the whole space when x_n == x0."""
    return HalfspaceCut._of(q, dot(q, x_n), q_sq)


def build_cuts(x_n: np.ndarray, Y: np.ndarray, eps: float | np.ndarray,
               q: np.ndarray, q_sq: float) -> CutStack:
    """The cuts of iteration n: ``build_c_cut(x_n, Y[i], eps_i)`` for each of
    the k rows of Y, then Q_n = ``build_q_cut(q, q_sq, x_n)`` for
    q = x0 - x_n and q_sq = <q, q>, bit for bit.  ``eps`` is one float
    shared by every row or an array of k (unused when k = 0).

    At most one row gives ``CutStack.of`` those cuts, which raise in row
    order.  More give ``CutStack(normals, offsets)`` of all k + 1 rows,
    which raises on non-finite data before a contradictory row.
    """
    k = len(Y)
    if k <= 1:
        cuts = []
        if k:
            eps_0 = eps if isinstance(eps, float) else float(eps[0])
            cuts.append(build_c_cut(x_n, Y[0], eps_0))
        cuts.append(build_q_cut(q, q_sq, x_n))
        return CutStack.of(cuts)
    normals, offsets = np.empty((k + 1, x_n.size)), np.empty(k + 1)
    diff = x_n - Y
    np.multiply(diff, 2.0, out=normals[:k])
    offsets[:k] = row_dot(x_n + Y, diff) + eps
    normals[k], offsets[k] = q, dot(q, x_n)
    return CutStack(normals, offsets)


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
    project: Callable[[CutStack, np.ndarray, float], np.ndarray] | None = None,
    known_point: np.ndarray | None = None,
) -> SolverOutcome:
    """Run the anchored iteration from x_1 = x0 until
    max(||x_{n+1} - x_n||, residual) <= tol or ``max_outer`` iterations.

    Iteration n calls ``step(n, x_n, ||x_n - x_{n-1}||^2)`` and takes the
    anchor step of the CQ method, x_{n+1} = ``project(cuts, x0, <x0, x0>)``
    for ``cuts = build_cuts(x_n, Step.points, Step.eps, x0 - x_n,
    <x0 - x_n, x0 - x_n>)``, the C-cuts followed by Q_n, with x0 validated
    and its squared norm taken once per run.  ``project`` defaults to
    ``project_halfspace_intersection``.

    Per iteration, one ``CutStack.audit`` counts the live cuts that x_{n+1}
    lies outside of by more than ``ANCHOR_PROJECTION_TOL * (1 + ||x0||)``
    in distance (a projector that misses C_n ∩ Q_n) and, given
    ``known_point``, the cuts that exclude it.  ``drive`` also checks that
    ||x_{n+1} - x0|| does not decrease and, given ``known_point``, that
    ||y - p||^2 <= ||x_n - p||^2 + eps for each row y of ``Step.near`` and
    its eps.  Only in an iteration in which some check fired does it note,
    for each check, the first iteration at which it fired.  The trace
    records the least and greatest eps.  The work counters, the least
    certificate gap and the first unconverged inner solve, with its
    subproblem index, come from ``Step.prox``.  A ``SolverError`` ends the
    run with its message, or its class name when it has none.
    """
    if max_outer < 1 or not tol >= 0.0:
        raise ParameterViolation(f"need max_outer >= 1 and tol >= 0, got {max_outer} and {tol}")
    x0 = as_point(x0)
    if project is None:
        project = project_halfspace_intersection
    known_sq = math.nan  # ||x - known_point||^2 for the current x
    if known_point is not None:
        known_point = as_point(known_point, x0.size)
        known_sq = float((x0 - known_point) @ (x0 - known_point))
    violations = dict.fromkeys(VIOLATION_KEYS, 0)
    first_violation = dict.fromkeys(VIOLATION_KEYS)
    x0_sq = float(x0.dot(x0))
    anchor_tol = ANCHOR_PROJECTION_TOL * (1.0 + math.sqrt(x0_sq))  # norm(x0), bit for bit
    trace: list[IterationRecord] = []
    min_cert = np.inf
    first_nonconverged = None
    anchor_dist = 0.0
    dx2 = 0.0  # ||x - x_prev||^2
    x = x0.copy()
    q = x0 - x  # Q_n's normal x0 - x_n, and q_sq = <q, q>
    q_sq = float(q.dot(q))
    stop_reason = STOP_MAX_OUTER
    error_msg = None

    try:
        for n in range(1, max_outer + 1):
            t0 = time.perf_counter()
            points, near, eps, residual, record, selected = step(n, x, dx2)
            if points is None:
                x_next, dx2, degenerate = x, 0.0, 0
            else:
                cuts = build_cuts(x, points, eps, q, q_sq)
                x_next = project(cuts, x0, x0_sq)
                degenerate = cuts.n_whole
                d = x_next - x
                dx2 = float(d.dot(d))
                outside, excluding = cuts.audit(x_next, anchor_tol, known_point,
                                                CONTAINMENT_SLACK)
                violations["anchor_projection"] += outside
                violations["cut_containment"] += excluding
                fired = outside + excluding
                q = x0 - x_next
                q_sq = float(q.dot(q))
                next_dist = math.sqrt(q_sq)  # ||x_{n+1} - x0||, bit for bit
                if next_dist < anchor_dist - MONOTONE_SLACK:
                    violations["anchor_monotonicity"] += 1
                    fired += 1
                anchor_dist = next_dist
                if known_point is not None:
                    lhs = row_dots(near - known_point)
                    above = int(count_nonzero(lhs > (known_sq + eps) + DISTANCE_BOUND_SLACK))
                    violations["solution_distance_bound"] += above
                    fired += above
                    to_known = x_next - known_point
                    known_sq = float(to_known.dot(to_known))
                if fired:
                    for key, count in violations.items():
                        if count and first_violation[key] is None:
                            first_violation[key] = n
            counters.prox_solves += record.solves
            counters.set_projections += record.inner_iterations
            if record.nonconverged:
                counters.prox_nonconverged += len(record.nonconverged)
                if first_nonconverged is None:
                    first_nonconverged = InnerNonconvergence(n, *record.nonconverged[0])
            if record.min_certificate < min_cert:
                min_cert = record.min_certificate

            step_norm = math.sqrt(dx2)
            # finite, as the cuts were built with them: min and max equal numpy's
            eps_min, eps_max = (eps, eps) if isinstance(eps, float) else (
                min(rows := eps.tolist()), max(rows))
            trace.append(IterationRecord(  # fields in declaration order
                n, step_norm, residual, eps_min, eps_max, math.sqrt(known_sq),
                (time.perf_counter() - t0) * 1e3, degenerate, selected))
            x = x_next
            if max(step_norm, residual) <= tol:
                stop_reason = STOP_TOLERANCE
                break
    except SolverError as exc:
        stop_reason = STOP_ERROR
        error_msg = str(exc) or type(exc).__name__

    return SolverOutcome(
        algorithm=algorithm, final_x=x, stop_reason=stop_reason, iterations=len(trace),
        trace=trace, invariant_violations=violations, first_violation=first_violation,
        counters=counters,
        min_prox_certificate=float(min_cert) if np.isfinite(min_cert) else float("nan"),
        error=error_msg, first_nonconverged=first_nonconverged)


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
                 known_point=known_point)


def _parallel_step(params, lips, y_init, system):
    """Every subproblem from its own previous solution; one C-cut each.

    The eps of all subproblems are k dx + a dy_prev - b dy with the arrays
    a and b of ``eps_coefficients`` formed once, so each row equals that
    formula for its own c1, c2 bit for bit.
    """
    n_problems = len(lips)
    k = params.k
    c1, c2 = np.array([(lip.c1, lip.c2) for lip in lips]).T
    a, b = eps_coefficients(params, c1, c2)
    y_cur = np.tile(y_init, (n_problems, 1))
    dy_prev = np.zeros(n_problems)  # ||y_cur[i] - y_prev[i]||^2, the previous dy

    def step(n, x, dx2):
        nonlocal y_cur, dy_prev
        y_next, record = system.solve(y_cur, x, n)
        dy = row_dots(y_next - y_cur)
        eps = k * dx2 + a * dy_prev - b * dy
        residual = float(max_of(row_norms(y_next - x)))
        y_cur, dy_prev = y_next, dy
        return Step(y_next, y_next, eps, residual, record)

    return step


def _shared_anchor_step(params, lip, y_init, system, cyclic):
    """Subproblems anchored at one shared sequence ybar; one C-cut point.

    ``maxsel`` (cyclic=False) solves every subproblem in one ``system``
    call and cuts with the solution farthest from x_n; ``sequential``
    (cyclic=True) solves only subproblem n mod N at iteration n (subproblem
    2 of the statement's 1-based count first, when N > 1) and measures the
    residual over the latest solution of each subproblem.  The
    coefficients of ``eps_coefficients`` are formed once per run.
    """
    n_problems = len(system.fs)
    k = params.k
    a, b = eps_coefficients(params, lip.c1, lip.c2)
    ybar = y_init
    dy_prev = 0.0  # ||ybar - ybar_prev||^2, the previous step's dy
    last_Y = np.tile(y_init, (n_problems, 1))  # latest solution of each subproblem

    def step(n, x, dx2):
        nonlocal ybar, dy_prev
        if cyclic:
            selected = n % n_problems
            Y, record = system.solve_row(selected, ybar, x, n)
            y_next = last_Y[selected] = Y[0]
            residual = float(max_of(row_norms(last_Y - x)))
        else:
            Y, record = system.solve(ybar, x, n)
            dists = row_norms(Y - x)
            selected = int(dists.argmax())
            y_next = Y[selected]
            residual = float(dists[selected])
        dy = y_next - ybar
        dy2 = float(dy.dot(dy))
        eps = k * dx2 + a * dy_prev - b * dy2
        ybar, dy_prev = y_next, dy2
        return Step(Y if cyclic else y_next[None], Y, eps, residual, record, selected)

    return step
