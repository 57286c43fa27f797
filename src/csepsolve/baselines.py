"""Competitor strong-convergence hybrids used for comparison.

Both methods pay per-iteration costs the cutting-halfspace solvers avoid:
the extragradient hybrid solves a second (corrector) subproblem, and the
Armijo hybrid runs a backtracking linesearch plus an extra projection onto
the feasible set.  Their acceptance sets are subsets of C, so the anchor
projection targets C intersected with the C-cut and the Q-cut, not just
the two halfspaces.  That projector tries the two cuts' closed form
first and keeps it when it lies in C, where it is the exact projection
onto C and the cuts; only otherwise does it pay for C, projecting the
list of C's faces and the two cuts in one call (or running Dykstra's
cycles on a set that is not polyhedral).  Against projecting
onto the faces every time, the iterates part at rounding level
(``tools/parity.py``: no stop reason or invariant count changed, and the
runs on R^d stayed identical).  Each method is a step for
``hybrid.drive`` that passes the one point it cuts with (eps = 0), with
that projector, which takes the anchor's squared norm from ``drive`` as
the default projector does; its subproblems go through
``ProxSystem.solve_row``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import LinesearchFailed, MaxInnerIterationsExceeded, ParameterViolation
from .geometry import (
    INTERSECTION_TOL,
    as_point,
    dykstra,
    norm,
    project_halfspace,
    project_halfspace_intersection,
)
# build_c_cut, build_q_cut and solve_prox are not called here; they are
# imported because bench/spans.py wraps them by name in this module
from .hybrid import Step, build_c_cut, build_q_cut, drive
from .outcome import RunCounters, SolverOutcome
from .problems import CsepInstance
from .prox import ProxRecord, ProxSystem, solve_prox


# Trial cap of the Armijo linesearch.
MAX_LINESEARCH = 60


@dataclass
class ArmijoParams:
    """Backtracking parameters: ratio eta in (0,1) and finite prox step lam > 0."""

    eta: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ParameterViolation("eta must lie strictly between 0 and 1")
        if not 0.0 < self.lam < math.inf:
            raise ParameterViolation(f"lam={self.lam:g} must be positive and finite")


def armijo_linesearch(f, x_n, y_n, lam, params: ArmijoParams):
    """Smallest m >= 1 with f((1-eta^m) x_n + eta^m y_n, y_n) <= -||x_n-y_n||^2/(2 lam).

    Starts at m = 1: the m = 0 mixing weight would zero the denominator of
    the step-size formula downstream, and the m = 0 test can never hold
    anyway since f vanishes on the diagonal.  Returns (m, z) with z the
    accepted convex combination.
    """
    x_n = as_point(x_n)
    y_n = as_point(y_n, x_n.size)
    gap2 = float((x_n - y_n) @ (x_n - y_n))
    if gap2 == 0.0:
        raise LinesearchFailed("linesearch requires x_n != y_n (already converged)")
    threshold = gap2 / (2.0 * lam)
    value = np.inf
    for m in range(1, MAX_LINESEARCH + 1):
        t = params.eta**m
        z = (1.0 - t) * x_n + t * y_n
        value = f.value(z, y_n)
        if value + threshold <= 0.0:
            return m, z
    raise LinesearchFailed(
        f"no admissible exponent within {MAX_LINESEARCH} trials",
        last_value=value,
    )


def armijo_step_size(f, z, y_n, m, eta):
    """Relaxation step -eta^m f(z, y_n) / ((1 - eta^m) ||g||^2) with
    g a subgradient of f(z, .) at z; zero when g vanishes (then z already
    minimizes f(z, .) and no relaxation is possible)."""
    g = f.subgrad2(z, z)
    g_sq = float(g @ g)
    if g_sq <= 1e-300:
        return 0.0, g
    t = eta**m
    return -t * f.value(z, y_n) / ((1.0 - t) * g_sq), g


def _project_onto_set_and_cuts(set_, faces, counters, cuts, x0, x0_sq):
    """Projection of x0 onto C intersected with the two cuts ``cuts``,
    counting set projections in ``counters``.

    Cuts first: z = P_{H1 ∩ H2}(x0), the closed form given x0's squared
    norm ``x0_sq``, minimizes the distance to x0 over a superset of
    C ∩ H1 ∩ H2, so when it lies in C (within ``INTERSECTION_TOL`` (1 +
    ||x0||)) it is the projection, returned as one set projection.  This
    holds for every set; on R^d it always applies.  Otherwise a polyhedral
    set's ``faces`` followed by the two cuts get one exact halfspace
    projection, counted as one set projection.  Other sets (``faces``
    None) alternate projections, one set projection per cycle.
    """
    z = project_halfspace_intersection(cuts, x0, x0_sq)
    if set_.contains(z, INTERSECTION_TOL * (1.0 + math.sqrt(x0_sq))):
        counters.set_projections += 1
        return z
    if faces is not None:
        counters.set_projections += 1
        return project_halfspace_intersection([*faces, cuts[0], cuts[1]], x0, x0_sq)
    live = [cuts[i] for i in cuts.live]

    def count_set_projection(v):
        counters.set_projections += 1
        return set_.project(v)

    if not live:
        return count_set_projection(x0)
    projectors = [count_set_projection] + [lambda v, c=c: project_halfspace(c, v) for c in live]
    try:
        return dykstra(projectors, x0)
    except MaxInnerIterationsExceeded as exc:
        raise MaxInnerIterationsExceeded(
            "anchor projection onto the feasible set with the acceptance cuts "
            f"stalled ({exc}); this inner problem is exactly the per-iteration "
            "cost the cut-only solvers avoid",
            violations=exc.violations, best=exc.best,
        ) from exc


def _single_problem_start(instance: CsepInstance, name: str, counters: RunCounters):
    """The one bifunction, the anchor x0, which must lie in C, and
    ``project(cuts, x0, x0_sq)`` for ``drive``: x0 onto C and the cuts."""
    if instance.n_problems != 1:
        raise ParameterViolation(f"the {name} baseline requires N = 1")
    x0 = as_point(instance.x0, instance.dimension)
    set_ = instance.set
    if not set_.contains(x0, 1e-9):
        raise ParameterViolation("the baseline schemes require x0 in C")
    project = partial(_project_onto_set_and_cuts, set_, set_.as_halfspaces(), counters)
    return instance.bifunctions[0], x0, project


def extragradient_lam_cap(c1: float, c2: float) -> float:
    """The least 1/(2c) over the positive constants c of (c1, c2), which the
    extragradient baseline's lam must stay below."""
    return 0.5 / max(c1, c2)


def run_hybrid_extragradient(
    instance: CsepInstance,
    lam: float,
    tol: float = 1e-8,
    max_outer: int = 100_000,
    *,
    known_point=None,
    certify_probes: int = 0,
    seed: int = 0,
) -> SolverOutcome:
    """Two-subproblem hybrid: predictor anchored at x_n, corrector at the
    predictor, then the anchor is projected onto C and two linearized cuts.

    Requires a single equilibrium problem, a starting point inside C, and
    lam below 1/(2 c) for each positive constant c of (c1, c2).
    """
    counters = RunCounters()
    f, x0, project = _single_problem_start(instance, "extragradient", counters)
    lip = f.lipschitz_data()
    lam_cap = extragradient_lam_cap(lip.c1, lip.c2)
    if not 0.0 < lam < lam_cap:
        raise ParameterViolation(
            f"lam={lam:g} outside (0, {lam_cap:g}) for c1={lip.c1:g}, c2={lip.c2:g}"
        )
    # predictor and corrector are subproblems 0 and 1, so their certificate
    # probes come from the streams (seed, n, 0) and (seed, n, 1)
    system = ProxSystem([f, f], lam, instance.set, certify_probes, seed)

    def step(n, x, dx2):
        Y, record_y = system.solve_row(0, x, x, n)
        Z, record_z = system.solve_row(1, Y[0], x, n)
        residual = max(norm(Y[0] - x), norm(Z[0] - x))
        return Step(Z, Z, 0.0, residual, ProxRecord.of([record_y, record_z]))

    return drive("extragradient", step, x0, tol, max_outer, counters, project=project,
                 known_point=known_point)


def run_armijo_hybrid(
    instance: CsepInstance,
    params: ArmijoParams,
    tol: float = 1e-8,
    max_outer: int = 100_000,
    *,
    known_point=None,
    certify_probes: int = 0,
    seed: int = 0,
) -> SolverOutcome:
    """Linesearch hybrid: one subproblem, then a backtracking linesearch, a
    subgradient step projected onto C, and the anchor projection onto C plus
    two linearized cuts.

    The subgradient step length is -eta^m f(z, y) / ((1 - eta^m) ||g||^2)
    with g a subgradient of f(z, .) at z, taken as zero when g vanishes
    (then z already minimizes f(z, .) and the relaxation point is x_n).
    A subproblem solution within ``tol`` of x_n ends the run at x_n before
    the linesearch, which needs x_n != y_n.
    """
    counters = RunCounters()
    f, x0, project = _single_problem_start(instance, "Armijo", counters)
    set_ = instance.set
    system = ProxSystem([f], params.lam, set_, certify_probes, seed)

    def step(n, x, dx2):
        Y, record = system.solve_row(0, x, x, n)
        y = Y[0]
        residual = norm(y - x)
        if residual <= tol:
            return Step(None, np.empty((0, x.size)), 0.0, residual, record)
        m, z = armijo_linesearch(f, x, y, params.lam, params)
        sigma, g = armijo_step_size(f, z, y, m, params.eta)
        u = set_.project(x - sigma * g)[None]
        counters.set_projections += 1
        return Step(u, u, 0.0, residual, record)

    return drive("armijo", step, x0, tol, max_outer, counters, project=project,
                 known_point=known_point)
