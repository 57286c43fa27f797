"""Independent reference computations used only by the tests.

These deliberately avoid the library's solution paths: the polyhedron
projectors enumerate active sets or solve the dual by NNLS, the prox oracle
scans a grid, the derivative check uses central differences, and the
affine VI residual is the worst case over the box in closed form.
``project_two_halfspaces_exact`` solves the KKT conditions of the
two-halfspace projection in rational arithmetic.  ``record_projections``
is no reference: it records the iterates of a run from the anchor
projections ``hybrid.drive`` makes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def project_polyhedron_enumerate(cuts, x0):
    """Exact projection onto an intersection of halfspaces by enumerating
    active subsets.

    Each subset yields the projection of x0 onto the affine hull of those
    constraints; the nearest feasible candidate is the projection (the true
    active set always appears among the subsets).  Exponential in the number
    of cuts; fine for the handful used in tests.
    """
    normals = np.array([c.normal for c in cuts], dtype=float)
    offsets = np.array([c.offset for c in cuts], dtype=float)
    x0 = np.asarray(x0, dtype=float)
    m = len(cuts)
    scale = np.linalg.norm(normals, axis=1)
    feas_tol = 1e-9 * (1.0 + float(np.linalg.norm(x0)))

    best = None
    best_dist = np.inf
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            if not subset:
                z = x0.copy()
            else:
                A = normals[list(subset)]
                b = offsets[list(subset)]
                gram = A @ A.T
                try:
                    mu = np.linalg.lstsq(gram, A @ x0 - b, rcond=None)[0]
                except np.linalg.LinAlgError:
                    continue
                z = x0 - A.T @ mu
            if np.all(normals @ z - offsets <= feas_tol * np.maximum(scale, 1.0)):
                dist = float(np.linalg.norm(z - x0))
                if dist < best_dist:
                    best, best_dist = z, dist
    if best is None:
        raise ValueError("enumeration found no feasible candidate")
    return best


def project_ldp_nnls(cuts, x0):
    """Projection onto an intersection of halfspaces by Lawson and Hanson's
    least-distance programming reduction to NNLS (Solving Least Squares
    Problems, 1974, ch. 23); None when the intersection is empty.

    With unit normals a_i and u = z - x0 the problem is min ||u|| subject to
    -A u >= A x0 - b.  NNLS on E = [-A^T; (A x0 - b)^T], f = e_{d+1} gives the
    residual r = E w - f, and u = -r[:d] / r[d]; r = 0 certifies emptiness.
    Cuts with the same unit normal are merged into the tightest first, since
    scipy's NNLS can break down on repeated columns.  scipy's NNLS can also
    stop at a point that violates a cut by whole units; such an answer is
    replaced by ``project_polyhedron_enumerate`` (exponential in the number
    of cuts, so meant for the dozen or fewer of the tests).  Needs scipy.
    """
    from scipy.optimize import nnls

    rows = {}
    for c in cuts:
        scale = float(np.linalg.norm(c.normal))
        a, b = c.normal / scale, c.offset / scale
        key = tuple(np.round(a, 12))
        if key not in rows or b < rows[key][1]:
            rows[key] = (a, b)
    normals = np.array([a for a, _ in rows.values()])
    offsets = np.array([b for _, b in rows.values()])
    x0 = np.asarray(x0, dtype=float)
    E = np.vstack([-normals.T, normals @ x0 - offsets])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    w, _ = nnls(E, f, maxiter=50 * E.shape[1])
    r = E @ w - f
    if np.linalg.norm(r) < 1e-12:
        return None
    z = x0 - r[:-1] / r[-1]
    if np.max(normals @ z - offsets) > 1e-9 * (1.0 + np.linalg.norm(x0)):
        return project_polyhedron_enumerate(cuts, x0)
    return z


def grid_minimize_1d(objective, lo, hi, tol=1e-6):
    """Brute-force scalar minimizer: coarse scan plus interval shrinking."""
    xs = np.linspace(lo, hi, 2001)
    vals = np.array([objective(x) for x in xs])
    j = int(np.argmin(vals))
    lo_j = xs[max(j - 1, 0)]
    hi_j = xs[min(j + 1, xs.size - 1)]
    while hi_j - lo_j > tol:
        xs = np.linspace(lo_j, hi_j, 33)
        vals = np.array([objective(x) for x in xs])
        j = int(np.argmin(vals))
        lo_j = xs[max(j - 1, 0)]
        hi_j = xs[min(j + 1, xs.size - 1)]
    return 0.5 * (lo_j + hi_j)


def central_difference(fn, y, step=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    y = np.asarray(y, dtype=float)
    g = np.zeros_like(y)
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = step
        g[j] = (fn(y + e) - fn(y - e)) / (2.0 * step)
    return g


def projected_gradient_prox(f, w, x, lam, set_, tol, max_inner):
    """One affine-quadratic subproblem by a plain per-row projected-gradient
    loop with step 1/lambda_max(H), H = I + lam*(Q + Q^T), started at the
    projection of the unconstrained minimizer H^{-1} shift and stopping when
    a step moves by at most ``tol``.  Returns (minimizer, counted steps,
    converged) with the step count of ``ProxRecord.inner_iterations``."""
    shift = x - lam * (f.P @ w + f.q) + lam * (f.Q.T @ w)
    sym = f.Q + f.Q.T
    H = np.eye(shift.size) + lam * sym
    step = 1.0 / np.linalg.eigvalsh(H)[-1]
    y = set_.project(np.linalg.inv(H) @ shift)
    for it in range(1, max_inner + 1):
        y_new = set_.project(y - step * (y + lam * (sym @ y) - shift))
        if float(np.linalg.norm(y_new - y)) <= tol:
            return y_new, it + 1, True
        y = y_new
    return y, max_inner, False


def project_two_halfspaces_reference(cut1, cut2, x0):
    """The two-halfspace closed form as first written, each squared normal
    and the anchor norm recomputed where used, with the Gram-Schmidt form
    that replaced the 2x2 Gram solve for nearly parallel normals.
    ``project_two_halfspaces`` must return the same bytes, or raise
    EmptyIntersection in the same cases."""
    from csepsolve.errors import EmptyIntersection
    from csepsolve.geometry import NEAR_PARALLEL

    def project_one(cut, x):
        a = cut.normal
        v = float(a @ x) - cut.offset
        if v <= 0.0:
            return x.copy()
        return x - (v / float(a @ a)) * a

    x0 = np.asarray(x0, dtype=float)
    live = [c for c in (cut1, cut2) if not c.is_whole_space]
    if not live:
        return x0.copy()
    if len(live) == 1:
        return project_one(live[0], x0)

    a1, b1 = live[0].normal, live[0].offset
    a2, b2 = live[1].normal, live[1].offset
    n1 = float(a1 @ a1)
    n2 = float(a2 @ a2)
    v1 = float(a1 @ x0) - b1
    v2 = float(a2 @ x0) - b2
    tol1 = 1e-12 * np.sqrt(n1) * (1.0 + float(np.linalg.norm(x0))) + 1e-15
    tol2 = 1e-12 * np.sqrt(n2) * (1.0 + float(np.linalg.norm(x0))) + 1e-15

    if v1 <= tol1 and v2 <= tol2:
        return x0.copy()
    if v1 > 0.0:
        z = x0 - (v1 / n1) * a1
        if float(a2 @ z) - b2 <= tol2:
            return z
    if v2 > 0.0:
        z = x0 - (v2 / n2) * a2
        if float(a1 @ z) - b1 <= tol1:
            return z

    g12 = float(a1 @ a2)
    det = n1 * n2 - g12 * g12
    if det >= NEAR_PARALLEL * n1 * n2:
        mu1 = (n2 * v1 - g12 * v2) / det
        mu2 = (n1 * v2 - g12 * v1) / det
        if mu1 >= -1e-12 and mu2 >= -1e-12:
            return x0 - max(mu1, 0.0) * a1 - max(mu2, 0.0) * a2
        raise EmptyIntersection("two-halfspace projection found no feasible case")
    z = x0 - (v1 / n1) * a1
    u = a2 - (g12 / n1) * a1
    u_sq = float(u @ u)
    if u_sq > 1e-16 * n2:
        mu2 = (float(a2 @ z) - b2) / u_sq
        mu1 = (v1 - g12 * mu2) / n1
        if mu1 >= -1e-12 and mu2 >= -1e-12:
            return z - max(mu2, 0.0) * u
    raise EmptyIntersection("two-halfspace projection found no feasible case")


def project_two_halfspaces_exact(cut1, cut2, x0):
    """The projection of x0 onto {<a1, z> <= b1} ∩ {<a2, z> <= b2}, exact:
    every float of the cuts and of x0 is taken as the rational it is, and
    the active sets {}, {1}, {2}, {1, 2} are tried in turn until one meets
    the KKT conditions (z in both cuts, multipliers nonnegative, an active
    cut tight), which hold at exactly one point.  Returns the coordinates
    as ``Fraction``s; raises ValueError when the intersection is empty."""
    a1, a2, x = ([Fraction(float(v)) for v in p] for p in (cut1.normal, cut2.normal, x0))
    b1, b2 = Fraction(float(cut1.offset)), Fraction(float(cut2.offset))

    def dot(u, v):
        return sum((p * q for p, q in zip(u, v)), Fraction(0))

    n1, n2, g12 = dot(a1, a1), dot(a2, a2), dot(a1, a2)
    v1, v2 = dot(a1, x) - b1, dot(a2, x) - b2
    det = n1 * n2 - g12 * g12
    candidates = [(Fraction(0), Fraction(0))]
    candidates += [(v1 / n1, Fraction(0))] if n1 else []
    candidates += [(Fraction(0), v2 / n2)] if n2 else []
    candidates += [((n2 * v1 - g12 * v2) / det, (n1 * v2 - g12 * v1) / det)] if det else []
    for mu1, mu2 in candidates:
        z = [xi - mu1 * p - mu2 * q for xi, p, q in zip(x, a1, a2)]
        c1, c2 = dot(a1, z) - b1, dot(a2, z) - b2
        if mu1 >= 0 and mu2 >= 0 and c1 <= 0 and c2 <= 0 and mu1 * c1 == 0 and mu2 * c2 == 0:
            return z
    raise ValueError("the two halfspaces do not intersect")


def dual_active_set_reference(A, b, x0):
    """The Goldfarb-Idnani dual active-set projector as first written, with
    the numpy calls of every step: the violations as an array, |dz|^2 taken
    again for the step and the basis length, and z copied at the start.
    ``geometry._dual_active_set`` must return the same bytes, or raise the
    same exception class."""
    import math

    from csepsolve.errors import EmptyIntersection, MaxInnerIterationsExceeded
    from csepsolve.geometry import INTERSECTION_TOL

    def orthogonal_part(Q, T, k, a):
        if k == 0:
            return a, []
        q = Q[:k] @ a
        dz = a - q @ Q[:k]
        if dz @ dz < 0.5:
            q2 = Q[:k] @ dz
            dz -= q2 @ Q[:k]
            q += q2
        return dz, (T[:k, :k] @ q).tolist()

    def append_basis(Q, T, k, dz, r):
        length = math.sqrt(float(dz.dot(dz)))
        Q[k] = dz / length
        T[:k, k] = [-ri / length for ri in r]
        T[k, k] = 1.0 / length

    m = len(b)
    x0 = np.asarray(x0, dtype=float)
    scale = np.sqrt(np.einsum("ij,ij->i", A, A))
    A = A / scale[:, None]
    b = b / scale
    feas_tol = INTERSECTION_TOL * (1.0 + math.sqrt(float(x0.dot(x0))))
    Q = np.empty_like(A)
    T = np.zeros((m, m))
    active = []
    mu = []
    z = x0.copy()
    for _ in range(10 * m):
        v = A @ z - b
        j = int(v.argmax())
        vj, mu_j = float(v[j]), 0.0
        if vj <= feas_tol and (not active or np.abs(v[active]).max() <= feas_tol):
            return z
        if vj <= feas_tol or j in active:
            break
        while True:
            k = len(active)
            dz, r = orthogonal_part(Q, T, k, A[j])
            rho = float(dz @ dz)
            t_part, drop = math.inf, -1
            r_floor = 1e-12 * (1.0 + max(map(abs, r), default=0.0))
            for i, (ri, mi) in enumerate(zip(r, mu)):
                if ri > r_floor and mi < t_part * ri:
                    t_part, drop = mi / ri, i
            dependent = rho <= 1e-16
            if dependent and drop < 0:
                raise EmptyIntersection(f"cut {j} is violated by {vj:.3e}")
            t_full = math.inf if dependent else vj / rho
            t = min(t_full, t_part)
            mu = [max(mi - t * ri, 0.0) for mi, ri in zip(mu, r)]
            mu_j += t
            if not dependent:
                z = z - t * dz
            if t_full <= t_part:
                append_basis(Q, T, k, dz, r)
                active.append(j)
                mu.append(mu_j)
                break
            vj -= t * rho
            del active[drop], mu[drop]
            for i in range(drop, k - 1):
                append_basis(Q, T, i, *orthogonal_part(Q, T, i, A[active[i]]))
    raise MaxInnerIterationsExceeded("dual active-set projection did not certify a point")


def c_cut_by_constructor(x_n, y, eps):
    """``hybrid.build_c_cut`` through the ``HalfspaceCut`` constructor, which
    alone decides whether the cut is the whole space or contradictory."""
    from csepsolve.geometry import HalfspaceCut

    diff = x_n - y
    return HalfspaceCut(2.0 * diff, float((x_n + y) @ diff) + eps)


def q_of(x0, x_n):
    """Q_n's normal q = x0 - x_n and <q, q>, the arguments that
    ``hybrid.build_q_cut`` and ``hybrid.build_cuts`` take after x_n."""
    q = x0 - x_n
    return q, float(q.dot(q))


def q_cut_by_constructor(x0, x_n):
    """``hybrid.build_q_cut`` through the ``HalfspaceCut`` constructor."""
    from csepsolve.geometry import HalfspaceCut

    normal = x0 - x_n
    return HalfspaceCut(normal, float(normal @ x_n))


def vi_residual(M, q, lower, upper, x):
    """max over y in [lower, upper] of <M x + q, x - y>, in closed form.

    It is nonnegative for x in the box and zero exactly when x solves the
    affine variational inequality VI(M x + q, [lower, upper]).
    """
    g = M @ x + q
    return float(g @ x - np.minimum(g * lower, g * upper).sum())


def record_projections(monkeypatch, module):
    """Wrap the ``project`` that the runners of ``module`` (``hybrid`` or
    ``baselines``) hand ``hybrid.drive``; returns the list of (cuts, anchor,
    result) of its calls, whose results are the iterates x_2, x_3, ... of
    every iteration that cuts."""
    from csepsolve import hybrid

    real_drive = module.drive
    calls = []

    def recording_drive(*args, project=None, **kw):
        inner = project or hybrid.project_halfspace_intersection

        def recording(cuts, anchor, anchor_sq):
            z = inner(cuts, anchor, anchor_sq)
            calls.append((cuts, anchor, z))
            return z

        return real_drive(*args, project=recording, **kw)

    monkeypatch.setattr(module, "drive", recording_drive)
    return calls


def iterates(calls):
    """The iterates x_2, x_3, ... in ``calls`` of ``record_projections``."""
    return [z for _, _, z in calls]
