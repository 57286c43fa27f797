"""Independent reference computations used only by the tests.

These deliberately avoid the library's solution paths: the polyhedron
projectors enumerate active sets or solve the dual by NNLS, the prox oracle
scans a grid, and the derivative check uses central differences.
"""

from __future__ import annotations

import itertools

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
    loop with step 1/(1 + lam*||Q + Q^T||), stopping when a step moves by at
    most ``tol``.  Returns (minimizer, counted steps, converged) with the
    step count of ``ProxResult.inner_iterations``."""
    step = 1.0 / (1.0 + lam * f.sym_norm())
    shift = x - lam * (f.P @ w + f.q) + lam * (f.Q.T @ w)
    sym = f.Q + f.Q.T
    y = set_.project(x)
    for it in range(1, max_inner + 1):
        y_new = set_.project(y - step * (y + lam * (sym @ y) - shift))
        if float(np.linalg.norm(y_new - y)) <= tol:
            return y_new, it + 1, True
        y = y_new
    return y, max_inner, False


def project_two_halfspaces_reference(cut1, cut2, x0):
    """The two-halfspace closed form as first written: each squared normal
    and the anchor norm recomputed where used.  ``project_two_halfspaces``
    must return the same bytes, or raise EmptyIntersection in the same
    cases."""
    from csepsolve import EmptyIntersection

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
    if det > 1e-16 * n1 * n2:
        mu1 = (n2 * v1 - g12 * v2) / det
        mu2 = (n1 * v2 - g12 * v1) / det
        if mu1 >= -1e-12 and mu2 >= -1e-12:
            return x0 - max(mu1, 0.0) * a1 - max(mu2, 0.0) * a2
    raise EmptyIntersection("two-halfspace projection found no feasible case")


def spectral_norm_reference(M, iters=200, tol=1e-13):
    """``spectral_norm_estimate`` as first written: power iteration on M^T M
    that forms M^T M v twice per step, once for the next iterate and once
    for the Rayleigh quotient."""
    M = np.asarray(M, dtype=float)
    d = M.shape[1]
    v = 1.0 + 1e-3 * np.arange(d)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = M.T @ (M @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v_new = w / norm_w
        with np.errstate(invalid="ignore"):
            sigma_new = float(np.sqrt(v_new @ (M.T @ (M @ v_new))))
        if abs(sigma_new - sigma) <= tol * max(1.0, sigma_new):
            return sigma_new
        sigma, v = sigma_new, v_new
    return sigma
