"""Property tests of the projected-gradient prox.

Random systems of N <= 4 affine-quadratic subproblems in 2 <= d <= 20 with
dense Q (Q + Q^T positive semidefinite, plus a skew part) on a box or on the
whole space.  Row i minimizes 0.5 y^T H_i y - <shift_i, y> with
H_i = I + lam*(Q_i + Q_i^T), so each stacked minimizer must lie within 1e-9
of an independent reference: scipy's bounded least squares on the Cholesky
factor of H_i over a box, and the closed form H_i^{-1} shift_i on the whole
space.  A row whose reference lies strictly inside the box starts at its
minimizer and takes two counted inner steps.
"""

import numpy as np
import pytest

scipy_linalg = pytest.importorskip("scipy.linalg")
scipy_optimize = pytest.importorskip("scipy.optimize")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csepsolve import Box  # noqa: E402
from csepsolve.geometry import WholeSpace  # noqa: E402
from csepsolve.problems import AffineQuadraticBifunction  # noqa: E402
from csepsolve.prox import ProxSystem  # noqa: E402

systems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(2, 20),
    "n_rows": st.integers(1, 4),
    "lam": st.floats(0.05, 0.5),
    "stiffness": st.floats(0.0, 4.0),
    "log_q": st.floats(-1.0, 1.5),
    "box": st.booleans(),
    "shared_anchor": st.booleans(),
})


def dense_psd_row(rng, d, lam, stiffness, log_q):
    """A subproblem with lam*||Q + Q^T|| = stiffness, a skew part in Q, and
    q scaled by 10^log_q so that large q pushes minimizers onto faces."""
    C = rng.standard_normal((d, d))
    S = C @ C.T
    S *= stiffness / (2.0 * lam * max(np.linalg.norm(S, 2), 1e-300))
    K = rng.standard_normal((d, d))
    return AffineQuadraticBifunction(rng.standard_normal((d, d)), S + 0.5 * (K - K.T),
                                     rng.standard_normal(d) * 10.0 ** log_q)


def reference(f, w, x, lam, set_):
    """The minimizer of row f, from scipy and the closed form only."""
    H = np.eye(x.size) + lam * (f.Q + f.Q.T)
    shift = x - lam * (f.P @ w + f.q) + lam * (f.Q.T @ w)
    if isinstance(set_, WholeSpace):
        return np.linalg.solve(H, shift)
    L = scipy_linalg.cholesky(H, lower=True)
    b = scipy_linalg.solve_triangular(L, shift, lower=True)
    # ||L^T y - b||^2 = y^T H y - 2 <shift, y> + ||b||^2
    return scipy_optimize.lsq_linear(L.T, b, bounds=(set_.lower, set_.upper),
                                     method="bvls", tol=1e-15).x


@settings(max_examples=80, deadline=None)
@given(systems)
@example({"seed": 0, "d": 20, "n_rows": 4, "lam": 0.5, "stiffness": 4.0, "log_q": 1.5,
          "box": True, "shared_anchor": False})
@example({"seed": 1, "d": 2, "n_rows": 1, "lam": 0.05, "stiffness": 0.0, "log_q": -1.0,
          "box": False, "shared_anchor": True})
def test_the_stack_matches_an_independent_reference(params):
    rng = np.random.default_rng(params["seed"])
    d, n_rows, lam = params["d"], params["n_rows"], params["lam"]
    fs = [dense_psd_row(rng, d, lam, params["stiffness"], params["log_q"])
          for _ in range(n_rows)]
    assert all(f.diagonal is None for f in fs)  # no coordinatewise solve
    if params["box"]:
        set_ = Box(-rng.uniform(0.1, 1.5, d), rng.uniform(0.1, 1.5, d))
    else:
        set_ = WholeSpace(d)
    W = rng.uniform(-2.0, 2.0, d if params["shared_anchor"] else (n_rows, d))
    x = rng.uniform(-2.0, 2.0, d)

    system = ProxSystem(fs, lam, set_)
    Y, record = system.solve(W, x, 1)
    assert record.nonconverged == ()
    for i, f in enumerate(fs):
        w = W if W.ndim == 1 else W[i]
        ref = reference(f, w, x, lam, set_)
        assert np.linalg.norm(Y[i] - ref) <= 1e-9
        interior = not params["box"] or bool(
            ((set_.lower < ref) & (ref < set_.upper)).all())
        if interior:
            assert system.solve_row(i, w, x, 1)[1].inner_iterations == 2
