import math

import numpy as np
import pytest

from csepsolve import AffineOperator, Box, ViInducedBifunction
from csepsolve.errors import NonFiniteObjective
from csepsolve.geometry import Ball, WholeSpace
from csepsolve.problems import (
    AffineQuadraticBifunction,
    BlackBoxBifunction,
    CallableOperator,
    LipschitzData,
)
from csepsolve.prox import (
    ProxRecord,
    ProxSystem,
    _require_finite,
    certify_prox,
    objective,
    probe_rng,
    solve_prox,
)

from oracles import grid_minimize_1d, projected_gradient_prox


def vi(M, q=None, L=None):
    M = np.asarray(M, dtype=float)
    q = np.zeros(M.shape[0]) if q is None else np.asarray(q, dtype=float)
    return ViInducedBifunction(AffineOperator(M, q, L))


def as_blackbox(f, c1=0.5, c2=0.5):
    return BlackBoxBifunction(f.value, f.subgrad2, LipschitzData(c1, c2))


class TestOperatorInducedRoute:
    def test_matches_projected_step(self):
        f = vi(np.eye(2))
        box = Box([-1.0, -1.0], [1.0, 1.0])
        w = x = np.array([1.0, 0.0])
        (y,), _ = solve_prox(f, w, x, 0.2, box)
        assert np.allclose(y, [0.8, 0.0], atol=1e-15)

    def test_projected_step_identity_random(self, rng):
        M = rng.standard_normal((3, 3))
        f = vi(M, rng.standard_normal(3))
        box = Box(-np.ones(3), np.ones(3))
        for _ in range(100):
            w = rng.standard_normal(3)
            x = rng.standard_normal(3)
            lam = float(rng.uniform(0.05, 0.45))
            (y,), _ = solve_prox(f, w, x, lam, box)
            direct = box.project(x - lam * f.operator(w))
            assert np.linalg.norm(y - direct) <= 1e-12

    def test_zero_operator_reduces_to_projection(self):
        f = vi(np.zeros((2, 2)), L=1.0)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        x = np.array([2.0, 0.25])
        (y,), _ = solve_prox(f, np.array([0.3, 0.3]), x, 0.7, box)
        assert np.allclose(y, [1.0, 0.25])


class TestAffineQuadraticRoute:
    def test_one_dimensional_calculus(self):
        # minimize 0.5*y*(y-1) + 0.5*(1-y)^2 over the line: minimizer 0.75
        f = AffineQuadraticBifunction(np.zeros((1, 1)), np.eye(1), np.zeros(1))
        w = x = np.array([1.0])
        (y,), _ = solve_prox(f, w, x, 0.5, WholeSpace(1))
        assert abs(y[0] - 0.75) < 1e-9
        grid = grid_minimize_1d(lambda t: objective(f, w, x, 0.5, np.array([t])),
                                -3.0, 3.0)
        assert abs(y[0] - grid) < 1e-6

    def test_diagonal_box_fast_path_is_exact(self, rng):
        d = 3
        f = AffineQuadraticBifunction(rng.standard_normal((d, d)),
                                      np.diag(rng.uniform(0.1, 2.0, d)),
                                      rng.standard_normal(d))
        box = Box(-np.ones(d), np.ones(d))
        for _ in range(50):
            w = rng.standard_normal(d)
            x = rng.standard_normal(d)
            lam = float(rng.uniform(0.05, 0.4))
            (y,), record = solve_prox(f, w, x, lam, box)
            assert record.inner_iterations == 1
            gap = certify_prox(f, w, x, lam, box, y, 300, rng)
            assert gap >= -1e-10

    def test_projected_gradient_route(self, rng):
        d = 3
        S = rng.standard_normal((d, d))
        Q = S @ S.T + 0.1 * np.eye(d)  # dense PSD: no coordinate fast path
        f = AffineQuadraticBifunction(rng.standard_normal((d, d)), Q,
                                      rng.standard_normal(d))
        box = Box(-np.ones(d), np.ones(d))
        w = rng.standard_normal(d)
        x = rng.standard_normal(d)
        (y,), record = solve_prox(f, w, x, 0.11, box)
        assert not record.nonconverged
        gap = certify_prox(f, w, x, 0.11, box, y, 500, rng)
        assert gap >= -1e-7
        Y = box.sample(rng, 2000)
        best_sampled = min(objective(f, w, x, 0.11, p) for p in Y)
        assert objective(f, w, x, 0.11, y) <= best_sampled + 1e-9


    def test_diagonal_q_is_found_once_per_bifunction(self, rng):
        d = 3
        diag = rng.uniform(-1.0, 2.0, d)
        f = AffineQuadraticBifunction(rng.standard_normal((d, d)), np.diag(diag),
                                      rng.standard_normal(d))
        assert f.diagonal.tobytes() == diag.tobytes()
        assert dense_aq(rng, d).diagonal is None
        Q = np.diag(diag)
        Q[0, 2] = 1e-300
        assert AffineQuadraticBifunction(np.eye(d), Q, np.zeros(d)).diagonal is None

    def test_q_too_negative_raises_from_the_first_stacked_solve(self):
        f = AffineQuadraticBifunction(np.zeros((2, 2)), np.diag([1.0, -5.0]), np.zeros(2))
        box = Box(-np.ones(2), np.ones(2))
        system = ProxSystem([f, f], 0.2, box)  # 1 + 2 * 0.2 * (-5) < 0
        for solve in (lambda: system.solve(np.zeros(2), np.zeros(2), 1),
                      lambda: solve_prox(f, np.zeros(2), np.zeros(2), 0.2, box)):
            with pytest.raises(NonFiniteObjective, match="not strongly convex"):
                solve()

    def test_q_too_negative_raises_only_from_its_own_row(self):
        bad = AffineQuadraticBifunction(np.zeros((2, 2)), np.diag([1.0, -5.0]), np.zeros(2))
        good = AffineQuadraticBifunction(np.zeros((2, 2)), np.diag([1.0, 1.0]), np.zeros(2))
        box = Box(-np.ones(2), np.ones(2))
        system = ProxSystem([bad, good], 0.2, box)
        w = x = np.array([0.5, 0.5])
        assert system.solve_row(1, w, x, 1)[0][0].tobytes() == (
            solve_prox(good, w, x, 0.2, box)[0][0].tobytes())
        for solve in (lambda: system.solve_row(0, w, x, 1), lambda: system.solve(w, x, 1)):
            with pytest.raises(NonFiniteObjective, match="not strongly convex"):
                solve()

    # dense Q with I + lam*(Q + Q^T) not positive definite at lam = 0.2
    DENSE_TOO_NEGATIVE = np.array([[1.0, 0.5], [0.5, -5.0]])

    def test_dense_q_too_negative_raises_from_the_first_stacked_solve(self):
        f = AffineQuadraticBifunction(np.zeros((2, 2)), self.DENSE_TOO_NEGATIVE, np.zeros(2))
        assert f.diagonal is None
        box = Box(-np.ones(2), np.ones(2))
        system = ProxSystem([f, f], 0.2, box)  # I + 0.2 (Q + Q^T) has an eigenvalue < 0
        for solve in (lambda: system.solve(np.zeros(2), np.zeros(2), 1),
                      lambda: system.solve_row(1, np.zeros(2), np.zeros(2), 1),
                      lambda: solve_prox(f, np.zeros(2), np.zeros(2), 0.2, box)):
            with pytest.raises(NonFiniteObjective, match="not strongly convex"):
                solve()

    def test_dense_q_too_negative_raises_only_from_its_own_row(self):
        bad = AffineQuadraticBifunction(np.zeros((2, 2)), self.DENSE_TOO_NEGATIVE, np.zeros(2))
        good = AffineQuadraticBifunction(np.zeros((2, 2)), np.array([[1.0, 0.5], [0.5, 1.0]]),
                                         np.zeros(2))
        box = Box(-np.ones(2), np.ones(2))
        system = ProxSystem([bad, good], 0.2, box)
        w = x = np.array([0.5, 0.5])
        assert system.solve_row(1, w, x, 1)[0][0].tobytes() == (
            solve_prox(good, w, x, 0.2, box)[0][0].tobytes())
        for solve in (lambda: system.solve_row(0, w, x, 1), lambda: system.solve(w, x, 1)):
            with pytest.raises(NonFiniteObjective, match="not strongly convex"):
                solve()

    @pytest.mark.parametrize("Q", [
        [[0.0, 1.0], [1.0, 0.0]],  # I + 0.5 (Q + Q^T) = ones
        # I + Q = 9 ones + (2, 2, 0)(2, 2, 0)^T is singular, and LU meets an
        # exact zero pivot, while eigvalsh finds a smallest eigenvalue of +6e-16
        [[12.0, 13.0, 9.0], [13.0, 12.0, 9.0], [9.0, 9.0, 8.0]],
        [[0.0, 1e308], [1e308, 0.0]],  # Q + Q^T overflows
    ])
    def test_a_singular_or_overflowing_row_raises_when_solved_not_when_built(self, Q):
        d = len(Q)
        f = AffineQuadraticBifunction(np.zeros((d, d)), np.array(Q), np.zeros(d))
        good = AffineQuadraticBifunction(np.zeros((d, d)), np.eye(d) + 0.5, np.zeros(d))
        box = Box(-np.ones(d), np.ones(d))
        with np.errstate(over="ignore", invalid="ignore"):
            system = ProxSystem([good, f], 0.5, box)
        assert system.solve_row(0, np.zeros(d), np.zeros(d), 1)[1].nonconverged == ()
        for solve in (lambda: system.solve_row(1, np.zeros(d), np.zeros(d), 1),
                      lambda: system.solve(np.zeros(d), np.zeros(d), 1)):
            with pytest.raises(NonFiniteObjective, match="not strongly convex"):
                solve()

    def test_one_row_kernels_take_a_one_row_anchor_stack(self, rng):
        # parallel on N = 1 hands the system a (1, d) stack of anchors
        d = 3
        M = monotone_matrix(rng, d)
        box = Box(-np.ones(d), np.ones(d))
        W, x = rng.uniform(-1, 1, (1, d)), rng.uniform(-1, 1, d)
        for f in (ViInducedBifunction(CallableOperator(lambda y: np.tanh(M @ y), 2.0, d)),
                  as_blackbox(vi(M))):
            Y, record = ProxSystem([f], 0.2, box).solve(W, x, 1)
            Y_1, record_1 = solve_prox(f, W[0], x, 0.2, box)
            assert Y.shape == (1, d)
            assert Y[0].tobytes() == Y_1[0].tobytes()
            assert_same_record(record, record_1)


class TestFiniteCheckAndStepBound:
    """The summed finiteness test decides exactly as the elementwise test
    did."""

    @pytest.mark.parametrize("Y", [[[1.0, np.nan]], [[np.inf, 0.0], [1.0, 2.0]],
                                   [[np.inf, -np.inf]], [[-np.inf]]])
    def test_require_finite_raises(self, Y):
        with pytest.raises(NonFiniteObjective), np.errstate(invalid="ignore"):
            _require_finite(np.array(Y))

    def test_require_finite_passes_a_finite_stack_whose_sum_overflows(self):
        with np.errstate(over="ignore"):
            _require_finite(np.array([[1e308, 1e308], [1e308, -1.0]]))
        _require_finite(np.empty((0, 3)))


class TestBlackBoxRoute:
    def test_equivalent_to_fast_path(self, rng):
        M = rng.standard_normal((3, 3))
        q = rng.standard_normal(3)
        fast = vi(M, q)
        slow = as_blackbox(fast)
        box = Box(-np.ones(3), np.ones(3))
        for _ in range(30):
            w = rng.standard_normal(3)
            x = rng.standard_normal(3)
            lam = float(rng.uniform(0.05, 0.45))
            a, _ = solve_prox(fast, w, x, lam, box)
            b, _ = solve_prox(slow, w, x, lam, box)
            assert np.linalg.norm(a[0] - b[0]) < 1e-6

    def test_smooth_nonlinear_blackbox(self, rng):
        # f(x, y) = <tanh(x), y - x> + 0.5 ||y - x||^2 is smooth and convex in y
        def value(x, y):
            return float(np.tanh(x) @ (y - x)) + 0.5 * float((y - x) @ (y - x))

        def grad(x, y):
            return np.tanh(x) + (y - x)

        f = BlackBoxBifunction(value, grad, LipschitzData(1.0, 1.0))
        box = Box(-np.ones(2), np.ones(2))
        w = np.array([0.4, -0.9])
        x = np.array([0.8, 0.1])
        (y,), record = solve_prox(f, w, x, 0.2, box)
        assert not record.nonconverged
        gap = certify_prox(f, w, x, 0.2, box, y, 400, rng)
        assert gap >= -1e-7

    def test_oscillation_is_damped_until_the_iteration_cap(self, monkeypatch):
        import csepsolve.prox as prox_module

        # f(x, y) = |y| from x = 0.05 with lam = 0.1: undamped, each step
        # jumps between -0.05 and 0.15, so the residuals stop shrinking and
        # the scheme damps toward their average, whose targets lie 0.05
        # from y near the minimizer 0, closer than any undamped step
        f = BlackBoxBifunction(lambda x, y: float(np.abs(y).sum()),
                               lambda x, y: np.where(y < 0.0, -1.0, 1.0),
                               LipschitzData(0.5, 0.5))
        monkeypatch.setattr(prox_module, "MAX_INNER", 200)
        _, record = solve_prox(f, np.zeros(1), np.array([0.05]), 0.1, WholeSpace(1))
        ((_, diagnostic),) = record.nonconverged
        assert record.inner_iterations == 200
        prefix = "subgradient scheme hit 200 iterations (best residual "
        assert diagnostic.startswith(prefix)
        assert float(diagnostic[len(prefix):-1]) < 0.06

    def test_diverging_subgradient_iteration_raises(self):
        # subgradients of +-1e308 send each step across the line, until the
        # step itself overflows
        f = BlackBoxBifunction(lambda x, y: 0.0,
                               lambda x, y: np.where(y < 0.0, -1e308, 1e308),
                               LipschitzData(0.25, 0.25))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteObjective, match="diverged"):
            solve_prox(f, np.zeros(1), np.array([0.5]), 0.9, WholeSpace(1))

    def test_objective_never_worse_than_plain_projection(self, rng):
        f = as_blackbox(vi(2.0 * np.eye(2), L=2.0), 1.0, 1.0)
        box = Box(-np.ones(2), np.ones(2))
        for _ in range(20):
            w = rng.standard_normal(2)
            x = rng.standard_normal(2) * 2.0
            lam = 0.2
            (y,), _ = solve_prox(f, w, x, lam, box)
            naive = objective(f, w, x, lam, box.project(x))
            assert objective(f, w, x, lam, y) <= naive + 1e-10


class TestCertify:
    def test_exact_solution_nonnegative(self, rng):
        f = vi(np.eye(2))
        box = Box(-np.ones(2), np.ones(2))
        w = x = np.array([0.5, 0.5])
        (y,), _ = solve_prox(f, w, x, 0.2, box)
        gap = certify_prox(f, w, x, 0.2, box, y, 200, rng)
        assert gap >= -1e-10

    def test_trivial_zero_bifunction(self, rng):
        f = vi(np.zeros((2, 2)), L=1.0)
        box = Box(-np.ones(2), np.ones(2))
        x = np.array([0.2, -0.3])
        gap = certify_prox(f, x, x, 0.5, box, x, 100, rng)
        assert gap == 0.0

    def test_perturbed_result_detected(self, rng):
        f = vi(np.eye(2))
        box = Box(-np.ones(2), np.ones(2))
        w = x = np.array([0.5, 0.5])
        (y,), _ = solve_prox(f, w, x, 0.2, box)
        wrong = y + np.array([0.1, 0.0])
        gap = certify_prox(f, w, x, 0.2, box, wrong, 200, rng)
        assert gap < -1e-4

    def test_lam_must_be_positive(self):
        f = vi(np.eye(1))
        with pytest.raises(ValueError):
            solve_prox(f, np.zeros(1), np.zeros(1), 0.0, Box([-1.0], [1.0]))


def assert_same_record(a, b):
    """Equal records of Python ints, floats compared by repr (NaN equals NaN)."""
    assert repr(a) == repr(b)
    assert all(type(v) is int for v in (a.solves, a.inner_iterations))


def assert_stack_matches_rows(fs, W, x, lam, set_, certify_probes=0, seed=0, n=1):
    """ProxSystem.solve equals a loop of one-row solve_prox calls, each
    certified by certify_prox with the probes of its row, and a loop of
    ProxSystem.solve_row calls, bit for bit: each row of its minimizers,
    and its record that of the rows.  Returns the one-row results, each a
    minimizer and its record as subproblem i."""
    system = ProxSystem(fs, lam, set_, certify_probes, seed)
    Y, record = system.solve(W, x, n)
    anchors = [W if W.ndim == 1 else W[i] for i in range(len(fs))]
    rows = []
    for i, (f, w) in enumerate(zip(fs, anchors)):
        (y,), r = solve_prox(f, w, x, lam, set_)
        gap = math.inf
        if certify_probes > 0:
            gap = certify_prox(f, w, x, lam, set_, y, certify_probes,
                               probe_rng(certify_probes, seed, n, i))
        rows.append((y, r._replace(nonconverged=tuple((i, d) for _, d in r.nonconverged),
                                   min_certificate=gap)))
    ones = [system.solve_row(i, w, x, n) for i, w in enumerate(anchors)]
    assert Y.shape == (len(fs), x.size)
    assert len(rows) == len(ones) == len(fs)
    for y, (y_i, r_i), (Y_i, record_i) in zip(Y, rows, ones):
        assert y.tobytes() == y_i.tobytes()
        assert Y_i.shape == (1, x.size) and Y_i[0].tobytes() == y.tobytes()
        assert_same_record(record_i, r_i)
    assert_same_record(record, ProxRecord.of([r for _, r in rows]))
    assert_same_record(record, ProxRecord.of([r for _, r in ones]))
    return rows


def monotone_matrix(rng, d):
    B = rng.standard_normal((d, max(1, d // 2))) / np.sqrt(d)
    K = rng.standard_normal((d, d)) / np.sqrt(d)
    return B @ B.T + 0.1 * np.eye(d) + 0.5 * (K - K.T)


def dense_aq(rng, d, scale=1.0, face=False):
    """A dense-Q subproblem; with ``face``, q_0 is so large that on a box
    its minimizer lies on the face y_0 = lower_0 and projected gradient
    takes more than a few steps from the clipped unconstrained minimizer."""
    C = rng.standard_normal((d, d)) / np.sqrt(d)
    Q = scale * (C @ C.T)
    q = rng.standard_normal(d)
    q[0] += 200.0 if face else 0.0
    return AffineQuadraticBifunction(Q + monotone_matrix(rng, d), Q, q)


class TestProjectedGradientStackEnds:
    """The stacked projected-gradient loop ends in one of three ways: every
    row stops at the same step, rows stop at different steps, or rows reach
    MAX_INNER.  Each way returns the one-row kernels' minimizers, inner
    totals and unconverged diagnostics, and the plain per-row loop's."""

    @staticmethod
    def assert_rows_are_the_plain_loop(fs, w, x, box, max_inner, tol=1e-10):
        """The stack equals the one-row kernels (``assert_stack_matches_rows``)
        and, row by row, ``projected_gradient_prox`` stopping at ``tol``:
        minimizer bytes, inner steps, and an unconverged row's diagnostic.
        Returns the stack's record and the per-row step counts."""
        rows = assert_stack_matches_rows(fs, w, x, 0.2, box)
        _, record = ProxSystem(fs, 0.2, box).solve(w, x, 1)
        plain = [projected_gradient_prox(f, w, x, 0.2, box, tol, max_inner) for f in fs]
        diagnostic = f"projected gradient hit {max_inner} iterations"
        assert [(y.tobytes(), r.inner_iterations) for y, r in rows] == [
            (y.tobytes(), steps) for y, steps, _ in plain]
        assert record.nonconverged == tuple(
            (i, diagnostic) for i, (_, _, converged) in enumerate(plain) if not converged)
        assert record.inner_iterations == sum(steps for _, steps, _ in plain)
        return record, [steps for _, steps, _ in plain]

    @pytest.mark.parametrize("max_inner", [100_000, 1, 0])
    def test_rows_that_all_stop_at_step_one(self, rng, monkeypatch, max_inner):
        import csepsolve.prox as prox_module

        d = 6
        fs = [dense_aq(rng, d, scale) for scale in (0.1, 1.0, 5.0, 20.0)]
        box = Box(-1e3 * np.ones(d), 1e3 * np.ones(d))  # every minimizer interior
        monkeypatch.setattr(prox_module, "MAX_INNER", max_inner)
        record, steps = self.assert_rows_are_the_plain_loop(
            fs, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d), box, max_inner)
        if max_inner:  # the start, then one step that moves by rounding only
            assert (steps, record.nonconverged) == ([2] * 4, ())
        else:
            assert (steps, len(record.nonconverged)) == ([0] * 4, 4)

    @pytest.mark.parametrize("max_inner", [100_000, 1, 2, 3, 5])
    def test_rows_that_stop_at_different_steps(self, rng, monkeypatch, max_inner):
        import csepsolve.prox as prox_module

        d = 6
        # rows 1 and 3 have a bound active at their minimizer, rows 0 and 2 none
        fs = [dense_aq(rng, d, 0.5), dense_aq(rng, d, 0.5, face=True),
              dense_aq(rng, d, 2.0), dense_aq(rng, d, 5.0, face=True)]
        box = Box(-2.0 * np.ones(d), 2.0 * np.ones(d))
        monkeypatch.setattr(prox_module, "MAX_INNER", max_inner)
        record, steps = self.assert_rows_are_the_plain_loop(
            fs, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d), box, max_inner)
        assert steps[0] == steps[2] == 2
        if max_inner == 100_000:
            assert not record.nonconverged and steps[1] > 3 and steps[3] > 3
        else:  # the interior rows stop at step 1, the others run out
            assert [i for i, _ in record.nonconverged] == [1, 3]

    @pytest.mark.parametrize("tol", [0.0, 5e-324, 1e-300, 1e-160, 1e-10, 1e-8, 0.3, 1.0,
                                     2.0, 1e154, 1e200, math.inf, -1e-10, -math.inf, math.nan])
    def test_rows_stop_where_the_plain_loop_does_at_any_tol(self, rng, monkeypatch, tol):
        import csepsolve.prox as prox_module

        d = 6
        fs = [dense_aq(rng, d, 0.5), dense_aq(rng, d, 0.5, face=True),
              dense_aq(rng, d, 2.0), dense_aq(rng, d, 5.0, face=True)]
        box = Box(-2.0 * np.ones(d), 2.0 * np.ones(d))
        monkeypatch.setattr(prox_module, "MAX_INNER", 30)
        monkeypatch.setattr(prox_module, "TOL_PROJECTED_GRADIENT", tol)
        record, steps = self.assert_rows_are_the_plain_loop(
            fs, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d), box, 30, tol)
        if not tol >= 0.0:  # a negative or NaN tol stops no row
            assert steps == [30] * 4 and [i for i, _ in record.nonconverged] == [0, 1, 2, 3]
        if tol == math.inf:  # every displacement is finite
            assert steps == [2] * 4 and not record.nonconverged

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("below", [False, True])
    def test_a_row_stops_at_the_first_step_within_tol(self, rng, monkeypatch, k, below):
        """With tol equal to the face row's k-th displacement, that row stops
        at step k; one ulp below it, later."""
        import csepsolve.prox as prox_module

        d = 6
        fs = [dense_aq(rng, d, 0.5), dense_aq(rng, d, 5.0, face=True)]
        box = Box(-2.0 * np.ones(d), 2.0 * np.ones(d))
        w, x = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        monkeypatch.setattr(prox_module, "TOL_PROJECTED_GRADIENT", -1.0)
        iterates = []
        for max_inner in (k - 1, k):
            monkeypatch.setattr(prox_module, "MAX_INNER", max_inner)
            iterates.append(ProxSystem(fs, 0.2, box).solve(w, x, 1)[0][1])
        tol = float(np.linalg.norm(iterates[1] - iterates[0]))
        if below:
            tol = math.nextafter(tol, -math.inf)
        monkeypatch.setattr(prox_module, "MAX_INNER", 100_000)
        monkeypatch.setattr(prox_module, "TOL_PROJECTED_GRADIENT", tol)
        record, steps = self.assert_rows_are_the_plain_loop(fs, w, x, box, 100_000, tol)
        assert not record.nonconverged and steps[0] == 2
        assert steps[1] > k + 1 if below else steps[1] == k + 1

    def test_a_stack_that_stops_at_one_step_returns_fresh_arrays(self, rng):
        d = 4
        fs = [dense_aq(rng, d) for _ in range(3)]
        box = Box(-1e3 * np.ones(d), 1e3 * np.ones(d))
        system = ProxSystem(fs, 0.2, box)
        w, x = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        Y1, _ = system.solve(w, x, 1)
        saved = Y1.copy()
        Y2, _ = system.solve(w, x, 2)
        assert Y1 is not Y2 and Y2.tobytes() == saved.tobytes()
        Y2[:] = 0.0
        assert Y1.tobytes() == saved.tobytes()


class TestProxSystemParity:
    @pytest.mark.parametrize("d", [1, 3, 100])
    @pytest.mark.parametrize("n_rows", [1, 4, 16])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_affine_vi_stack(self, rng, d, n_rows, per_row):
        fs = [vi(monotone_matrix(rng, d), rng.standard_normal(d)) for _ in range(n_rows)]
        box = Box(-np.ones(d), np.ones(d))
        W = rng.uniform(-1, 1, (n_rows, d) if per_row else d)
        x = rng.uniform(-1, 1, d)
        results = assert_stack_matches_rows(fs, W, x, 0.3, box)
        for i, (f, (y, _)) in enumerate(zip(fs, results)):
            w = W if W.ndim == 1 else W[i]
            direct = box.project(x - 0.3 * (f.operator.M @ w + f.operator.q))
            assert y.tobytes() == direct.tobytes()

    def test_affine_vi_stack_whole_space(self, rng):
        fs = [vi(monotone_matrix(rng, 5), rng.standard_normal(5)) for _ in range(3)]
        assert_stack_matches_rows(fs, rng.standard_normal((3, 5)), rng.standard_normal(5),
                                  0.2, WholeSpace(5))

    @pytest.mark.parametrize("per_row", [False, True])
    def test_dense_affine_quadratic_rows_stop_at_different_steps(self, rng, per_row):
        d = 8
        fs = [dense_aq(rng, d, scale) for scale in (0.1, 1.0, 5.0, 20.0)]
        box = Box(-np.ones(d), np.ones(d))
        W = rng.uniform(-1, 1, (4, d) if per_row else d)
        x = rng.uniform(-1, 1, d)
        results = assert_stack_matches_rows(fs, W, x, 0.2, box)
        assert len({r.inner_iterations for _, r in results}) > 1
        for i, (f, (y_i, r)) in enumerate(zip(fs, results)):
            y, steps, converged = projected_gradient_prox(
                f, W if W.ndim == 1 else W[i], x, 0.2, box, 1e-10, 100_000)
            assert (y_i.tobytes(), r.inner_iterations, not r.nonconverged) == (
                y.tobytes(), steps, converged)
            assert converged

    def test_mixed_separable_and_dense_rows_go_row_by_row(self, rng):
        d = 4
        diagonal = AffineQuadraticBifunction(rng.standard_normal((d, d)),
                                             np.diag(rng.uniform(0.1, 2.0, d)),
                                             rng.standard_normal(d))
        fs = [dense_aq(rng, d), diagonal, dense_aq(rng, d, 3.0)]
        box = Box(-np.ones(d), np.ones(d))
        results = assert_stack_matches_rows(fs, rng.uniform(-1, 1, (3, d)),
                                            rng.uniform(-1, 1, d), 0.2, box)
        (_, dense), (_, diagonal), _ = results
        assert diagonal.inner_iterations == 1
        assert dense.inner_iterations > 1

    def test_row_by_row_projection_on_ball(self, rng):
        d = 5
        ball = Ball(np.zeros(d), 0.8)
        x = rng.uniform(-1, 1, d)
        fs = [dense_aq(rng, d, scale) for scale in (0.5, 4.0)]
        assert_stack_matches_rows(fs, rng.uniform(-1, 1, (2, d)), x, 0.2, ball)
        fs = [vi(monotone_matrix(rng, d), rng.standard_normal(d)) for _ in range(3)]
        assert_stack_matches_rows(fs, rng.uniform(-1, 1, d), x, 0.3, ball)

    def test_row_by_row_fallback_on_callable_operator(self, rng):
        d = 3
        M = monotone_matrix(rng, d)
        fs = [vi(monotone_matrix(rng, d)),
              ViInducedBifunction(CallableOperator(lambda y: np.tanh(M @ y), 2.0, d))]
        box = Box(-np.ones(d), np.ones(d))
        assert_stack_matches_rows(fs, rng.uniform(-1, 1, (2, d)), rng.uniform(-1, 1, d),
                                  0.2, box)

    def test_certified_rows_use_their_own_probe_generator(self, rng):
        d = 4
        box = Box(-np.ones(d), np.ones(d))
        x = rng.uniform(-1, 1, d)
        fs = [vi(monotone_matrix(rng, d), rng.standard_normal(d)) for _ in range(3)]
        results = assert_stack_matches_rows(fs, rng.uniform(-1, 1, d), x, 0.3, box,
                                            certify_probes=2, seed=5, n=7)
        assert all(math.isfinite(r.min_certificate) for _, r in results)
        fs = [dense_aq(rng, d, scale) for scale in (0.5, 4.0)]
        assert_stack_matches_rows(fs, rng.uniform(-1, 1, (2, d)), x, 0.2, box,
                                  certify_probes=2, seed=5, n=7)

    @pytest.mark.parametrize("family, kernel", [
        ("affine_vi", "_AffineViStack"), ("coordinatewise", "_CoordinatewiseStack"),
        ("projected_gradient", "_ProjectedGradientStack"), ("operator", "_Row"),
        ("blackbox", "_Row")])
    def test_solve_prox_is_the_uncertified_solve_row_of_a_one_row_system(
            self, rng, monkeypatch, family, kernel):
        import csepsolve.prox as prox_module

        d = 4
        M = monotone_matrix(rng, d)
        f = {
            "affine_vi": lambda: vi(M, rng.standard_normal(d)),
            "coordinatewise": lambda: AffineQuadraticBifunction(
                rng.standard_normal((d, d)), np.diag(rng.uniform(0.1, 2.0, d)),
                rng.standard_normal(d)),
            "projected_gradient": lambda: dense_aq(rng, d, 4.0, face=True),
            "operator": lambda: ViInducedBifunction(
                CallableOperator(lambda y: np.tanh(M @ y), 2.0, d)),
            "blackbox": lambda: as_blackbox(vi(M, rng.standard_normal(d))),
        }[family]()
        box = Box(-np.ones(d), np.ones(d))
        assert type(prox_module._kernel([f], 0.2, box)).__name__ == kernel
        w, x = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        for max_inner in (100_000, 1):  # converged; then, for the iterative kernels, capped
            monkeypatch.setattr(prox_module, "MAX_INNER", max_inner)
            Y, record = solve_prox(f, w, x, 0.2, box)
            Y_row, record_row = ProxSystem([f], 0.2, box).solve_row(0, w, x, 1)
            assert Y.shape == Y_row.shape == (1, d)
            assert Y.tobytes() == Y_row.tobytes()
            assert_same_record(record, record_row)
            if max_inner == 1 and family in ("projected_gradient", "blackbox"):
                assert record.nonconverged and record.nonconverged[0][0] == 0

    def test_row_at_max_inner_reports_like_one_row_solve(self, rng, monkeypatch):
        import csepsolve.prox as prox_module

        d = 6
        # both minimizers lie on a face, so neither start is the answer
        fs = [dense_aq(rng, d, scale, face=True) for scale in (0.5, 5.0)]
        box = Box(-np.ones(d), np.ones(d))
        w, x = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        monkeypatch.setattr(prox_module, "MAX_INNER", 3)
        system = ProxSystem(fs, 0.2, box)
        Y, record = system.solve(w, x, 1)
        diagnostic = "projected gradient hit 3 iterations"
        assert_same_record(record, ProxRecord(2, 6, ((0, diagnostic), (1, diagnostic)), math.inf))
        for i, (f, y_stacked) in enumerate(zip(fs, Y)):
            Y_i, record_i = system.solve_row(i, w, x, 1)
            Y_1, record_1 = solve_prox(f, w, x, 0.2, box)
            y, _, converged = projected_gradient_prox(f, w, x, 0.2, box, 1e-10, 3)
            assert (Y_i[0].tobytes(), record_i.inner_iterations) == (y.tobytes(), 3)
            assert y_stacked.tobytes() == y.tobytes()
            assert record_1.nonconverged == ((0, diagnostic),)
            assert Y_i[0].tobytes() == Y_1[0].tobytes()
            assert_same_record(record_1, ProxRecord(1, 3, ((0, diagnostic),), math.inf))
            assert_same_record(record_i, ProxRecord(1, 3, ((i, diagnostic),), math.inf))
