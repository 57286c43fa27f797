import math

import numpy as np
import pytest

from csepsolve import (
    AffineOperator,
    AffineQuadraticBifunction,
    Ball,
    BlackBoxBifunction,
    Box,
    CallableOperator,
    LipschitzData,
    NonFiniteObjective,
    ProxSystem,
    ViInducedBifunction,
    WholeSpace,
    certify_prox,
    solve_prox,
)
from csepsolve.prox import ProxRecord, _require_finite, _squared_bound, objective, probe_rng

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
        res = solve_prox(f, w, x, 0.2, box)
        assert np.allclose(res.minimizer, [0.8, 0.0], atol=1e-15)

    def test_projected_step_identity_random(self, rng):
        M = rng.standard_normal((3, 3))
        f = vi(M, rng.standard_normal(3))
        box = Box(-np.ones(3), np.ones(3))
        for _ in range(100):
            w = rng.standard_normal(3)
            x = rng.standard_normal(3)
            lam = float(rng.uniform(0.05, 0.45))
            res = solve_prox(f, w, x, lam, box)
            direct = box.project(x - lam * f.operator(w))
            assert np.linalg.norm(res.minimizer - direct) <= 1e-12

    def test_zero_operator_reduces_to_projection(self):
        f = vi(np.zeros((2, 2)), L=1.0)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        x = np.array([2.0, 0.25])
        res = solve_prox(f, np.array([0.3, 0.3]), x, 0.7, box)
        assert np.allclose(res.minimizer, [1.0, 0.25])


class TestAffineQuadraticRoute:
    def test_one_dimensional_calculus(self):
        # minimize 0.5*y*(y-1) + 0.5*(1-y)^2 over the line: minimizer 0.75
        f = AffineQuadraticBifunction(np.zeros((1, 1)), np.eye(1), np.zeros(1))
        w = x = np.array([1.0])
        res = solve_prox(f, w, x, 0.5, WholeSpace(1))
        assert abs(res.minimizer[0] - 0.75) < 1e-9
        grid = grid_minimize_1d(lambda y: objective(f, w, x, 0.5, np.array([y])),
                                -3.0, 3.0)
        assert abs(res.minimizer[0] - grid) < 1e-6

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
            res = solve_prox(f, w, x, lam, box)
            assert res.inner_iterations == 1
            gap = certify_prox(f, w, x, lam, box, res.minimizer, 300, rng)
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
        res = solve_prox(f, w, x, 0.11, box)
        assert res.converged
        gap = certify_prox(f, w, x, 0.11, box, res.minimizer, 500, rng)
        assert gap >= -1e-7
        Y = box.sample(rng, 2000)
        best_sampled = min(objective(f, w, x, 0.11, y) for y in Y)
        assert objective(f, w, x, 0.11, res.minimizer) <= best_sampled + 1e-9


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
            solve_prox(good, w, x, 0.2, box).minimizer.tobytes())
        for solve in (lambda: system.solve_row(0, w, x, 1), lambda: system.solve(w, x, 1)):
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
            one_row = solve_prox(f, W[0], x, 0.2, box)
            assert Y.shape == (1, d)
            assert Y[0].tobytes() == one_row.minimizer.tobytes()
            assert_same_record(record, result_record(one_row))


class TestFiniteCheckAndStepBound:
    """The summed finiteness test and the squared stopping bound decide
    exactly as the elementwise test and the row norms did."""

    @pytest.mark.parametrize("Y", [[[1.0, np.nan]], [[np.inf, 0.0], [1.0, 2.0]],
                                   [[np.inf, -np.inf]], [[-np.inf]]])
    def test_require_finite_raises(self, Y):
        with pytest.raises(NonFiniteObjective), np.errstate(invalid="ignore"):
            _require_finite(np.array(Y))

    def test_require_finite_passes_a_finite_stack_whose_sum_overflows(self):
        with np.errstate(over="ignore"):
            _require_finite(np.array([[1e308, 1e308], [1e308, -1.0]]))
        _require_finite(np.empty((0, 3)))

    @pytest.mark.parametrize("tol", [0.0, 5e-324, 1e-300, 1e-160, 1e-10, 1e-8,
                                     0.3, 1.0, 2.0, 1e154, 1e200, math.inf])
    def test_squared_bound_is_the_largest_dot_within_tol(self, tol):
        s = _squared_bound(tol)
        assert math.sqrt(s) <= tol
        assert s == math.inf or math.sqrt(math.nextafter(s, math.inf)) > tol
        dots = [s, tol * tol, 0.0, math.inf]
        for direction in (0.0, math.inf):
            v = s
            for _ in range(8):
                v = math.nextafter(v, direction)
                dots.append(v)
        dots = np.array(dots)
        with np.errstate(over="ignore"):
            assert ((dots <= s) == (np.sqrt(dots) <= tol)).all()

    @pytest.mark.parametrize("tol", [-1e-10, -math.inf, math.nan])
    def test_squared_bound_admits_nothing_for_a_negative_tol(self, tol):
        s = _squared_bound(tol)
        dots = np.array([0.0, 5e-324, 1.0, math.inf])
        assert not (dots <= s).any()
        assert not (np.sqrt(dots) <= tol).any()


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
            a = solve_prox(fast, w, x, lam, box)
            b = solve_prox(slow, w, x, lam, box)
            assert np.linalg.norm(a.minimizer - b.minimizer) < 1e-6

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
        res = solve_prox(f, w, x, 0.2, box)
        assert res.converged
        gap = certify_prox(f, w, x, 0.2, box, res.minimizer, 400, rng)
        assert gap >= -1e-7

    def test_objective_never_worse_than_plain_projection(self, rng):
        f = as_blackbox(vi(2.0 * np.eye(2), L=2.0), 1.0, 1.0)
        box = Box(-np.ones(2), np.ones(2))
        for _ in range(20):
            w = rng.standard_normal(2)
            x = rng.standard_normal(2) * 2.0
            lam = 0.2
            res = solve_prox(f, w, x, lam, box)
            naive = objective(f, w, x, lam, box.project(x))
            assert objective(f, w, x, lam, res.minimizer) <= naive + 1e-10


class TestCertify:
    def test_exact_solution_nonnegative(self, rng):
        f = vi(np.eye(2))
        box = Box(-np.ones(2), np.ones(2))
        w = x = np.array([0.5, 0.5])
        res = solve_prox(f, w, x, 0.2, box)
        gap = certify_prox(f, w, x, 0.2, box, res.minimizer, 200, rng)
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
        res = solve_prox(f, w, x, 0.2, box)
        wrong = res.minimizer + np.array([0.1, 0.0])
        gap = certify_prox(f, w, x, 0.2, box, wrong, 200, rng)
        assert gap < -1e-4

    def test_lam_must_be_positive(self):
        f = vi(np.eye(1))
        with pytest.raises(ValueError):
            solve_prox(f, np.zeros(1), np.zeros(1), 0.0, Box([-1.0], [1.0]))


def result_record(r, i=0):
    """The record of the one solve ``r`` (a ``ProxResult``) as subproblem i:
    its certificate gap unless NaN, else inf."""
    least = math.inf if math.isnan(r.certificate_gap) else r.certificate_gap
    return ProxRecord(1, r.inner_iterations, () if r.converged else ((i, r.diagnostic),),
                      least)


def assert_same_record(a, b):
    """Equal records of Python ints, floats compared by repr (NaN equals NaN)."""
    assert repr(a) == repr(b)
    assert all(type(v) is int for v in (a.solves, a.inner_iterations))


def assert_stack_matches_rows(fs, W, x, lam, set_, certify_probes=0, seed=0, n=1):
    """ProxSystem.solve equals a loop of one-row solve_prox calls, and a
    loop of ProxSystem.solve_row calls, bit for bit: each row of its
    minimizers, and its record that of the rows.  Returns the one-row
    results."""
    system = ProxSystem(fs, lam, set_, certify_probes, seed)
    Y, record = system.solve(W, x, n)
    anchors = [W if W.ndim == 1 else W[i] for i in range(len(fs))]
    rows = [
        solve_prox(f, w, x, lam, set_, certify_probes=certify_probes,
                   rng=probe_rng(certify_probes, seed, n, i))
        for i, (f, w) in enumerate(zip(fs, anchors))
    ]
    ones = [system.solve_row(i, w, x, n) for i, w in enumerate(anchors)]
    assert Y.shape == (len(fs), x.size)
    assert len(rows) == len(ones) == len(fs)
    for i, (y, b, (Y_i, record_i)) in enumerate(zip(Y, rows, ones)):
        assert y.tobytes() == b.minimizer.tobytes()
        assert Y_i.shape == (1, x.size) and Y_i[0].tobytes() == y.tobytes()
        assert_same_record(record_i, result_record(b, i))
    assert_same_record(record, ProxRecord.of([result_record(b) for b in rows]))
    assert_same_record(record, ProxRecord.of([r for _, r in ones]))
    return rows


def monotone_matrix(rng, d):
    B = rng.standard_normal((d, max(1, d // 2))) / np.sqrt(d)
    K = rng.standard_normal((d, d)) / np.sqrt(d)
    return B @ B.T + 0.1 * np.eye(d) + 0.5 * (K - K.T)


def dense_aq(rng, d, scale=1.0):
    C = rng.standard_normal((d, d)) / np.sqrt(d)
    Q = scale * (C @ C.T)
    return AffineQuadraticBifunction(Q + monotone_matrix(rng, d), Q, rng.standard_normal(d))


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
        for i, (f, r) in enumerate(zip(fs, results)):
            w = W if W.ndim == 1 else W[i]
            direct = box.project(x - 0.3 * (f.operator.M @ w + f.operator.q))
            assert r.minimizer.tobytes() == direct.tobytes()

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
        assert len({r.inner_iterations for r in results}) > 1
        for i, (f, r) in enumerate(zip(fs, results)):
            y, steps, converged = projected_gradient_prox(
                f, W if W.ndim == 1 else W[i], x, 0.2, box, 1e-10, 100_000)
            assert (r.minimizer.tobytes(), r.inner_iterations, r.converged) == (
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
        assert results[1].inner_iterations == 1
        assert results[0].inner_iterations > 1

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
        assert not any(np.isnan(r.certificate_gap) for r in results)
        fs = [dense_aq(rng, d, scale) for scale in (0.5, 4.0)]
        assert_stack_matches_rows(fs, rng.uniform(-1, 1, (2, d)), x, 0.2, box,
                                  certify_probes=2, seed=5, n=7)

    def test_row_at_max_inner_reports_like_one_row_solve(self, rng, monkeypatch):
        import csepsolve.prox as prox_module

        d = 6
        fs = [dense_aq(rng, d, scale) for scale in (0.5, 5.0)]
        box = Box(-np.ones(d), np.ones(d))
        w, x = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        monkeypatch.setattr(prox_module, "MAX_INNER", 3)
        system = ProxSystem(fs, 0.2, box)
        Y, record = system.solve(w, x, 1)
        diagnostic = "projected gradient hit 3 iterations"
        assert_same_record(record, ProxRecord(2, 6, ((0, diagnostic), (1, diagnostic)), math.inf))
        for i, (f, y_stacked) in enumerate(zip(fs, Y)):
            Y_i, record_i = system.solve_row(i, w, x, 1)
            one_row = solve_prox(f, w, x, 0.2, box)
            y, _, converged = projected_gradient_prox(f, w, x, 0.2, box, 1e-10, 3)
            assert (Y_i[0].tobytes(), record_i.inner_iterations) == (y.tobytes(), 3)
            assert y_stacked.tobytes() == y.tobytes()
            assert not one_row.converged
            assert one_row.diagnostic == diagnostic
            assert Y_i[0].tobytes() == one_row.minimizer.tobytes()
            assert_same_record(record_i, result_record(one_row, i))
            assert_same_record(record_i, ProxRecord(1, 3, ((i, diagnostic),), math.inf))
