import numpy as np
import pytest

from csepsolve import (
    AffineOperator,
    AffineQuadraticBifunction,
    BlackBoxBifunction,
    Box,
    CallableOperator,
    CsepInstance,
    CutStack,
    DimensionMismatch,
    HalfspaceCut,
    LipschitzData,
    Polyhedron,
    SingletonSolution,
    UnknownConstants,
    ViInducedBifunction,
    default_lipschitz,
    project_two_halfspaces,
    spectral_norm_estimate,
    validate,
)

from oracles import central_difference


def vi(M, q=None, L=None):
    M = np.asarray(M, dtype=float)
    q = np.zeros(M.shape[0]) if q is None else np.asarray(q, dtype=float)
    return ViInducedBifunction(AffineOperator(M, q, L))


class TestValue:
    def test_identity_operator(self):
        f = vi(np.eye(2))
        assert f.value(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == -1.0

    def test_diagonal_vanishes(self):
        f = vi([[3.0, 1.0], [0.0, 2.0]], [0.5, -1.0])
        x = np.array([0.3, -0.8])
        assert f.value(x, x) == 0.0

    def test_affine_quadratic(self):
        f = AffineQuadraticBifunction(np.eye(1), np.zeros((1, 1)), np.zeros(1))
        assert f.value(np.array([2.0]), np.array([3.0])) == 2.0

    def test_value_batch_matches_loop(self, rng):
        fs = [
            vi(rng.standard_normal((3, 3)), rng.standard_normal(3)),
            AffineQuadraticBifunction(
                rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
                rng.standard_normal(3),
            ),
        ]
        for f in fs:
            x = rng.standard_normal(3)
            Y = rng.standard_normal((20, 3))
            batch = f.value_batch(x, Y)
            loop = np.array([f.value(x, y) for y in Y])
            assert np.allclose(batch, loop, atol=1e-12)

    def test_monotonicity_identity(self, rng):
        # value(f, x, y) + value(f, y, x) equals <A(x) - A(y), y - x>
        f = vi(rng.standard_normal((4, 4)), rng.standard_normal(4))
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            lhs = f.value(x, y) + f.value(y, x)
            rhs = float((f.operator(x) - f.operator(y)) @ (y - x))
            assert abs(lhs - rhs) < 1e-12


class TestSubgrad2:
    def test_operator_induced_constant_in_y(self, rng):
        M = rng.standard_normal((3, 3))
        f = vi(M)
        x = rng.standard_normal(3)
        for _ in range(5):
            y = rng.standard_normal(3)
            assert np.allclose(f.subgrad2(x, y), M @ x)

    def test_linear_case_gradient_is_x(self):
        f = AffineQuadraticBifunction(np.eye(2), np.zeros((2, 2)), np.zeros(2))
        x = np.array([0.7, -0.2])
        assert np.allclose(f.subgrad2(x, np.array([5.0, 5.0])), x)

    def test_pure_quadratic_gradient(self):
        f = AffineQuadraticBifunction(np.zeros((1, 1)), np.eye(1), np.zeros(1))
        x = np.zeros(1)
        y = np.ones(1)
        grad = f.subgrad2(x, y)
        fd = central_difference(lambda v: f.value(x, v), y)
        assert np.allclose(grad, [2.0], atol=1e-9)
        assert np.allclose(grad, fd, atol=1e-6)

    def test_matches_finite_differences(self, rng):
        fs = [
            vi(rng.standard_normal((3, 3)), rng.standard_normal(3)),
            AffineQuadraticBifunction(
                rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
                rng.standard_normal(3),
            ),
        ]
        for f in fs:
            for _ in range(25):
                x = rng.standard_normal(3)
                y = rng.standard_normal(3)
                fd = central_difference(lambda v: f.value(x, v), y)
                assert np.max(np.abs(f.subgrad2(x, y) - fd)) < 1e-6


class TestLipschitz:
    def test_vi_rule_half_l(self):
        data = default_lipschitz(vi(np.eye(2), L=1.0))
        assert data.c1 == data.c2 == 0.5
        data = default_lipschitz(vi(np.eye(2), L=4.0))
        assert data.c1 == data.c2 == 2.0

    def test_equal_matrices_rejected(self):
        P = np.array([[1.0, 0.3], [0.0, 2.0]])
        f = AffineQuadraticBifunction(P, P.T, np.zeros(2))
        with pytest.raises(UnknownConstants):
            default_lipschitz(f)

    def test_affine_quadratic_constants_are_estimated_once(self, rng, monkeypatch):
        import csepsolve.problems as problems_module

        calls = []

        def counting(M):
            calls.append(M)
            return spectral_norm_estimate(M)

        monkeypatch.setattr(problems_module, "spectral_norm_estimate", counting)
        P, Q = rng.standard_normal((2, 3, 3))
        f = AffineQuadraticBifunction(P, Q, np.zeros(3))
        assert f.lipschitz_data() == f.lipschitz_data()
        assert len(calls) == 1
        same = AffineQuadraticBifunction(P, P.T, np.zeros(3))
        for _ in range(2):
            with pytest.raises(UnknownConstants):
                same.lipschitz_data()

    def test_blackbox_needs_constants(self):
        f = BlackBoxBifunction(lambda x, y: 0.0, lambda x, y: np.zeros_like(x))
        with pytest.raises(UnknownConstants):
            f.lipschitz_data()

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            LipschitzData(0.0, 0.0)
        with pytest.raises(ValueError):
            LipschitzData(-1.0, 2.0)

    def test_spectral_norm_against_svd(self, rng):
        for _ in range(25):
            M = rng.standard_normal((4, 4))
            est = spectral_norm_estimate(M)
            exact = float(np.linalg.svd(M, compute_uv=False)[0])
            assert abs(est - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("family", ["vi", "aq"])
    def test_type_inequality_on_samples(self, family, rng):
        # f(x,y) + f(y,z) >= f(x,z) - c1 ||x-y||^2 - c2 ||y-z||^2
        if family == "vi":
            f = vi(rng.standard_normal((3, 3)), rng.standard_normal(3))
        else:
            f = AffineQuadraticBifunction(
                rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
                rng.standard_normal(3),
            )
        data = f.lipschitz_data()
        box = Box(-np.ones(3), np.ones(3))
        X = box.sample(rng, 10_000)
        Y = box.sample(rng, 10_000)
        Z = box.sample(rng, 10_000)
        worst = 0.0
        for x, y, z in zip(X, Y, Z):
            slack = (
                f.value(x, y) + f.value(y, z) - f.value(x, z)
                + data.c1 * float((x - y) @ (x - y))
                + data.c2 * float((y - z) @ (y - z))
            )
            worst = min(worst, slack)
        assert worst >= -1e-9


class TestInstance:
    def test_dimension_coherence(self):
        with pytest.raises(DimensionMismatch):
            CsepInstance(2, Box([-1.0], [1.0]), [vi(np.eye(2))], [0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]), [vi(np.eye(3))],
                         [0.0, 0.0])

    def test_a_known_solution_of_another_dimension_is_rejected(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        for known in (SingletonSolution([0.0]), Box(-np.ones(3), np.ones(3))):
            with pytest.raises(DimensionMismatch, match="known solution"):
                CsepInstance(2, box, [vi(np.eye(2))], [0.0, 0.0], known)

    def test_needs_bifunction(self):
        with pytest.raises(ValueError):
            CsepInstance(1, Box([-1.0], [1.0]), [], [0.0])

    def test_lipschitz_max(self):
        inst = CsepInstance(
            2, Box([-1.0, -1.0], [1.0, 1.0]),
            [vi(np.eye(2), L=1.0), vi(2 * np.eye(2), L=2.0)],
            [0.0, 0.0],
        )
        assert inst.lipschitz_max() == (1.0, 1.0)

    def test_reference_point_singleton(self):
        inst = CsepInstance(1, Box([-1.0], [1.0]), [vi(np.eye(1))], [0.7],
                            SingletonSolution([0.25]))
        assert np.allclose(inst.reference_point(), [0.25])

    def test_reference_point_segment(self):
        sol = Box([0.0, -1.0], [0.0, 1.0])  # {0} x [-1, 1]
        assert np.allclose(sol.project(np.array([0.5, 0.3])), [0.0, 0.3])
        assert np.allclose(sol.project(np.array([-2.0, 5.0])), [0.0, 1.0])


class TestValidate:
    def box2(self):
        return Box([-1.0, -1.0], [1.0, 1.0])

    def test_monotone_affine_clean(self, rng):
        M = np.array([[2.0, 0.4], [-0.4, 1.0]])  # positive definite symmetric part
        inst = CsepInstance(2, self.box2(), [vi(M)], [0.0, 0.0])
        report = validate(inst, samples=1000, seed=3)
        assert report.total_violations == 0
        assert report.bifunctions[0].subgrad_max_err < 1e-6

    def test_constant_bifunction_flagged(self):
        f = BlackBoxBifunction(lambda x, y: 1.0, lambda x, y: np.zeros_like(x),
                               LipschitzData(1.0, 1.0))
        inst = CsepInstance(2, self.box2(), [f], [0.0, 0.0])
        report = validate(inst, samples=200, seed=0)
        assert report.bifunctions[0].max_diag_abs == 1.0
        assert report.total_violations >= 1

    def test_single_sample(self):
        inst = CsepInstance(2, self.box2(), [vi(np.eye(2))], [0.0, 0.0])
        report = validate(inst, samples=1)
        assert report.samples == 1
        assert len(report.bifunctions) == 1

    def test_nonconvex_in_y_flagged(self):
        # f(x, y) = -||y - x||^2 is concave in y
        f = BlackBoxBifunction(
            lambda x, y: -float((y - x) @ (y - x)),
            lambda x, y: -2.0 * (y - x),
            LipschitzData(1.0, 1.0),
        )
        inst = CsepInstance(2, self.box2(), [f], [0.0, 0.0])
        report = validate(inst, samples=300, seed=1)
        assert report.bifunctions[0].convexity_violations > 0

    def test_understated_operator_constant_warns(self):
        f = ViInducedBifunction(AffineOperator(3.0 * np.eye(2), np.zeros(2),
                                               lipschitz_L=1.0))
        inst = CsepInstance(2, self.box2(), [f], [0.0, 0.0])
        report = validate(inst, samples=50)
        assert report.bifunctions[0].warnings

    def test_callable_operator(self):
        op = CallableOperator(lambda x: 2.0 * x, lipschitz_L=2.0, dimension=2)
        f = ViInducedBifunction(op, LipschitzData(1.0, 1.0))
        inst = CsepInstance(2, self.box2(), [f], [0.0, 0.0])
        report = validate(inst, samples=100, seed=2)
        assert report.bifunctions[0].pseudomono_violations == 0


MALFORMED = {
    "cut_normal_2d": (lambda: HalfspaceCut(np.zeros((2, 2)), 0.0),
                      DimensionMismatch, "1-D vector"),
    "stack_offsets_count": (lambda: CutStack(np.zeros((2, 2)), np.zeros(3)),
                            DimensionMismatch, "k offsets"),
    "polyhedron_mixed": (lambda: Polyhedron([HalfspaceCut([1.0], 0.0),
                                             HalfspaceCut([1.0, 0.0], 0.0)]),
                         DimensionMismatch, "mixed dimensions"),
    "two_cuts_mixed": (lambda: project_two_halfspaces(HalfspaceCut([1.0], 0.0),
                                                      HalfspaceCut([1.0, 0.0], 0.0), [0.0]),
                       DimensionMismatch, "different dimensions"),
    "operator_not_square": (lambda: AffineOperator(np.zeros((2, 3)), np.zeros(2)),
                            DimensionMismatch, "square"),
    "operator_shift_size": (lambda: AffineOperator(np.eye(2), np.zeros(3)),
                            DimensionMismatch, "shift dimension"),
    "callable_zero_constant": (lambda: CallableOperator(lambda x: x, 0.0, 1),
                               ValueError, "must be positive"),
    "quadratic_q_size": (lambda: AffineQuadraticBifunction(np.eye(2), np.eye(3), np.zeros(2)),
                         DimensionMismatch, "d-by-d"),
    "validate_no_samples": (lambda: validate(CsepInstance(1, Box([-1.0], [1.0]),
                                                          [vi(np.eye(1))], [0.0]), 0),
                            ValueError, "samples must be >= 1"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_construction_raises(name):
    build, error, message = MALFORMED[name]
    with pytest.raises(error, match=message):
        build()
