import numpy as np
import pytest

from csepsolve import (
    AffineOperator,
    Box,
    CsepInstance,
    HybridParams,
    SingletonSolution,
    ViInducedBifunction,
    baselines,
)
from csepsolve.baselines import (
    ArmijoParams,
    armijo_linesearch,
    armijo_step_size,
    run_armijo_hybrid,
    run_hybrid_extragradient,
)
from csepsolve.errors import LinesearchFailed, ParameterViolation
from csepsolve.geometry import WholeSpace
from csepsolve.hybrid import run_single
from csepsolve.problems import BlackBoxBifunction, CallableOperator, LipschitzData

from conftest import PROBLEM_DIR, csep2_instance, halfline_instance, scalar_1d_instance


class TestExtragradient:
    def test_scalar_problem(self):
        inst = scalar_1d_instance()
        out = run_hybrid_extragradient(inst, lam=0.3,
                                       known_point=inst.reference_point())
        assert out.stop_reason == "tolerance"
        assert abs(out.final_x[0]) < 1e-6
        assert out.total_violations == 0
        assert out.counters.prox_solves == 2 * out.iterations

    def test_zero_bifunction_stops_at_anchor(self):
        op = AffineOperator(np.zeros((2, 2)), np.zeros(2), lipschitz_L=1.0)
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]),
                            [ViInducedBifunction(op)], [0.4, -0.2])
        out = run_hybrid_extragradient(inst, lam=0.3)
        assert out.stop_reason == "tolerance"
        assert out.iterations == 1
        assert np.allclose(out.final_x, [0.4, -0.2])

    def test_halfline_agrees_with_extra_step_free(self):
        inst = halfline_instance()
        ref = inst.reference_point()
        base = run_hybrid_extragradient(inst, lam=0.3, known_point=ref)
        ours = run_single(inst, HybridParams(lam=0.4, k=6.0), known_point=ref)
        assert np.linalg.norm(base.final_x - np.array([0.0, 0.3])) < 1e-4
        assert np.linalg.norm(base.final_x - ours.final_x) < 1e-4

    def test_lam_range_enforced(self):
        inst = scalar_1d_instance()  # c1 = c2 = 0.5 so lam must stay below 1
        with pytest.raises(ParameterViolation):
            run_hybrid_extragradient(inst, lam=1.0)

    @pytest.mark.parametrize("c1, c2", [(0.0, 1.0), (1.0, 0.0)])
    def test_lam_range_uses_the_positive_constant_when_one_is_zero(self, c1, c2):
        op = AffineOperator(np.eye(2), np.zeros(2), lipschitz_L=1.0)
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]),
                            [ViInducedBifunction(op, LipschitzData(c1, c2))], [0.4, -0.2])
        for lam in (0.5, 10.0):
            with pytest.raises(ParameterViolation, match=r"outside \(0, 0.5\)"):
                run_hybrid_extragradient(inst, lam=lam)
        assert run_hybrid_extragradient(inst, lam=0.45).stop_reason == "tolerance"

    def test_requires_anchor_in_set(self):
        op = AffineOperator(np.eye(1), np.zeros(1))
        inst = CsepInstance(1, Box([-1.0], [1.0]), [ViInducedBifunction(op)], [2.0])
        with pytest.raises(ParameterViolation):
            run_hybrid_extragradient(inst, lam=0.3)

    def test_requires_single_problem(self):
        with pytest.raises(ParameterViolation):
            run_hybrid_extragradient(csep2_instance(), lam=0.1)


class TestLinesearch:
    def test_accepts_first_trial(self):
        op = CallableOperator(lambda x: np.array([-4.0]), 4.0, 1)
        f = ViInducedBifunction(op, LipschitzData(2.0, 2.0))
        m, z = armijo_linesearch(f, np.array([0.0]), np.array([1.0]), 0.5,
                                 ArmijoParams(eta=0.5, lam=0.5))
        assert m == 1
        assert np.allclose(z, [0.5])

    def test_equal_points_rejected(self):
        op = AffineOperator(np.eye(1), np.zeros(1))
        f = ViInducedBifunction(op)
        x = np.array([0.3])
        with pytest.raises(LinesearchFailed):
            armijo_linesearch(f, x, x.copy(), 0.5, ArmijoParams(eta=0.5, lam=0.5))

    def test_third_trial_mixing(self):
        # value drops below the threshold only once the mixing point passes 0.2
        def evaluate(x, y):
            slope = -2.0 if x[0] <= 0.2 else 0.0
            return slope * (y[0] - x[0])

        f = BlackBoxBifunction(
            evaluate,
            lambda x, y: np.array([-2.0 if x[0] <= 0.2 else 0.0]),
            LipschitzData(1.0, 1.0),
        )
        m, z = armijo_linesearch(f, np.array([0.0]), np.array([1.0]), 0.5,
                                 ArmijoParams(eta=0.5, lam=0.5))
        assert m == 3
        assert np.allclose(z, [0.875 * 0.0 + 0.125 * 1.0])

    def test_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(baselines, "MAX_LINESEARCH", 10)
        f = BlackBoxBifunction(lambda x, y: 1.0, lambda x, y: np.zeros_like(x),
                               LipschitzData(1.0, 1.0))
        with pytest.raises(LinesearchFailed, match="within 10 trials; last value 1$"):
            armijo_linesearch(f, np.array([0.0]), np.array([1.0]), 0.5,
                              ArmijoParams(eta=0.5, lam=0.5))

    def test_eta_validated(self):
        with pytest.raises(ParameterViolation):
            ArmijoParams(eta=1.0, lam=0.5)
        with pytest.raises(ParameterViolation):
            ArmijoParams(eta=0.5, lam=-1.0)

    @pytest.mark.parametrize("lam", [float("inf"), float("nan")])
    def test_a_lam_that_is_not_finite_is_rejected(self, lam):
        with pytest.raises(ParameterViolation, match="positive and finite"):
            ArmijoParams(eta=0.5, lam=lam)


class TestArmijoHybrid:
    def test_scalar_problem(self):
        inst = scalar_1d_instance()
        out = run_armijo_hybrid(inst, ArmijoParams(eta=0.5, lam=0.3),
                                known_point=inst.reference_point())
        assert out.stop_reason == "tolerance"
        assert abs(out.final_x[0]) < 1e-6
        assert out.total_violations == 0

    def test_starts_converged(self):
        op = AffineOperator([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], lipschitz_L=1.0)
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]),
                            [ViInducedBifunction(op)], [0.0, 0.2])
        out = run_armijo_hybrid(inst, ArmijoParams(eta=0.5, lam=0.3))
        assert out.stop_reason == "tolerance"
        assert out.iterations == 1
        assert np.allclose(out.final_x, [0.0, 0.2])

    def test_halfline_matches_other_methods(self):
        inst = halfline_instance()
        ref = inst.reference_point()
        out = run_armijo_hybrid(inst, ArmijoParams(eta=0.5, lam=0.3), known_point=ref)
        assert np.linalg.norm(out.final_x - np.array([0.0, 0.3])) < 1e-4
        assert out.total_violations == 0

    def test_step_size_zero_when_subgradient_vanishes(self):
        f = BlackBoxBifunction(lambda x, y: -1.0, lambda x, y: np.zeros_like(x),
                               LipschitzData(1.0, 1.0))
        sigma, g = armijo_step_size(f, np.array([0.1]), np.array([0.9]), 2, 0.5)
        assert sigma == 0.0
        assert np.allclose(g, [0.0])

    def test_step_size_formula(self):
        op = CallableOperator(lambda x: np.array([2.0]), 2.0, 1)
        f = ViInducedBifunction(op, LipschitzData(1.0, 1.0))
        z = np.array([0.25])
        y = np.array([1.0])
        sigma, g = armijo_step_size(f, z, y, 2, 0.5)
        # -eta^m f(z, y) / ((1 - eta^m) ||g||^2) with f(z, y) = 2*(1 - 0.25)
        assert np.allclose(g, [2.0])
        assert abs(sigma - (-0.25 * 1.5 / (0.75 * 4.0))) < 1e-15

    def test_flat_slope_region_runs_clean(self):
        def evaluate(x, y):
            slope = -2.0 if abs(x[0]) <= 0.2 else 0.0
            return slope * (y[0] - x[0])

        f = BlackBoxBifunction(
            evaluate,
            lambda x, y: np.array([-2.0 if abs(x[0]) <= 0.2 else 0.0]),
            LipschitzData(1.0, 1.0),
        )
        inst = CsepInstance(1, Box([-1.0], [1.0]), [f], [0.0])
        out = run_armijo_hybrid(inst, ArmijoParams(eta=0.5, lam=0.5), max_outer=3)
        assert out.error is None

    def test_requires_anchor_in_set(self):
        op = AffineOperator(np.eye(1), np.zeros(1))
        inst = CsepInstance(1, Box([-1.0], [1.0]), [ViInducedBifunction(op)], [2.0])
        with pytest.raises(ParameterViolation):
            run_armijo_hybrid(inst, ArmijoParams(eta=0.5, lam=0.3))


class TestBallSet:
    def ball_instance(self):
        from csepsolve.geometry import Ball

        # A(x) = x - (2, 0): the solution sits on the boundary at (1, 0)
        op = AffineOperator(np.eye(2), np.array([-2.0, 0.0]), lipschitz_L=1.0)
        return CsepInstance(2, Ball([0.0, 0.0], 1.0), [ViInducedBifunction(op)],
                            [0.2, 0.6], SingletonSolution([1.0, 0.0]))

    def test_cut_only_solver_handles_ball(self):
        inst = self.ball_instance()
        out = run_single(inst, HybridParams(lam=0.3, k=4.0, max_outer=8000),
                         known_point=inst.reference_point())
        assert out.error is None
        assert out.total_violations == 0
        assert np.linalg.norm(out.final_x - np.array([1.0, 0.0])) < 1e-3

    def test_baseline_on_ball_errs_cleanly_or_converges(self):
        # the baselines project onto C intersected with their cuts; on
        # non-polyhedral sets that inner problem can stall near convergence,
        # which must surface as a diagnosed error outcome, not a crash
        inst = self.ball_instance()
        out = run_hybrid_extragradient(inst, lam=0.4, max_outer=8000,
                                       known_point=inst.reference_point())
        assert out.stop_reason in ("tolerance", "max_outer", "error")
        if out.stop_reason == "error":
            assert "anchor projection" in out.error
            assert out.trace[-1].dist_to_known < 1e-3

    def test_both_cuts_whole_space_project_x0_onto_the_set_alone(self, monkeypatch):
        # A(x) = x from x0 = 0, its solution: predictor and corrector stay
        # at x0, so the C-cut and Q-cut are the whole space and the anchor
        # step is one projection onto the ball, with no Dykstra cycle
        from csepsolve.geometry import Ball

        def no_dykstra(*args, **kw):
            raise AssertionError("dykstra called with no live cut")

        monkeypatch.setattr(baselines, "dykstra", no_dykstra)
        op = AffineOperator(np.eye(2), np.zeros(2))
        inst = CsepInstance(2, Ball([0.0, 0.0], 1.0), [ViInducedBifunction(op)], [0.0, 0.0])
        out = run_hybrid_extragradient(inst, lam=0.2, known_point=np.zeros(2))
        assert (out.stop_reason, out.iterations) == ("tolerance", 1)
        assert out.trace[0].degenerate_cuts == 2
        assert (out.counters.set_projections, out.counters.prox_solves) == (3, 2)
        assert out.total_violations == 0
        assert out.final_x.tolist() == [0.0, 0.0]


class TestWholeSpace:
    """On R^d the anchor projection is onto the cuts alone: one exact
    halfspace projection, counted as one set projection."""

    def instance(self, M, q, x0, point):
        op = AffineOperator(np.array(M, dtype=float), np.array(q, dtype=float))
        return CsepInstance(2, WholeSpace(2), [ViInducedBifunction(op)], x0,
                            SingletonSolution(point))

    def runs(self, inst):
        known = inst.reference_point()
        return (
            run_hybrid_extragradient(inst, lam=0.3, max_outer=5000, known_point=known),
            run_armijo_hybrid(inst, ArmijoParams(eta=0.5, lam=0.3), max_outer=5000,
                              known_point=known),
        )

    def test_skew_operator_runs_without_an_anchor_projection_error(self):
        # A(x) = M x + q with a skew part; zero at (0.5, 0).  Sent through
        # Dykstra with the identity as the "projection onto C", both
        # baselines stalled and ended in an error.
        inst = self.instance([[2.0, 1.0], [-1.0, 1.0]], [-1.0, 0.5], [0.4, -0.7], [0.5, 0.0])
        for out, reach in zip(self.runs(inst), (1e-4, 2e-3)):
            assert out.error is None
            assert (out.stop_reason, out.iterations) == ("max_outer", 5000)
            assert out.total_violations == 0
            assert np.linalg.norm(out.final_x - [0.5, 0.0]) < reach
            # two prox solves (or one prox solve and the relaxation
            # projection), plus one anchor projection
            assert out.counters.set_projections == 3 * out.iterations

    def test_degenerate_operator_counts_one_set_projection_per_anchor_projection(self):
        # A(x) = (x1, 0); x0 = (0.5, 0.3) projects onto the solution line at (0, 0.3)
        inst = self.instance([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], [0.5, 0.3], [0.0, 0.3])
        extragradient, armijo = self.runs(inst)
        for out in (extragradient, armijo):
            assert out.stop_reason == "tolerance"
            assert out.total_violations == 0
            assert np.linalg.norm(out.final_x - [0.0, 0.3]) < 1e-7
        assert extragradient.counters.set_projections == 3 * extragradient.iterations
        # armijo stops at x before the linesearch: one prox solve, no projection
        assert armijo.counters.set_projections == 3 * armijo.iterations - 2


class TestThreeMethodAgreement:
    def test_scalar_limits_agree(self):
        inst = scalar_1d_instance()
        ref = inst.reference_point()
        a = run_single(inst, HybridParams(lam=0.3, k=4.0), known_point=ref)
        b = run_hybrid_extragradient(inst, lam=0.3, known_point=ref)
        c = run_armijo_hybrid(inst, ArmijoParams(eta=0.5, lam=0.3), known_point=ref)
        for out in (a, b, c):
            assert np.linalg.norm(out.final_x - ref) < 1e-4
        assert np.linalg.norm(a.final_x - b.final_x) < 1e-4
        assert np.linalg.norm(a.final_x - c.final_x) < 1e-4


class TestBaselineChecks:
    def test_wrong_known_point_fires_checks(self):
        # the solution of vi_scalar_1d is 0, so cuts built towards it exclude
        # 0.5 and the iterates get closer to 0 than to 0.5
        from csepsolve.harness import load_problem

        inst = load_problem(str(PROBLEM_DIR / "vi_scalar_1d.json"))
        runs = (
            run_hybrid_extragradient(inst, lam=0.3, known_point=[0.5], max_outer=300),
            run_armijo_hybrid(inst, ArmijoParams(0.5, 0.3), known_point=[0.5],
                              max_outer=300),
        )
        for out in runs:
            assert out.invariant_violations["cut_containment"] > 0
            assert out.invariant_violations["solution_distance_bound"] > 0


class TestFaceRows:
    """The baselines project x0 onto their two cuts first, and keep that
    closed form when it lies in C; otherwise the projection is the one of
    the list of C's faces followed by the cuts."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_projection_equals_that_of_the_faces_and_cuts_listed(self, d, rng):
        from csepsolve.geometry import (
            INTERSECTION_TOL,
            CutStack,
            HalfspaceCut,
            Polyhedron,
            project_halfspace_intersection,
        )
        from csepsolve.outcome import RunCounters

        box = Box(-np.ones(d), np.ones(d))
        slab = Polyhedron([HalfspaceCut(np.ones(d), 0.5), HalfspaceCut(np.zeros(d), 0.0),
                           HalfspaceCut(-np.ones(d), 2.0)])
        for set_ in (box, slab, WholeSpace(d)):
            faces = set_.as_halfspaces()
            counters = RunCounters()
            branches = set()
            for i in range(30):
                x0 = rng.uniform(-1.5, 1.5, d)  # in C or not
                x0_sq, tol = float(x0 @ x0), 1e-12 * (1.0 + np.linalg.norm(x0))
                # both cuts hold at 0, a point of each set
                c = HalfspaceCut(rng.standard_normal(d), float(rng.uniform(0.0, 0.5)))
                q = HalfspaceCut(np.zeros(d) if i % 7 == 0 else rng.standard_normal(d), 0.1)
                cuts = CutStack.of([c, q])
                z = baselines._project_onto_set_and_cuts(set_, faces, counters, cuts, x0, x0_sq)
                listed = project_halfspace_intersection([*faces, c, q], x0)
                closed = project_halfspace_intersection(cuts, x0, x0_sq)
                if set_.contains(closed, INTERSECTION_TOL * (1.0 + np.sqrt(x0_sq))):
                    branches.add("cuts")
                    assert z.tobytes() == closed.tobytes()
                    assert np.linalg.norm(z - listed) <= tol
                else:
                    branches.add("faces")
                    assert z.tobytes() == listed.tobytes()
            assert counters.set_projections == 30
            assert branches == ({"cuts", "faces"} if faces else {"cuts"})


def test_anchor_projection_lies_in_the_set_and_the_cuts_and_is_the_projection():
    # boxes, polyhedra, R^d and balls, with two cuts that hold at a point
    # of C; the reference is the listed projection, Dykstra for the ball
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    from csepsolve.geometry import (
        Ball,
        CutStack,
        HalfspaceCut,
        Polyhedron,
        dykstra,
        project_halfspace,
        project_halfspace_intersection,
    )
    from csepsolve.outcome import RunCounters

    def instance(seed, d, kind):
        rng = np.random.default_rng(seed)
        center = rng.standard_normal(d)
        if kind == "box":
            half = rng.uniform(0.1, 2.0, d)
            set_ = Box(center - half, center + half)
        elif kind == "polyhedron":
            normals = rng.standard_normal((d + 3, d))
            slack = np.where(rng.random(d + 3) < 0.3, 0.0, rng.exponential(1.0, d + 3))
            set_ = Polyhedron([HalfspaceCut(a, float(a @ center + s))
                               for a, s in zip(normals, slack)])
        elif kind == "ball":
            set_ = Ball(center, float(rng.uniform(0.1, 2.0)))
        else:
            set_ = WholeSpace(d)
        # the cuts hold at p, halfway between the centre and a point of C:
        # inside a ball, so that Dykstra's cycles cannot stall at one point
        p, x0 = set_.project(rng.standard_normal((2, d)) + center)
        p = 0.5 * (p + center)
        cuts = []
        for _ in range(2):
            a = np.zeros(d) if rng.random() < 0.15 else rng.standard_normal(d)
            slack = rng.exponential(0.3) if rng.random() < 0.7 else 0.0
            cuts.append(HalfspaceCut(a, float(a @ p + slack)))
        return set_, x0, cuts

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6),
           st.sampled_from(["box", "polyhedron", "whole", "ball"]))
    # two balls on which Dykstra stopped before its corrections did: 2.8e-3
    # and 2.9e-9 from the projection
    @example(2140269106, 2, "ball")
    @example(480, 4, "ball")
    @settings(max_examples=200, deadline=None)
    def check(seed, d, kind):
        set_, x0, (c, q) = instance(seed, d, kind)
        faces = set_.as_halfspaces()
        counters = RunCounters()
        x0_sq = float(x0 @ x0)
        z = baselines._project_onto_set_and_cuts(set_, faces, counters, CutStack.of([c, q]),
                                                 x0, x0_sq)
        tol = 1e-9 * (1.0 + np.sqrt(x0_sq))
        for cut in (c, q):
            assert cut.violation(z) <= tol * np.sqrt(cut.norm_sq)
        assert set_.contains(z, tol)
        if faces is None:
            live = [cut for cut in (c, q) if not cut.is_whole_space]
            listed = dykstra([set_.project] + [lambda v, cut=cut: project_halfspace(cut, v)
                                               for cut in live], x0)
        else:
            listed = project_halfspace_intersection([*faces, c, q], x0)
        assert np.linalg.norm(z - listed) <= tol
        # one per call, or one per Dykstra cycle
        assert counters.set_projections == 1 or faces is None

    check()
