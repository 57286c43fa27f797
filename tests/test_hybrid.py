import numpy as np
import pytest

from csepsolve import (
    STOP_ERROR,
    AffineOperator,
    AffineQuadraticBifunction,
    BlackBoxBifunction,
    Box,
    CallableOperator,
    CsepInstance,
    DegenerateCut,
    HybridParams,
    InnerNonconvergence,
    LipschitzData,
    ParameterViolation,
    ProxSystem,
    RunSpec,
    SingletonSolution,
    ViInducedBifunction,
    build_c_cut,
    build_q_cut,
    cyclic_index,
    derive_default_params,
    epsilon,
    hybrid,
    run_maxsel_hybrid,
    run_parallel_hybrid,
    run_sequential,
    run_single,
    solve_prox,
    validate_params,
)
from csepsolve.hybrid import Step, _shared_anchor_step, drive
from csepsolve.prox import ProxRecord
from csepsolve.outcome import RunCounters

from conftest import csep2_instance, csep3_plane_instance, halfline_instance, scalar_1d_instance
from oracles import iterates, q_of, record_projections


def vi(M, L=None):
    M = np.asarray(M, dtype=float)
    return ViInducedBifunction(AffineOperator(M, np.zeros(M.shape[0]), L))


class TestParams:
    def test_strict_bounds(self):
        validate_params(HybridParams(lam=0.2, k=6.0), 1.0, 1.0)
        with pytest.raises(ParameterViolation):
            validate_params(HybridParams(lam=0.25, k=6.0), 1.0, 1.0)
        with pytest.raises(ParameterViolation):
            validate_params(HybridParams(lam=0.2, k=5.0), 1.0, 1.0)

    def test_relaxed_bounds(self):
        validate_params(HybridParams(lam=0.4, k=6.0, rule="relaxed"), 1.0, 1.0)
        with pytest.raises(ParameterViolation):
            validate_params(HybridParams(lam=0.5, k=6.0, rule="relaxed"), 1.0, 1.0)

    def test_lam_at_inverse_sum_rejected_under_strict(self):
        c1 = c2 = 0.5
        with pytest.raises(ParameterViolation):
            validate_params(HybridParams(lam=1.0 / (c1 + c2), k=10.0), c1, c2)

    @pytest.mark.parametrize("k", [float("inf"), float("nan")])
    @pytest.mark.parametrize("rule", ["strict", "relaxed"])
    def test_a_k_that_is_not_finite_is_rejected(self, k, rule):
        with pytest.raises(ParameterViolation, match="must be finite"):
            validate_params(HybridParams(lam=0.2, k=k, rule=rule), 1.0, 1.0)

    def test_unknown_rule(self):
        with pytest.raises(ParameterViolation):
            HybridParams(lam=0.1, k=3.0, rule="loose")


class TestEpsilon:
    def test_direct_arithmetic(self):
        params = HybridParams(lam=0.2, k=6.0)
        lip = LipschitzData(1.0, 1.0)
        value = epsilon(params, lip, 1.0, 1.0, 1.0)
        expected = 6.0 + 0.4 - (1.0 - 1.0 / 6.0 - 0.4)
        assert abs(value - expected) < 1e-15
        assert abs(value - 5.966666666666667) < 1e-12

    def test_stationary_is_zero(self):
        params = HybridParams(lam=0.2, k=6.0)
        assert epsilon(params, LipschitzData(1.0, 1.0), 0.0, 0.0, 0.0) == 0.0

    def test_operator_coefficients(self):
        # with c1 = c2 = L/2 the coefficients collapse to lam*L and
        # 1 - 1/k - lam*L
        params = HybridParams(lam=0.5, k=3.0, rule="relaxed")
        lip = LipschitzData(0.5, 0.5)
        value = epsilon(params, lip, 0.0, 1.0, 1.0)
        assert abs(value - (0.5 - 1.0 / 6.0)) < 1e-15
        assert abs(value - 1.0 / 3.0) < 1e-15

    def test_negative_not_clamped(self):
        params = HybridParams(lam=0.1, k=6.0)
        value = epsilon(params, LipschitzData(0.5, 0.5), 0.0, 0.0, 1.0)
        assert value < 0.0


class TestCuts:
    def test_c_cut_expansion(self):
        c = build_c_cut(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0)
        assert np.allclose(c.normal, [2.0, 0.0])
        assert abs(c.offset - 1.0) < 1e-15

    def test_c_cut_degenerates_to_whole_space(self):
        x = np.array([0.3, -0.2])
        c = build_c_cut(x, x.copy(), 0.5)
        assert c.is_whole_space

    def test_c_cut_midpoint_on_boundary(self):
        c = build_c_cut(np.array([0.0]), np.array([1.0]), 0.0)
        assert np.allclose(c.normal, [-2.0])
        assert abs(c.offset - (-1.0)) < 1e-15
        assert abs(c.violation(np.array([0.5]))) < 1e-15

    def test_c_cut_contradiction_raises(self):
        x = np.array([0.5])
        with pytest.raises(DegenerateCut, match="offset -1 denotes the empty set"):
            build_c_cut(x, x.copy(), -1.0)

    def test_q_cut_substitution(self):
        q = build_q_cut(*q_of(np.array([1.0, 0.0]), np.zeros(2)), np.zeros(2))
        assert np.allclose(q.normal, [1.0, 0.0])
        assert q.offset == 0.0

    def test_q_cut_whole_space_at_anchor(self):
        x0 = np.array([0.4, 0.4])
        assert build_q_cut(*q_of(x0, x0.copy()), x0.copy()).is_whole_space

    def test_q_cut_anchor_iterate_on_boundary(self):
        x0 = np.array([0.0, 0.0])
        x_n = np.array([1.0, 1.0])
        q = build_q_cut(*q_of(x0, x_n), x_n)
        assert np.allclose(q.normal, [-1.0, -1.0])
        assert abs(q.offset - (-2.0)) < 1e-15
        assert abs(q.violation(x_n)) < 1e-15


class TestCyclicIndex:
    def test_mod_sequence(self):
        # 1-based statement: [1]=2, [2]=3, [3]=1, [4]=2 for three subproblems
        assert [cyclic_index(n, 3) + 1 for n in (1, 2, 3, 4)] == [2, 3, 1, 2]

    def test_single_problem_constant(self):
        assert all(cyclic_index(n, 1) == 0 for n in range(1, 10))


class TestRunners:
    def test_parallel_single_strongly_monotone(self):
        op = AffineOperator(np.eye(2), np.zeros(2), lipschitz_L=1.0)
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]),
                            [ViInducedBifunction(op)], [0.5, 0.5],
                            SingletonSolution([0.0, 0.0]))
        out = run_parallel_hybrid(inst, HybridParams(lam=0.4, k=6.0),
                                  known_point=inst.reference_point())
        assert out.stop_reason == "tolerance"
        assert np.linalg.norm(out.final_x) < 1e-6
        assert out.total_violations == 0

    def test_parallel_two_problems_common_zero(self):
        inst = csep2_instance()
        out = run_parallel_hybrid(inst, HybridParams(lam=0.2, k=6.0, max_outer=4000),
                                  known_point=inst.reference_point())
        assert out.error is None
        assert np.linalg.norm(out.final_x) < 2e-3
        assert out.total_violations == 0

    def test_parameter_gate_before_iterating(self):
        inst = scalar_1d_instance()
        with pytest.raises(ParameterViolation):
            run_parallel_hybrid(inst, HybridParams(lam=1.0, k=6.0))

    def test_maxsel_single_equals_run_single(self, monkeypatch):
        inst = halfline_instance()
        params = HybridParams(lam=0.4, k=6.0, tol=0.0, max_outer=100)
        calls = record_projections(monkeypatch, hybrid)
        a = run_maxsel_hybrid(inst, params)
        xs_a = iterates(calls)
        calls.clear()
        b = run_single(inst, params)
        assert a.iterations == b.iterations == len(xs_a) == len(calls) == 100
        for xa, xb in zip(xs_a, iterates(calls)):
            assert np.linalg.norm(xa - xb) <= 1e-12

    def test_maxsel_tie_break_lowest_index(self):
        f = vi(np.eye(2), L=1.0)
        g = vi(np.eye(2), L=1.0)
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]), [f, g],
                            [0.5, 0.5], SingletonSolution([0.0, 0.0]))
        out = run_maxsel_hybrid(inst, HybridParams(lam=0.2, k=6.0, max_outer=50))
        assert all(r.selected_index == 0 for r in out.trace)

    def test_maxsel_three_problems(self):
        inst = csep3_plane_instance()
        out = run_maxsel_hybrid(inst, HybridParams(lam=0.2, k=6.0),
                                known_point=inst.reference_point())
        assert out.stop_reason == "tolerance"
        assert np.linalg.norm(out.final_x - np.array([0.0, -0.7, 0.6])) < 1e-6
        assert out.total_violations == 0

    def test_single_halfline_limit_keeps_free_coordinate(self):
        inst = halfline_instance()
        out = run_single(inst, HybridParams(lam=0.4, k=6.0),
                         known_point=inst.reference_point())
        assert out.stop_reason == "tolerance"
        assert np.linalg.norm(out.final_x - np.array([0.0, 0.3])) < 1e-6

    def test_single_starts_at_solution(self):
        op = AffineOperator([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], lipschitz_L=1.0)
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]),
                            [ViInducedBifunction(op)], [0.0, 0.2])
        out = run_single(inst, HybridParams(lam=0.4, k=6.0))
        assert out.stop_reason == "tolerance"
        assert out.iterations <= 3
        assert np.allclose(out.final_x, [0.0, 0.2], atol=1e-10)

    def test_single_scalar(self):
        inst = scalar_1d_instance()
        out = run_single(inst, HybridParams(lam=0.3, k=4.0),
                         known_point=inst.reference_point())
        assert out.stop_reason == "tolerance"
        assert abs(out.final_x[0]) < 1e-6

    def test_single_requires_one_problem(self):
        with pytest.raises(ParameterViolation):
            run_single(csep2_instance(), HybridParams(lam=0.2, k=6.0))

    def test_sequential_single_equals_run_single(self, monkeypatch):
        inst = scalar_1d_instance()
        params = HybridParams(lam=0.3, k=4.0, tol=0.0, max_outer=100)
        calls = record_projections(monkeypatch, hybrid)
        run_sequential(inst, params)
        xs_a = iterates(calls)
        calls.clear()
        run_single(inst, params)
        for xa, xb in zip(xs_a, iterates(calls)):
            assert np.linalg.norm(xa - xb) <= 1e-12

    def test_sequential_matches_parallel_limit(self):
        inst = csep3_plane_instance()
        ref = inst.reference_point()
        par = run_parallel_hybrid(inst, HybridParams(lam=0.2, k=6.0), known_point=ref)
        seq = run_sequential(inst, HybridParams(lam=0.2, k=6.0), known_point=ref)
        assert par.stop_reason == seq.stop_reason == "tolerance"
        assert np.linalg.norm(par.final_x - seq.final_x) < 1e-4

    def test_sequential_two_problem_agreement(self):
        ops = [vi(np.diag([1.0, 0.0]), L=1.0), vi(np.diag([2.0, 0.0]), L=2.0)]
        inst = CsepInstance(2, Box([-1.0, -1.0], [1.0, 1.0]), ops, [0.8, -0.4])
        par = run_parallel_hybrid(inst, HybridParams(lam=0.2, k=6.0))
        seq = run_sequential(inst, HybridParams(lam=0.2, k=6.0))
        assert par.stop_reason == seq.stop_reason == "tolerance"
        assert np.linalg.norm(par.final_x - seq.final_x) < 1e-4

    def test_sequential_cycles_indices(self):
        inst = csep3_plane_instance()
        out = run_sequential(inst, HybridParams(lam=0.2, k=6.0, max_outer=7, tol=0.0))
        assert [r.selected_index for r in out.trace] == [1, 2, 0, 1, 2, 0, 1]

    def test_trace_length_matches_iterations(self):
        inst = scalar_1d_instance()
        out = run_single(inst, HybridParams(lam=0.3, k=4.0, max_outer=5, tol=0.0))
        assert out.iterations == len(out.trace) == 5
        assert out.stop_reason == "max_outer"

    def test_workers_other_than_one_rejected(self):
        with pytest.raises(ParameterViolation):
            RunSpec(problem_path="x.json", algorithm="parallel", workers=2)
        with pytest.raises(ParameterViolation):
            run_parallel_hybrid(csep3_plane_instance(), HybridParams(lam=0.2, k=6.0),
                                workers=2)

    def test_unconverged_inner_solves_counted(self, monkeypatch):
        real = ProxSystem.solve_row

        def unconverged(self, i, *args):
            Y, record = real(self, i, *args)
            return Y, record._replace(nonconverged=((i, None),))

        # run_sequential, because it solves one subproblem per iteration
        # through ProxSystem.solve_row; maxsel and parallel call solve
        monkeypatch.setattr(ProxSystem, "solve_row", unconverged)
        out = run_sequential(csep2_instance(),
                             HybridParams(lam=0.2, k=6.0, max_outer=10, tol=0.0))
        assert out.counters.prox_solves == 10
        assert out.counters.prox_nonconverged == 10
        # iteration 1 of the cyclic variant works on subproblem 1 of 0, 1
        assert out.first_nonconverged == InnerNonconvergence(1, 1, None)

    def test_first_unconverged_stacked_solve_reported(self, monkeypatch):
        import csepsolve.prox as prox_module
        from csepsolve import AffineQuadraticBifunction
        from csepsolve.harness import summarize

        rng = np.random.default_rng(3)
        d = 4
        C = rng.standard_normal((d, d))
        dense_q = C @ C.T
        # both Q are dense, so the two subproblems are solved in one stacked
        # projected-gradient loop; the nearly zero Q_0 starts at its interior
        # minimizer and converges at once, while q_1 puts the minimizer of
        # row 1 on the face y_0 = -1, where it stops at the cap
        fs = [AffineQuadraticBifunction(np.diag([1.0, 2.0, 1.5, 1.0]),
                                        np.full((d, d), 1e-12), np.zeros(d)),
              AffineQuadraticBifunction(dense_q + np.eye(d), dense_q,
                                        np.array([100.0, 0.0, 0.0, 0.0]))]
        inst = CsepInstance(d, Box(-np.ones(d), np.ones(d)), fs, np.full(d, 0.5),
                            SingletonSolution(np.zeros(d)))
        params = HybridParams(lam=0.05, k=6.0, max_outer=4, tol=0.0)
        monkeypatch.setattr(prox_module, "MAX_INNER", 3)
        out = run_maxsel_hybrid(inst, params)
        y_init = inst.set.project(inst.x0)
        _, one_row = solve_prox(fs[1], y_init, inst.x0, params.lam, inst.set)
        assert one_row.nonconverged
        assert out.first_nonconverged == InnerNonconvergence(1, 1, one_row.nonconverged[0][1])
        assert out.counters.prox_nonconverged == 4
        assert out.stop_reason == "max_outer"
        summary = summarize(RunSpec(problem_path="x.json", algorithm="maxsel"), out, 0.0)
        assert summary["first_prox_nonconverged"] == {
            "n": 1, "subproblem": 1, "diagnostic": "projected gradient hit 3 iterations",
        }

    def test_anchor_distance_monotone(self, monkeypatch):
        inst = halfline_instance()
        calls = record_projections(monkeypatch, hybrid)
        run_single(inst, HybridParams(lam=0.4, k=6.0))
        x0 = inst.x0
        dists = [np.linalg.norm(x - x0) for x in iterates(calls)]
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_empty_feasible_set_raises_at_initialization(self):
        from csepsolve import HalfspaceCut, InfeasibleSet, Polyhedron

        empty = Polyhedron([
            HalfspaceCut(np.array([1.0]), -1.0),
            HalfspaceCut(np.array([-1.0]), -2.0),
        ])
        inst = CsepInstance(1, empty, [vi(np.eye(1), L=1.0)], [0.0])
        with pytest.raises(InfeasibleSet):
            run_single(inst, HybridParams(lam=0.3, k=4.0))

    def test_runtime_breakdown_becomes_error_outcome(self):
        # cycling over bifunctions that act on orthogonal coordinates breaks
        # the shared-anchor containment argument; the run must end with an
        # error outcome and the per-iteration checks must have fired
        ops = [vi(np.diag([1.0, 0.0, 0.0]), L=1.0),
               vi(np.diag([0.0, 2.0, 0.0]), L=2.0),
               vi(np.diag([0.0, 0.0, 0.5]), L=0.5)]
        inst = CsepInstance(3, Box(-np.ones(3), np.ones(3)), ops,
                            [0.37, 0.81, -0.55], SingletonSolution(np.zeros(3)))
        out = run_sequential(inst, HybridParams(lam=0.2, k=6.0, max_outer=2000),
                             known_point=inst.reference_point())
        assert out.stop_reason == "error"
        assert out.error is not None
        assert out.invariant_violations["cut_containment"] > 0
        assert out.iterations == len(out.trace)

    def test_mixed_three_problem_system_progresses(self):
        # generic coupled operators: strong convergence holds but the tail is
        # slow, so only a modest accuracy is asserted here
        M3 = np.array([[1.0, 0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        ops = [vi(np.eye(3), L=1.0), vi(np.diag([2.0, 1.0, 0.5]), L=2.0),
               ViInducedBifunction(AffineOperator(M3, np.zeros(3), lipschitz_L=1.12))]
        inst = CsepInstance(3, Box(-np.ones(3), np.ones(3)), ops, [1.0, 1.0, 1.0],
                            SingletonSolution(np.zeros(3)))
        out = run_maxsel_hybrid(inst, HybridParams(lam=0.2, k=6.0, max_outer=8000),
                                known_point=inst.reference_point())
        assert out.error is None
        assert out.total_violations == 0
        assert np.linalg.norm(out.final_x) < 1e-2


class TestDrive:
    def test_solution_distance_check_counts_each_row(self):
        p = np.zeros(2)
        x0 = np.array([1.0, 0.0])
        near = np.array([[0.5, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 1.2]])
        eps = np.array([0.0, 0.0, 0.5, 0.3])

        # no C-cuts, so x stays at x0, where ||x - p||^2 = 1: rows 1 (4 > 1)
        # and 3 (1.44 > 1 + 0.3) break the bound, rows 0 and 2 do not
        def step(n, x, dx2):
            return Step(np.empty((0, x.size)), near, eps, 1.0, ProxRecord.of([]))

        out = drive("fixed", step, x0, 0.0, 3, RunCounters(), known_point=p)
        assert out.invariant_violations["solution_distance_bound"] == 6
        assert sum(out.invariant_violations.values()) == 6
        assert [(r.eps_min, r.eps_max) for r in out.trace] == [(0.0, 0.5)] * 3

    def test_shared_eps_bounds_every_row(self):
        x0 = np.array([1.0, 0.0])
        near = np.array([[0.5, 0.0], [2.0, 0.0], [0.0, 1.2]])

        # one eps = 0.3 for all rows: rows 1 and 2 break the bound
        def step(n, x, dx2):
            return Step(np.empty((0, x.size)), near, 0.3, 1.0, ProxRecord.of([]))

        out = drive("fixed", step, x0, 0.0, 2, RunCounters(), known_point=np.zeros(2))
        assert out.invariant_violations["solution_distance_bound"] == 4
        assert [(r.eps_min, r.eps_max) for r in out.trace] == [(0.3, 0.3)] * 2

    def test_step_without_cuts_runs_no_checks(self):
        def step(n, x, dx2):
            return Step(None, np.empty((0, x.size)), 0.0, 1.0, ProxRecord.of([]))

        out = drive("fixed", step, np.ones(2), 0.0, 2, RunCounters(), known_point=[5.0, 5.0])
        assert sum(out.invariant_violations.values()) == 0
        assert [(r.eps_min, r.eps_max) for r in out.trace] == [(0.0, 0.0)] * 2


class TestStepBookkeeping:
    def test_sequential_residual_is_the_largest_row_norm(self):
        inst = csep3_plane_instance()
        lam, k = derive_default_params(inst)
        params = HybridParams(lam=lam, k=k)
        y_init = inst.set.project(inst.x0)
        latest = [y_init] * inst.n_problems
        system = ProxSystem(inst.bifunctions, lam, inst.set)
        solve_row = system.solve_row

        def recording_solve_row(i, w, x, n):
            Y, record = solve_row(i, w, x, n)
            latest[i] = Y[0]
            return Y, record

        system.solve_row = recording_solve_row
        step = _shared_anchor_step(params, LipschitzData.largest(inst.lipschitz_all()), y_init,
                                   system, cyclic=True)

        def checked_step(n, x, dx2):
            out = step(n, x, dx2)
            assert out.residual == max(float(np.linalg.norm(y - x)) for y in latest)
            return out

        xs = [inst.x0]

        def project(cuts, x0, x0_sq):
            xs.append(hybrid.project_halfspace_intersection(cuts, x0, x0_sq))
            return xs[-1]

        out = drive("sequential", checked_step, inst.x0, 0.0, 39, RunCounters(),
                    project=project)
        assert out.iterations == 39 == len(xs) - 1
        for n, record in enumerate(out.trace):
            assert record.step_norm == float(np.linalg.norm(xs[n + 1] - xs[n]))

    @pytest.mark.parametrize("runner", [run_maxsel_hybrid, run_parallel_hybrid,
                                        run_sequential, run_single])
    def test_coordinatewise_q_too_negative_ends_in_an_error_at_iteration_1(self, runner):
        f = AffineQuadraticBifunction(np.zeros((2, 2)), np.diag([1.0, -5.0]), np.zeros(2),
                                      lipschitz=LipschitzData(0.5, 0.5))
        inst = CsepInstance(2, Box(-np.ones(2), np.ones(2)), [f], [0.5, 0.5])
        # 1 + 2 lam Q_22 = 1 - 2 < 0
        out = runner(inst, HybridParams(lam=0.2, k=6.0, max_outer=50))
        assert out.stop_reason == STOP_ERROR
        assert out.iterations == 0
        assert "not strongly convex" in out.error
        assert out.counters.prox_solves == 0

    @pytest.mark.parametrize("runner, iterations", [(run_parallel_hybrid, 0),
                                                     (run_maxsel_hybrid, 0),
                                                     (run_sequential, 1)])
    def test_q_too_negative_fails_when_its_own_row_is_first_solved(self, runner, iterations):
        bad = AffineQuadraticBifunction(np.zeros((2, 2)), np.diag([1.0, -5.0]), np.zeros(2),
                                        lipschitz=LipschitzData(0.5, 0.5))
        good = AffineQuadraticBifunction(np.eye(2), np.eye(2), np.zeros(2),
                                         lipschitz=LipschitzData(0.5, 0.5))
        inst = CsepInstance(2, Box(-np.ones(2), np.ones(2)), [bad, good], [0.5, 0.5])
        # sequential solves subproblem 1 at iteration 1 and the bad row 0 at 2
        out = runner(inst, HybridParams(lam=0.2, k=6.0, max_outer=50))
        assert out.stop_reason == STOP_ERROR
        assert out.iterations == iterations
        assert "not strongly convex" in out.error

    @pytest.mark.parametrize("runner", [run_maxsel_hybrid, run_parallel_hybrid,
                                        run_sequential, run_single])
    def test_dense_q_too_negative_ends_in_an_error_at_iteration_1(self, runner):
        f = AffineQuadraticBifunction(np.zeros((2, 2)), np.array([[1.0, 0.5], [0.5, -5.0]]),
                                      np.zeros(2), lipschitz=LipschitzData(0.5, 0.5))
        inst = CsepInstance(2, Box(-np.ones(2), np.ones(2)), [f], [0.5, 0.5])
        # I + lam (Q + Q^T) = [[1.4, 0.2], [0.2, -1]] is not positive definite
        out = runner(inst, HybridParams(lam=0.2, k=6.0, max_outer=50))
        assert out.stop_reason == STOP_ERROR
        assert out.iterations == 0
        assert "not strongly convex" in out.error
        assert out.counters.prox_solves == 0

    @pytest.mark.parametrize("runner, iterations", [(run_parallel_hybrid, 0),
                                                     (run_maxsel_hybrid, 0),
                                                     (run_sequential, 1)])
    def test_dense_q_too_negative_fails_when_its_own_row_is_first_solved(self, runner,
                                                                         iterations):
        bad = AffineQuadraticBifunction(np.zeros((2, 2)), np.array([[1.0, 0.5], [0.5, -5.0]]),
                                        np.zeros(2), lipschitz=LipschitzData(0.5, 0.5))
        good = AffineQuadraticBifunction(np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]]),
                                         np.zeros(2), lipschitz=LipschitzData(0.5, 0.5))
        inst = CsepInstance(2, Box(-np.ones(2), np.ones(2)), [bad, good], [0.5, 0.5])
        # both Q are dense, so parallel and maxsel solve one stack; sequential
        # solves subproblem 1 at iteration 1 and the bad row 0 at 2
        out = runner(inst, HybridParams(lam=0.2, k=6.0, max_outer=50))
        assert out.stop_reason == STOP_ERROR
        assert out.iterations == iterations
        assert "not strongly convex" in out.error


class TestOneRowSystems:
    """Every hybrid variant on N = 1 with a callable operator or a black-box
    bifunction, whose kernels solve one row outside the stacked families."""

    M = np.array([[1.0, 0.5], [-0.5, 1.0]])

    def instance(self, f):
        return CsepInstance(2, Box(-np.ones(2), np.ones(2)), [f], [0.8, -0.6],
                            SingletonSolution(np.zeros(2)))

    @pytest.mark.parametrize("runner", [run_parallel_hybrid, run_maxsel_hybrid,
                                        run_sequential, run_single])
    @pytest.mark.parametrize("kind", ["callable", "blackbox"])
    def test_matches_the_affine_operator(self, runner, kind):
        affine = vi(self.M, L=1.2)
        if kind == "callable":
            f = ViInducedBifunction(CallableOperator(lambda y: self.M @ y, 1.2, 2))
        else:
            f = BlackBoxBifunction(affine.value, affine.subgrad2, LipschitzData(0.6, 0.6))
        params = HybridParams(lam=0.2, k=6.0, max_outer=200, tol=0.0)
        out = runner(self.instance(f), params, known_point=np.zeros(2), certify_probes=2)
        ref = runner(self.instance(affine), params, known_point=np.zeros(2))
        assert out.error is None
        assert out.iterations == 200
        assert out.total_violations == 0
        assert out.counters.prox_solves == out.iterations
        assert out.min_prox_certificate >= -1e-7
        assert np.linalg.norm(out.final_x - ref.final_x) < 1e-6
