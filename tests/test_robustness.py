"""Property checks beyond the bundled problem files: seeded random monotone
affine systems with a planted solution, and coordinate rescaling."""

import numpy as np
import pytest

from csepsolve import (
    STOP_ERROR,
    AffineOperator,
    Box,
    CsepInstance,
    HybridParams,
    SingletonSolution,
    MaxInnerIterationsExceeded,
    ViInducedBifunction,
    derive_default_params,
    geometry,
    load_problem,
    run_maxsel_hybrid,
    run_parallel_hybrid,
    run_sequential,
    run_single,
)

from csepsolve.cli import main

from conftest import PROBLEM_DIR, csep3_plane_instance

RUNNERS = {
    "parallel": run_parallel_hybrid,
    "maxsel": run_maxsel_hybrid,
    "sequential": run_sequential,
}


def planted_affine_system(seed, d, n_problems):
    """N monotone affine VIs A_i(x) = M_i x + q_i on [-1, 1]^d sharing the
    interior solution x*, with M_i = B B^T + 0.1 I + (K - K^T)/2.  The 0.1 I
    term makes each operator strongly monotone, so x* is the only common
    solution; q_i = -M_i x* plants it."""
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(-0.5, 0.5, d)
    x0 = rng.uniform(-1.0, 1.0, d)
    bifunctions = []
    for _ in range(n_problems):
        B = rng.standard_normal((d, max(1, d // 2))) / np.sqrt(d)
        K = rng.standard_normal((d, d)) / np.sqrt(d)
        M = B @ B.T + 0.1 * np.eye(d) + 0.5 * (K - K.T)
        bifunctions.append(ViInducedBifunction(AffineOperator(M, -M @ x_star)))
    return CsepInstance(d, Box(-np.ones(d), np.ones(d)), bifunctions, x0,
                        SingletonSolution(x_star))


@pytest.mark.parametrize("seed,d,n_problems",
                         [(0, 1, 1), (1, 2, 2), (2, 5, 3), (3, 10, 4), (4, 20, 4), (5, 20, 2)])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_random_monotone_affine_systems_keep_invariants(seed, d, n_problems, algorithm):
    instance = planted_affine_system(seed, d, n_problems)
    lam, k = derive_default_params(instance)
    out = RUNNERS[algorithm](instance, HybridParams(lam=lam, k=k, tol=0.0, max_outer=300),
                             known_point=instance.reference_point())
    assert out.error is None
    assert out.iterations == 300
    assert out.invariant_violations == dict.fromkeys(out.invariant_violations, 0)
    assert out.counters.prox_nonconverged == 0


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_rescaled_halfline_problem(scale):
    base = load_problem(str(PROBLEM_DIR / "vi_halfline_2d.json"))
    lower, upper = scale * base.set.lower, scale * base.set.upper
    instance = CsepInstance(
        2, Box(lower, upper), base.bifunctions, scale * base.x0,
        Box(np.r_[0.0, lower[1:]], np.r_[0.0, upper[1:]]),  # coordinate 0 pinned to 0
    )
    lam, k = derive_default_params(instance)
    out = run_single(instance, HybridParams(lam=lam, k=k, tol=1e-8 * scale),
                     known_point=instance.reference_point())
    assert out.stop_reason == "tolerance"
    assert out.total_violations == 0
    assert out.final_dist_to_known() / scale <= 1e-7


def test_a_stalled_anchor_projector_ends_the_run_with_its_error(monkeypatch, capsys):
    # a negative slack lets no point pass the dual active set's certificate,
    # so it stops when the most violated cut is one it has already added
    monkeypatch.setattr(geometry, "INTERSECTION_TOL", -1e-3)
    A, b = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 0.5])
    with pytest.raises(MaxInnerIterationsExceeded, match="did not certify") as info:
        geometry._dual_active_set(A, b, np.array([1.0, 2.0]))
    scale = np.linalg.norm(A, axis=1)
    best, violations = info.value.best, info.value.violations
    assert best.shape == (2,) and violations.shape == (3,)
    assert np.allclose(violations, A @ best / scale - b / scale, rtol=0.0, atol=1e-15)

    # iteration 1 projects onto its three C-cuts (Q_1 is the whole space)
    out = run_parallel_hybrid(csep3_plane_instance(), HybridParams(lam=0.2, k=6.0))
    assert (out.stop_reason, out.iterations) == (STOP_ERROR, 0)
    assert out.error.startswith("dual active-set projection onto 3 halfspaces did not "
                                "certify a point")
    code = main(["solve", str(PROBLEM_DIR / "csep3_plane_3d.json"), "--algorithm",
                 "parallel"])
    assert code == 3
    assert "error: dual active-set projection onto" in capsys.readouterr().err
