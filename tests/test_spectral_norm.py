"""``spectral_norm_estimate`` is the 2-norm, exact to rounding: on random
matrices, on the benchmark generator's matrices, at extreme scales, and in
the constants derived from it."""

import importlib.util

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csepsolve import (  # noqa: E402
    AffineOperator,
    Box,
    CsepInstance,
    ViInducedBifunction,
    spectral_norm_estimate,
    validate,
)

from conftest import REPO_ROOT  # noqa: E402

EPS = np.finfo(float).eps

matrices = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "rows": st.integers(1, 12),
    "cols": st.integers(1, 12),
    "kind": st.sampled_from(["random", "rank_deficient", "zero", "symmetric"]),
    "log_scale": st.floats(-6.0, 6.0),
})


def random_matrix(rng, rows, cols, kind, log_scale):
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "rank_deficient":
        rank = int(rng.integers(1, max(1, min(rows, cols) - 1) + 1))
        M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    elif kind == "symmetric":
        S = rng.standard_normal((cols, cols))
        M = S + S.T
    else:
        M = rng.standard_normal((rows, cols))
    return M * 10.0 ** log_scale


def generator_matrix(seed, d, n, row):
    """Operator matrix ``row`` of ``bench/gen.py``'s vi_system(seed, d, n)."""
    spec = importlib.util.spec_from_file_location("bench_gen", REPO_ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return np.array(gen.vi_system(seed, d, n)["bifunctions"][row]["M"])


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_norm_lies_between_every_ratio_and_the_frobenius_norm(params):
    rng = np.random.default_rng(params["seed"])
    M = random_matrix(rng, params["rows"], params["cols"], params["kind"],
                      params["log_scale"])
    sigma = spectral_norm_estimate(M)
    slack = 8 * EPS * max(M.shape)
    for v in rng.standard_normal((8, M.shape[1])):
        assert sigma >= np.linalg.norm(M @ v) / np.linalg.norm(v) * (1.0 - slack)
    assert sigma <= np.linalg.norm(M, "fro") * (1.0 + slack)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.9, 1.0))
def test_norm_is_exact_on_a_known_singular_value_decomposition(seed, d, gap):
    # Singular values down from 1 with the top two at ratio ``gap``: close
    # ratios are where an iterative estimate stops short.
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.concatenate([[1.0, gap], rng.uniform(0.0, gap, d)])[:d]
    sigma = spectral_norm_estimate(U @ np.diag(s) @ V.T)
    assert abs(sigma - 1.0) <= 8 * EPS * d


def test_zero_and_rank_one_matrices():
    assert spectral_norm_estimate(np.zeros((3, 2))) == 0.0
    u, v = np.array([1.0, 2.0, 2.0]), np.array([0.0, 3.0, 4.0])
    assert spectral_norm_estimate(np.outer(u, v)) == pytest.approx(15.0, rel=1e-14)


@pytest.mark.parametrize("seed, d, n, row", [((12, 0), 100, 16, 12), ((1, 0), 20, 8, 6)])
def test_benchmark_generator_matrices_match_the_svd(seed, d, n, row):
    # The power iteration stopped 3.1e-4 and 1.2e-5 short on these two.
    M = generator_matrix(seed, d, n, row)
    exact = np.linalg.svd(M, compute_uv=False)[0]
    assert spectral_norm_estimate(M) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_huge_entries_give_the_norm_and_nan_entries_raise():
    M = 1e200 * np.eye(3)
    assert spectral_norm_estimate(M) == 1e200
    assert AffineOperator(M, np.zeros(3)).lipschitz_L == 1e200
    with pytest.raises(ValueError):
        AffineOperator(np.full((2, 2), np.nan), np.zeros(2))
    with pytest.raises(ValueError):
        AffineOperator(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_validate_warns_for_a_declared_constant_just_below_the_norm():
    M = generator_matrix((12, 0), 100, 16, 12)
    exact = float(np.linalg.svd(M, compute_uv=False)[0])

    def warnings(L):
        op = AffineOperator(M, np.zeros(100), L)
        instance = CsepInstance(100, Box(-np.ones(100), np.ones(100)),
                                [ViInducedBifunction(op)], np.zeros(100))
        return validate(instance, 2).bifunctions[0].warnings

    # both numbers in full, so that a constant just below the norm reads so
    assert warnings(exact - 1e-6) == [f"declared operator constant {exact - 1e-6!r} "
                                      f"is below the spectral norm {exact!r}"]
    assert len(warnings(exact - 1e-5)) == 1
    assert warnings(exact) == []
