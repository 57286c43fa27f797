"""The power iteration carries M^T M v from one step to the next and stays
bit for bit the loop that formed it twice per step (``oracles``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csepsolve import spectral_norm_estimate  # noqa: E402

from oracles import spectral_norm_reference  # noqa: E402

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


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_estimate_equals_the_two_product_loop(params):
    rng = np.random.default_rng(params["seed"])
    M = random_matrix(rng, params["rows"], params["cols"], params["kind"],
                      params["log_scale"])
    assert repr(spectral_norm_estimate(M)) == repr(spectral_norm_reference(M))


def test_zero_and_rank_one_matrices():
    assert spectral_norm_estimate(np.zeros((3, 2))) == 0.0
    u, v = np.array([1.0, 2.0, 2.0]), np.array([0.0, 3.0, 4.0])
    assert spectral_norm_estimate(np.outer(u, v)) == pytest.approx(15.0, rel=1e-12)
