"""Property test of the reference oracle on planted affine VI systems.

Each system has N <= 4 monotone affine operators on a box in d <= 3, all
solved by a planted x*: some coordinates of x* sit on a bound, where q
leaves A_i(x*)_j a one-sided slack of the admissible sign, some on a
coordinate the box pins (l_j = u_j), where A_i(x*)_j takes any sign, and
A_i(x*)_j = 0 on the others.  The M_i are integer, rank deficient and skew as drawn, so
the common solution set is often larger than {x*}.  The oracle's point must
solve every VI to 1e-9 in the closed-form residual, lie in the box, and be
no farther from x0 than x*.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csepsolve import AffineOperator, Box, CsepInstance, ViInducedBifunction  # noqa: E402
from csepsolve.harness import reference_solution  # noqa: E402

from oracles import vi_residual  # noqa: E402


def planted_system(seed, d, n_ops, slack, pinned):
    """(M list, q list, lower, upper, x0, x*) of a seeded planted system."""
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.5, 2.0, d)
    pin = rng.random(d) < pinned
    upper = np.where(pin, lower, rng.uniform(0.5, 2.0, d))
    side = rng.integers(0, 3, d)  # 0: x*_j = l_j, 1: x*_j = u_j, 2: interior
    x_star = np.where(side == 0, lower, np.where(side == 1, upper,
                                                 rng.uniform(lower, upper)))
    Ms, qs = [], []
    for _ in range(n_ops):
        B = rng.integers(-2, 3, (d, int(rng.integers(0, d + 1))))
        K = rng.integers(-2, 3, (d, d))
        M = (B @ B.T + K - K.T).astype(float)
        s = rng.uniform(0.0, 1.0, d) * (rng.random(d) < slack)
        g = np.where(pin, rng.standard_normal(d),
                     np.where(side == 0, s, np.where(side == 1, -s, 0.0)))
        Ms.append(M)
        qs.append(g - M @ x_star)
    x0 = rng.uniform(lower - 0.5, upper + 0.5)
    return Ms, qs, lower, upper, x0, x_star


# A(x) = (x2 - 0.5, -x1 + x2 + 0.5) on [-1, 1]^2 with x0 = 0 has the unique
# solution (1, 0.5), on the face x1 = u1; a grid scan with pattern-search
# refinement near x0 finds no solution here.
CORNER = ([np.array([[0.0, 1.0], [-1.0, 1.0]])], [np.array([-0.5, 0.5])],
          np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.zeros(2), np.array([1.0, 0.5]))

systems = st.builds(planted_system, st.integers(0, 2**32 - 1), st.integers(1, 3),
                    st.integers(1, 4), st.sampled_from([0.0, 0.5, 1.0]),
                    st.sampled_from([0.0, 0.3]))


@settings(max_examples=150, deadline=None)
@given(systems)
@example(CORNER)
def test_the_oracle_returns_a_nearest_common_solution(system):
    Ms, qs, lower, upper, x0, x_star = system
    instance = CsepInstance(lower.size, Box(lower, upper),
                            [ViInducedBifunction(AffineOperator(M, q)) for M, q in zip(Ms, qs)],
                            x0)
    x = reference_solution(instance)
    for M, q in zip(Ms, qs):
        assert vi_residual(M, q, lower, upper, x) <= 1e-9
    assert instance.set.contains(x, tol=1e-12)
    assert np.linalg.norm(x - x0) <= np.linalg.norm(x_star - x0) + 1e-12
