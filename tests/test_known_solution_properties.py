"""Property tests of the known solution sets as boxes.

An ``affine_segment_box`` known solution loads as the box whose fixed
coordinates have lower = upper = value, and a ``singleton`` as the box
whose bounds are both its point.  For random x0, the pinned box must
project bit for bit as clipping to the bounds and then writing each fixed
value does, and the one-point box must return the bytes of its point.
Dimensions up to 257 run numpy's vector loops, and ±0.0 is drawn in the
bounds, the fixed values, the point and x0.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csepsolve import Box, SingletonSolution  # noqa: E402

draws = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(1, 257),
})


def with_signed_zeros(rng, v, share=0.2):
    """``v`` with about ``share`` of its entries replaced by 0.0 or -0.0."""
    v = v.copy()
    at = rng.random(v.size) < share
    v[at] = rng.choice([0.0, -0.0], at.sum())
    return v


@given(draws)
@example({"seed": 0, "d": 257})
def test_the_pinned_box_projects_as_clip_then_pin(draw):
    rng = np.random.default_rng(draw["seed"])
    d = draw["d"]
    lower = with_signed_zeros(rng, -rng.uniform(0.0, 2.0, d))
    upper = with_signed_zeros(rng, rng.uniform(0.0, 2.0, d))
    js = np.flatnonzero(rng.random(d) < 0.5)
    values = lower[js] + rng.random(js.size) * (upper[js] - lower[js])
    values = with_signed_zeros(rng, values)
    x = with_signed_zeros(rng, 2.0 * rng.standard_normal(d))
    on_bound = rng.random(d) < 0.2
    x[on_bound] = np.where(rng.random(d) < 0.5, lower, upper)[on_bound]

    clip_then_pin = Box(lower, upper).project(x)
    for j, v in zip(js, values):
        clip_then_pin[j] = v
    pinned_lower, pinned_upper = lower.copy(), upper.copy()
    pinned_lower[js] = pinned_upper[js] = values
    assert Box(pinned_lower, pinned_upper).project(x).tobytes() == clip_then_pin.tobytes()


@given(draws)
@example({"seed": 0, "d": 257})
def test_the_one_point_box_projects_to_the_bytes_of_its_point(draw):
    rng = np.random.default_rng(draw["seed"])
    d = draw["d"]
    point = with_signed_zeros(rng, rng.standard_normal(d))
    known = SingletonSolution(point)
    assert known.point.tobytes() == point.tobytes()
    for x in (with_signed_zeros(rng, 2.0 * rng.standard_normal(d)), point, -point):
        assert known.project(x).tobytes() == point.tobytes()
