"""Property tests of the halfspace projectors.

Random systems in d <= 6 with 3-12 cuts, including duplicated and rescaled
normals: feasible systems (planted point, some offsets tight) must project
to a feasible point that matches Lawson and Hanson's LDP/NNLS solution, and
systems made empty by a Farkas combination must raise EmptyIntersection.
On both, the dual active-set projector must return the bytes of its first
form, or raise the same exception class.
Random pairs of cuts must project bit for bit as the reference closed form.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csepsolve import (  # noqa: E402
    EmptyIntersection,
    HalfspaceCut,
    SolverError,
    project_halfspace_intersection,
    project_two_halfspaces,
)
from csepsolve.geometry import _dual_active_set  # noqa: E402

from oracles import (  # noqa: E402
    dual_active_set_reference,
    project_ldp_nnls,
    project_two_halfspaces_reference,
)

systems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(1, 6),
    "m": st.integers(3, 12),
    "duplicates": st.integers(0, 3),
    "log_scale": st.floats(0.0, 3.0),
})


def random_normals(rng, d, m, duplicates, log_scale):
    """m normals in R^d; the last ``duplicates`` repeat earlier ones, and
    every row is rescaled by a factor within 10^(+-log_scale)."""
    normals = rng.standard_normal((m, d))
    duplicates = min(duplicates, m - 1)
    for i in range(m - duplicates, m):
        normals[i] = normals[rng.integers(0, m - duplicates)]
    return normals * 10.0 ** rng.uniform(-log_scale, log_scale, (m, 1))


def distance_violation(cuts, z):
    return max(c.violation(z) / np.linalg.norm(c.normal) for c in cuts)


def feasible_system(params):
    """Normals, offsets and x0 of a system with a planted point, some of
    its offsets tight."""
    rng = np.random.default_rng(params["seed"])
    d, m = params["d"], params["m"]
    normals = random_normals(rng, d, m, params["duplicates"], params["log_scale"])
    p = rng.standard_normal(d)
    slack = np.where(rng.random(m) < 0.5, 0.0, rng.exponential(1.0, m))
    offsets = normals @ p + slack * np.linalg.norm(normals, axis=1)
    return normals, offsets, p + 3.0 * rng.standard_normal(d)


def empty_system(params):
    """Normals, offsets and x0 of a system made empty by a Farkas cut."""
    # A cut -sum_i c_i a_i z <= -sum_i c_i b_i - gap with c >= 0 and gap > 0
    # contradicts the cuts it combines, so the intersection is empty.
    rng = np.random.default_rng(params["seed"])
    d, m = params["d"], params["m"]
    normals = random_normals(rng, d, m - 1, params["duplicates"], params["log_scale"])
    offsets = normals @ rng.standard_normal(d) + rng.exponential(1.0, m - 1)
    c = rng.exponential(1.0, m - 1) * (rng.random(m - 1) < 0.7)
    c[0] += 0.5
    gap = rng.uniform(0.1, 1.0) * (1.0 + float(np.abs(c @ offsets)))
    normals = np.vstack([normals, -(c @ normals)])
    offsets = np.append(offsets, -(c @ offsets) - gap)
    return normals, offsets, 3.0 * rng.standard_normal(d)


@settings(max_examples=80, deadline=None)
@given(systems)
# Two systems on which scipy's NNLS alone returns a point 3.58 and 4.82
# outside a cut; the oracle then falls back to enumeration.
@example({"seed": 3458037490, "d": 3, "m": 11, "duplicates": 3,
          "log_scale": 0.527047037290315})
@example({"seed": 2829157643, "d": 3, "m": 6, "duplicates": 0,
          "log_scale": 2.730628875548544})
def test_feasible_systems_match_nnls(params):
    normals, offsets, x0 = feasible_system(params)
    cuts = [HalfspaceCut(a, o) for a, o in zip(normals, offsets)]

    z = project_halfspace_intersection(cuts, x0)
    ref = project_ldp_nnls(cuts, x0)
    assert ref is not None
    assert distance_violation(cuts, z) <= 1e-10
    assert np.linalg.norm(z - ref) <= 1e-8 * (1.0 + np.linalg.norm(x0))


@settings(max_examples=60, deadline=None)
@given(systems)
# Two systems whose Farkas cut leaves a rounding residual of about 2e-10
# when a dependent normal is orthogonalised against the active ones.
@example({"seed": 1201420, "d": 6, "m": 10, "duplicates": 2, "log_scale": 3.0})
@example({"seed": 2528877490, "d": 5, "m": 3, "duplicates": 0,
          "log_scale": 2.2839610620627537})
def test_empty_systems_raise(params):
    normals, offsets, x0 = empty_system(params)
    cuts = [HalfspaceCut(a, o) for a, o in zip(normals, offsets)]

    with pytest.raises(EmptyIntersection):
        project_halfspace_intersection(cuts, x0)


def outcome_bytes(project, normals, offsets, x0):
    """The bytes of ``project(normals, offsets, x0)``, or the class of the
    exception it raised."""
    try:
        return project(normals, offsets, x0).tobytes()
    except SolverError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(systems)
@example({"seed": 3458037490, "d": 3, "m": 11, "duplicates": 3,
          "log_scale": 0.527047037290315})
@example({"seed": 2829157643, "d": 3, "m": 6, "duplicates": 0,
          "log_scale": 2.730628875548544})
@example({"seed": 1201420, "d": 6, "m": 10, "duplicates": 2, "log_scale": 3.0})
@example({"seed": 2528877490, "d": 5, "m": 3, "duplicates": 0,
          "log_scale": 2.2839610620627537})
def test_dual_active_set_matches_its_first_form_bytes(params):
    # The projector as first written, with every numpy call of each step,
    # on the feasible and the Farkas-empty system of the same draw, and on
    # the feasible one from a point inside it.
    normals, offsets, x0 = feasible_system(params)
    inside = project_ldp_nnls([HalfspaceCut(a, o) for a, o in zip(normals, offsets)], x0)
    cases = [(normals, offsets, x0), empty_system(params), (normals, offsets, inside)]
    for normals, offsets, x0 in cases:
        assert outcome_bytes(_dual_active_set, normals, offsets, x0) == (
            outcome_bytes(dual_active_set_reference, normals, offsets, x0))
    assert _dual_active_set(normals, offsets, inside) is not inside  # never the caller's x0


pairs = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(1, 6),
    "kind": st.sampled_from(["generic", "whole_first", "whole_second", "both_whole",
                             "parallel", "antiparallel", "feasible_x0"]),
    "log_scale": st.floats(0.0, 3.0),
})


def random_pair(rng, d, kind, log_scale):
    """Two cuts and a starting point of the given kind; offsets are drawn
    around the cut values at a random point, so each case is reached."""
    x0 = 3.0 * rng.standard_normal(d)
    a1, a2 = rng.standard_normal((2, d)) * 10.0 ** rng.uniform(-log_scale, log_scale, (2, 1))
    if kind == "parallel":
        a2 = rng.uniform(0.1, 10.0) * a1
    elif kind == "antiparallel":
        a2 = -rng.uniform(0.1, 10.0) * a1
    p = rng.standard_normal(d)
    b1, b2 = float(a1 @ p), float(a2 @ p)
    b1 += float(rng.standard_normal()) * (rng.random() < 0.7)
    b2 += float(rng.standard_normal()) * (rng.random() < 0.7)
    if kind == "feasible_x0":
        b1 = float(a1 @ x0) + abs(b1 - float(a1 @ p))
        b2 = float(a2 @ x0) + abs(b2 - float(a2 @ p))
    if kind in ("whole_first", "both_whole"):
        a1, b1 = np.zeros(d), abs(b1)
    if kind in ("whole_second", "both_whole"):
        a2, b2 = np.zeros(d), abs(b2)
    return HalfspaceCut(a1, b1), HalfspaceCut(a2, b2), x0


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_two_halfspaces_match_reference_bytes(params):
    rng = np.random.default_rng(params["seed"])
    cut1, cut2, x0 = random_pair(rng, params["d"], params["kind"], params["log_scale"])
    try:
        expected = project_two_halfspaces_reference(cut1, cut2, x0)
    except EmptyIntersection:
        with pytest.raises(EmptyIntersection):
            project_two_halfspaces(cut1, cut2, x0)
        return
    assert project_two_halfspaces(cut1, cut2, x0).tobytes() == expected.tobytes()
