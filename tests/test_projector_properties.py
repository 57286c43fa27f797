"""Property tests of the halfspace projectors.

Random systems in d <= 6 with 3-12 cuts, including duplicated and rescaled
normals: feasible systems (planted point, some offsets tight) must project
to a feasible point that matches Lawson and Hanson's LDP/NNLS solution, and
systems made empty by a Farkas combination must raise EmptyIntersection.
On both, the dual active-set projector must return the bytes of its first
form, or raise the same exception class.
Random pairs of cuts must project bit for bit as the reference closed form.
Pairs of nearly parallel cuts, both active at the projection, must project
as the exact rational KKT solution does, within the bound that
``project_two_halfspaces`` states; so must the two cuts on which
``ep_quadratic_2d`` under ``extragradient`` once fired its anchor check.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("scipy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csepsolve.errors import EmptyIntersection, SolverError  # noqa: E402
from csepsolve.geometry import (  # noqa: E402
    HalfspaceCut,
    _dual_active_set,
    project_halfspace_intersection,
    project_two_halfspaces,
)

from oracles import (  # noqa: E402
    dual_active_set_reference,
    project_ldp_nnls,
    project_two_halfspaces_exact,
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


near_parallel_pairs = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(2, 6),
    "log_theta": st.floats(-8.0, -1.0),
    "log_lengths": st.tuples(st.floats(-7.0, 3.0), st.floats(-7.0, 3.0)),
})


def exact_dot(u, v):
    return sum((Fraction(float(p)) * Fraction(float(q)) for p, q in zip(u, v)), Fraction(0))


def both_active_pair(params):
    """Two cuts whose normals, of lengths 10^log_lengths, meet at the angle
    10^log_theta, and an x0 from which both are active at the projection.

    The offsets are the cut values at a random point.  x0 is the exact point
    of both hyperplanes in the span of the normals plus a positive
    combination of the unit normals, rounded once, so that it lies inside
    the thin cone of the normals at every angle drawn."""
    rng = np.random.default_rng(params["seed"])
    e1, e2 = np.linalg.qr(rng.standard_normal((params["d"], 2)))[0].T
    theta = 10.0 ** params["log_theta"]
    u1, u2 = e1, math.cos(theta) * e1 + math.sin(theta) * e2
    a1, a2 = 10.0 ** params["log_lengths"][0] * u1, 10.0 ** params["log_lengths"][1] * u2
    p = rng.standard_normal(params["d"]) * 10.0 ** rng.uniform(-1.0, 1.0)
    cut1, cut2 = HalfspaceCut(a1, float(a1 @ p)), HalfspaceCut(a2, float(a2 @ p))
    n1, n2, g12 = exact_dot(a1, a1), exact_dot(a2, a2), exact_dot(a1, a2)
    b1, b2 = Fraction(cut1.offset), Fraction(cut2.offset)
    det = n1 * n2 - g12 * g12
    alpha, beta = (n2 * b1 - g12 * b2) / det, (n1 * b2 - g12 * b1) / det
    step = (rng.uniform(0.1, 1.0) * u1 + rng.uniform(0.1, 1.0) * u2) * 10.0 ** rng.uniform(-1, 1)
    x0 = [alpha * Fraction(float(c)) + beta * Fraction(float(e)) + Fraction(float(s))
          for c, e, s in zip(a1, a2, step)]
    return cut1, cut2, np.array([float(v) for v in x0])


def assert_matches_exact_projection(cut1, cut2, x0):
    """``project_two_halfspaces`` against the exact projection z*, the bound
    its docstring states: the result z lies in both cuts and ||z - x0||
    equals ||z* - x0||, each within its slack 1e-12 (1 + ||x0||) + 1e-15,
    and ||z - z*|| is at most that slack over sin t, for the angle t
    between the normals."""
    z = project_two_halfspaces(cut1, cut2, x0)
    exact = project_two_halfspaces_exact(cut1, cut2, x0)
    tol = 1e-12 * (1.0 + float(np.linalg.norm(x0))) + 1e-15
    for cut in (cut1, cut2):
        violation = exact_dot(cut.normal, z) - Fraction(cut.offset)
        assert float(violation) <= tol * math.sqrt(cut.norm_sq)
    x, zq = [Fraction(float(v)) for v in x0], [Fraction(float(v)) for v in z]
    dist = math.sqrt(float(sum((p - q) ** 2 for p, q in zip(zq, x))))
    exact_dist = math.sqrt(float(sum((p - q) ** 2 for p, q in zip(exact, x))))
    assert abs(dist - exact_dist) <= tol
    n1, n2, g12 = (exact_dot(u, v) for u, v in ((cut1.normal,) * 2, (cut2.normal,) * 2,
                                                 (cut1.normal, cut2.normal)))
    sin = math.sqrt(float(1 - g12 * g12 / (n1 * n2)))
    assert math.sqrt(float(sum((p - q) ** 2 for p, q in zip(zq, exact)))) <= tol / sin


@settings(max_examples=300, deadline=None)
@given(near_parallel_pairs)
def test_near_parallel_pairs_match_the_exact_projection(params):
    assert_matches_exact_projection(*both_active_pair(params))


def test_the_ep_quadratic_extragradient_cuts_match_the_exact_projection():
    # The C-cut and Q-cut of the anchor projection at n = 4 649 of
    # ep_quadratic_2d under extragradient (defaults, tol 1e-8), whose
    # normals have cosine 0.99999935: the 2x2 Gram form left the result
    # 2.33e-10 outside both cuts, over the check's 2.20e-10.
    c_cut = HalfspaceCut(np.array([float.fromhex("-0x1.91240483a0000p-18"),
                                   float.fromhex("0x1.efb5a17900000p-20")]),
                         float.fromhex("-0x1.1535ebd29c86fp-19"))
    q_cut = HalfspaceCut(np.array([float.fromhex("-0x1.4ccc802b38b9bp+0"),
                                   float.fromhex("0x1.99993db94c396p-2")]),
                         float.fromhex("-0x1.cccaae3ea7ff9p-2"))
    x0 = np.array([float.fromhex("-0x1.999999999999ap-1"), float.fromhex("0x1.ccccccccccccdp-1")])
    assert_matches_exact_projection(c_cut, q_cut, x0)
