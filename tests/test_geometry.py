import ast
import math
import pathlib

import numpy as np
import pytest

from csepsolve import (
    Ball,
    Box,
    DegenerateCut,
    DimensionMismatch,
    EmptyIntersection,
    HalfspaceCut,
    InfeasibleSet,
    Polyhedron,
    WholeSpace,
    dykstra,
    dykstra_halfspaces,
    project,
    project_halfspace,
    project_halfspace_intersection,
    project_two_halfspaces,
)
from csepsolve.geometry import CutStack, as_point, dot, norm, row_dots, row_norms

from oracles import project_ldp_nnls, project_polyhedron_enumerate


def cut(normal, offset):
    return HalfspaceCut(np.asarray(normal, dtype=float), offset)


def nearly_parallel_system(seed):
    """Feasible cuts in d = 2 or 3, 6-18 of them, and a starting point.

    About 60% of the unit normals lie within 1e-3 of one shared direction,
    about half of the offsets are tight at a planted point, and x0 lies a
    few units from that point.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    m = int(rng.integers(6, 19))
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    normals = rng.standard_normal((m, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    near = rng.random(m) < 0.6
    dev = rng.standard_normal((int(near.sum()), d))
    dev /= np.linalg.norm(dev, axis=1, keepdims=True)
    normals[near] = u + 1e-3 * rng.random((int(near.sum()), 1)) * dev
    p = rng.standard_normal(d)
    tight = rng.random(m) < 0.5
    offsets = normals @ p + np.where(tight, 0.0, np.abs(rng.standard_normal(m)))
    x0 = p + 3.0 * rng.standard_normal(d)
    return [cut(a, o) for a, o in zip(normals, offsets)], x0


class TestProject:
    def test_box_clamps(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(project(box, [2.0, 0.5]), [1.0, 0.5])

    def test_ball_radial(self):
        ball = Ball([0.0, 0.0], 1.0)
        assert np.allclose(project(ball, [3.0, 4.0]), [0.6, 0.8])

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
    def test_a_ball_radius_that_is_not_positive_and_finite_is_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            Ball([0.0, 0.0], radius)

    def test_whole_space_identity(self):
        ws = WholeSpace(2)
        assert np.allclose(project(ws, [-7.0, 2.0]), [-7.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(Box([0.0], [1.0]), [1.0, 2.0])

    def test_polyhedron_delegates(self):
        poly = Polyhedron([cut([1.0, 0.0], 0.0)])
        assert np.allclose(project(poly, [2.0, 3.0]), [0.0, 3.0])

    def test_empty_polyhedron_detected(self):
        poly = Polyhedron([cut([1.0], -1.0), cut([-1.0], -2.0), cut([1.0], -1.5)])
        with pytest.raises(InfeasibleSet):
            project(poly, [0.0])


def stack_sets(rng, d):
    """One set of each kind in R^d."""
    normals = rng.standard_normal((5, d))
    return [
        Box(-np.ones(d), rng.uniform(0.0, 2.0, d)),
        Ball(rng.standard_normal(d), 0.7),
        WholeSpace(d),
        Polyhedron([cut(a, o) for a, o in zip(normals, rng.uniform(0.1, 1.0, 5))]),
    ]


class TestStackProjection:
    @pytest.mark.parametrize("d", [1, 3, 100])
    @pytest.mark.parametrize("k", [1, 4])
    def test_stack_projects_as_its_rows(self, rng, d, k):
        for set_ in stack_sets(rng, d):
            Y = 3.0 * rng.standard_normal((k, d))
            stacked = set_.project(Y)
            rows = np.array([set_.project(y) for y in Y])
            assert stacked.shape == (k, d), type(set_).__name__
            assert stacked.tobytes() == rows.tobytes(), type(set_).__name__

    def test_empty_polyhedron_stack_raises(self):
        poly = Polyhedron([cut([1.0], -1.0), cut([-1.0], -2.0), cut([1.0], -1.5)])
        with pytest.raises(InfeasibleSet):
            poly.project(np.zeros((3, 1)))


class TestHalfspace:
    def test_orthogonal_drop(self):
        assert np.allclose(project_halfspace(cut([1.0, 0.0], 0.0), [2.0, 3.0]), [0.0, 3.0])

    def test_already_feasible(self):
        assert np.allclose(project_halfspace(cut([1.0, 1.0], 2.0), [0.0, 0.0]), [0.0, 0.0])

    def test_closed_form(self):
        assert np.allclose(project_halfspace(cut([1.0, 1.0], 2.0), [3.0, 3.0]), [1.0, 1.0])

    def test_result_on_boundary_when_violated(self, rng):
        for _ in range(200):
            a = rng.standard_normal(4)
            b = float(rng.standard_normal())
            x = rng.standard_normal(4) * 3.0
            z = project_halfspace(cut(a, b), x)
            if a @ x - b > 0:
                assert abs(a @ z - b) < 1e-10 * (1 + abs(b))

    def test_degenerate_cut_rejected(self):
        with pytest.raises(DegenerateCut):
            cut([0.0, 0.0], -1.0)

    def test_degenerate_whole_space_accepted(self):
        c = cut([0.0, 0.0], 0.5)
        assert c.is_whole_space
        assert np.allclose(project_halfspace(c, [4.0, -1.0]), [4.0, -1.0])


class TestBitwiseFastPaths:
    """The one-dot forms give the bits of the numpy calls they replace."""

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 100, 257])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_norm_matches_linalg_norm(self, d, scale, rng):
        for _ in range(20):
            v = rng.standard_normal(d) * scale
            assert norm(v) == float(np.linalg.norm(v))

    @pytest.mark.parametrize("d", [1, 3, 100])
    def test_row_forms_match_each_row(self, d, rng):
        D = rng.standard_normal((16, d))
        dots, norms = row_dots(D), row_norms(D)
        for i, row in enumerate(D):
            assert dots[i] == float(row @ row)
            assert norms[i] == float(np.linalg.norm(row))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cut_rejects_non_finite_data(self, bad):
        with pytest.raises(ValueError):
            cut([1.0, bad], 0.0)
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            cut([1e200, bad], 0.0)
        with pytest.raises(ValueError):
            cut([1.0, 0.0], bad)

    def test_zero_normal_below_floor_rejected(self):
        with pytest.raises(DegenerateCut):
            cut([0.0, 0.0, 0.0], -1.1e-12)
        assert cut([0.0, 0.0, 0.0], -0.9e-12).is_whole_space

    def test_overflowing_finite_normal_constructs(self):
        with np.errstate(over="ignore"):
            c = cut([1e200, 1e200], 1.0)
        assert not c.is_whole_space
        assert c.norm_sq == np.inf

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 100])
    def test_dot_matches_matmul_with_the_sign_of_zero(self, d, rng):
        pairs = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(20)]
        pairs += [(np.zeros(d), -np.ones(d)), (-np.zeros(d), np.ones(d)),
                  (np.zeros(d), np.ones(d)), (np.full(d, 1e200), np.full(d, 1e200))]
        for a, b in pairs:
            with np.errstate(over="ignore"):
                assert repr(dot(a, b)) == repr(float(a @ b))

    def test_norm_sq_is_the_dot(self, rng):
        for d in (1, 2, 3, 50):
            a = rng.standard_normal(d)
            c = cut(a, 0.5)
            assert c.norm_sq == float(c.normal @ c.normal)
            assert c.is_whole_space == (float(np.linalg.norm(a)) < 1e-14)


class TestPointAndClipFastPaths:
    """A valid float64 point is returned as is, Box.project gives the bits
    of np.clip and Box.contains the answer of np.all; everything else
    behaves as the full paths do."""

    @pytest.mark.parametrize("d", [1, 2, 50])
    def test_valid_point_is_returned_unchanged(self, d, rng):
        x = rng.standard_normal(d)
        assert as_point(x) is x
        assert as_point(x, d) is x
        view = x[::2]
        assert as_point(view, view.size) is view

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        for x in (np.array([1.0, bad]), [1.0, bad]):
            with pytest.raises(ValueError, match="non-finite"):
                as_point(x)
            with pytest.raises(ValueError, match="non-finite"):
                as_point(x, 2)

    def test_wrong_shape_or_dimension_rejected(self):
        with pytest.raises(DimensionMismatch, match="1-D"):
            as_point(np.ones((2, 2)))
        with pytest.raises(DimensionMismatch, match="1-D"):
            as_point(np.ones((1, 2)), 2)
        with pytest.raises(DimensionMismatch, match="expected dimension 3"):
            as_point(np.ones(2), 3)
        with pytest.raises(DimensionMismatch, match="expected dimension 3"):
            as_point([1.0, 2.0], 3)

    def test_lists_ints_and_overflowing_squares_accepted(self):
        for x in ([1.0, 2.0], [1, 2], np.array([1, 2])):
            p = as_point(x, 2)
            assert p.dtype == np.float64 and p.tolist() == [1.0, 2.0]
        assert as_point([1e200, 1e200]).tolist() == [1e200, 1e200]
        big = np.array([1e200, 1e200])
        with np.errstate(over="ignore"):
            assert as_point(big, 2) is big

    def test_box_project_matches_np_clip(self, rng):
        box = Box(np.array([0.0, -1.0, -2.0]), np.array([0.0, 1.0, 0.0]))
        points = [
            rng.uniform(-3, 3, 3),
            rng.uniform(-3, 3, (5, 3)),
            np.array([np.nan, 0.5, np.nan]),
            np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [np.nan, -np.nan, 5.0]]),
        ]
        for x in points:
            assert box.project(x).tobytes() == np.clip(x, box.lower, box.upper).tobytes()

    def test_box_project_with_infinite_bounds_matches_np_clip(self, rng):
        # The constructor accepts only finite bounds; set infinite ones after.
        box = Box(np.zeros(3), np.ones(3))
        box.lower = np.array([-np.inf, 0.0, -np.inf])
        box.upper = np.array([np.inf, np.inf, -0.0])
        for x in (rng.uniform(-3, 3, 3), rng.uniform(-3, 3, (4, 3)),
                  np.array([[np.inf, -np.inf, np.nan], [-0.0, -0.0, 0.0]])):
            assert box.project(x).tobytes() == np.clip(x, box.lower, box.upper).tobytes()

    def test_box_contains_matches_np_all(self, rng):
        box = Box(np.array([0.0, -1.0, -2.0]), np.array([0.0, 1.0, 0.0]))
        points = [
            rng.uniform(-3, 3, 3),
            rng.uniform(-0.5, 0.0, 3),
            box.lower.copy(), box.upper.copy(),  # on faces
            np.array([-0.0, 1.0, -2.0]),
            box.upper + 1e-12, box.lower - 1e-9,
            np.array([np.nan, 0.5, -1.0]), np.array([0.0, np.nan, np.nan]),
            np.array([np.inf, 0.0, 0.0]), np.array([0.0, 0.0, -np.inf]),
            [0.0, 0.5, -1.0],
        ]
        for x in points:
            for tol in (1e-10, 1e-9, 1e-12, 0.0, -0.0, -1e-12, -1.0, np.inf, np.nan):
                expected = bool(np.all(x >= box.lower - tol) and np.all(x <= box.upper + tol))
                assert box.contains(x, tol) is expected, (x, tol)


class TestTwoHalfspaces:
    def test_corner(self):
        z = project_two_halfspaces(cut([1.0, 0.0], 0.0), cut([0.0, 1.0], 0.0), [1.0, 1.0])
        assert np.allclose(z, [0.0, 0.0], atol=1e-12)

    def test_redundant_pair(self):
        z = project_two_halfspaces(cut([1.0, 0.0], 0.0), cut([1.0, 0.0], 1.0), [2.0, 0.0])
        assert np.allclose(z, [0.0, 0.0], atol=1e-12)

    def test_interior_point(self):
        z = project_two_halfspaces(cut([1.0, 0.0], 0.0), cut([0.0, 1.0], 0.0), [-1.0, -1.0])
        assert np.allclose(z, [-1.0, -1.0])

    def test_one_active_other_tightened(self):
        # projecting onto the satisfied-at-x0 cut becomes necessary after the
        # first projection violates it
        c1 = cut([0.0, 1.0], 0.0)
        c2 = cut([1.2, -5.0], 1.0)
        z = project_two_halfspaces(c1, c2, [0.99, 0.5])
        ref = project_polyhedron_enumerate([c1, c2], [0.99, 0.5])
        assert np.allclose(z, ref, atol=1e-9)

    @pytest.mark.parametrize("project", ["two", "many"])
    def test_the_anchor_is_validated_as_before(self, project):
        # each x0 gives what as_point(x0, 2) gives: a list or ints are taken
        # as floats, finite entries whose squares overflow are accepted (the
        # feasibility slack is then infinite and x0 comes back), and the
        # rest raises
        cuts = [cut([1.0, 0.0], 0.0), cut([0.0, 1.0], 0.0), cut([1.0, 1.0], 5.0)]

        def proj(x0):
            if project == "two":
                return project_two_halfspaces(cuts[0], cuts[1], x0)
            return project_halfspace_intersection(cuts, x0)

        for x0 in ([1.0, 1.0], [1, 1], np.array([1, 1])):
            assert proj(x0).tolist() == [0.0, 0.0]
        with np.errstate(over="ignore"):
            assert proj(np.array([1e200, -1e200])).tolist() == [1e200, -1e200]
        with pytest.raises(DimensionMismatch, match="1-D"):
            proj(np.ones((1, 2)))
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
            proj(np.ones(3))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                proj(np.array([1.0, bad]))
            with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
                proj(np.array([1e200, bad]))

    def test_empty_slab(self):
        with pytest.raises(EmptyIntersection):
            project_two_halfspaces(cut([1.0], -1.0), cut([-1.0], -2.0), [0.0])

    @pytest.mark.parametrize("length", [2e-8, 1.0, 1e8])
    def test_the_feasibility_slack_is_a_distance_whatever_the_normal_length(self, length):
        # {z_2 >= 2e-8} with a normal of the given length and Q = {z_1 >= 1}:
        # projecting 0 from Q must land in the first cut too, at (1, 2e-8),
        # and not at (1, 0), which violates it by 4e-16 in value for a
        # normal of length 2e-8 but by 2e-8 in distance
        c = cut([0.0, -length], -2e-8 * length)
        q = cut([-1.0, 0.0], -1.0)
        z = project_two_halfspaces(c, q, np.zeros(2))
        assert z == pytest.approx([1.0, 2e-8], rel=1e-12)
        for h in (c, q):
            assert h.violation(z) <= 1e-12 * (1.0 + norm(z)) * math.sqrt(h.norm_sq)

    def test_degenerate_treated_as_whole_space(self):
        z = project_two_halfspaces(cut([0.0, 0.0], 0.0), cut([1.0, 0.0], 0.0), [2.0, 1.0])
        assert np.allclose(z, [0.0, 1.0])

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(400):
            a1 = rng.standard_normal(3)
            a2 = rng.standard_normal(3)
            p = rng.standard_normal(3)
            b1 = float(a1 @ p) + abs(rng.standard_normal())
            b2 = float(a2 @ p) + abs(rng.standard_normal())
            x0 = rng.standard_normal(3) * 2.0
            z = project_two_halfspaces(cut(a1, b1), cut(a2, b2), x0)
            ref = project_polyhedron_enumerate([cut(a1, b1), cut(a2, b2)], x0)
            assert np.linalg.norm(z - ref) < 1e-8


class TestHalfspaceIntersection:
    def test_single_cut_matches(self):
        z = project_halfspace_intersection([cut([1.0, 0.0], 0.0)], [2.0, 3.0])
        assert np.allclose(z, [0.0, 3.0])

    def test_redundant_third_cut(self):
        cuts = [cut([1.0, 0.0], 0.0), cut([0.0, 1.0], 0.0), cut([1.0, 1.0], 1.0)]
        z = project_halfspace_intersection(cuts, [1.0, 1.0])
        ref = project_polyhedron_enumerate(cuts, [1.0, 1.0])
        assert np.linalg.norm(z - ref) < 1e-10
        assert np.allclose(z, [0.0, 0.0], atol=1e-10)

    def test_all_satisfied_identity(self):
        cuts = [cut([1.0, 0.0], 1.0), cut([0.0, 1.0], 1.0), cut([1.0, 1.0], 1.5)]
        z = project_halfspace_intersection(cuts, [0.2, 0.1])
        assert np.allclose(z, [0.2, 0.1])

    def test_matches_enumeration_many_cuts(self, rng):
        for _ in range(150):
            p = rng.standard_normal(3)
            cuts = []
            for _ in range(4):
                a = rng.standard_normal(3)
                cuts.append(cut(a, float(a @ p) + abs(rng.standard_normal())))
            x0 = rng.standard_normal(3) * 2.0
            z = project_halfspace_intersection(cuts, x0)
            ref = project_polyhedron_enumerate(cuts, x0)
            assert np.linalg.norm(z - ref) < 1e-8

    # Dykstra's method exceeds 10 000 cycles on seeds 94, 176 and 196.
    @pytest.mark.parametrize("seed", [0, 1, 24, 94, 176, 196])
    def test_nearly_parallel_feasible_systems(self, seed):
        pytest.importorskip("scipy")
        cuts, x0 = nearly_parallel_system(seed)
        z = project_halfspace_intersection(cuts, x0)
        ref = project_ldp_nnls(cuts, x0)
        assert max(c.violation(z) / np.linalg.norm(c.normal) for c in cuts) <= 1e-10
        assert np.linalg.norm(z - ref) <= 1e-8 * (1.0 + np.linalg.norm(x0))

    def test_empty_intersection_raises(self):
        cuts = [cut([1.0, 0.0], -1.0), cut([-1.0, 0.0], -2.0), cut([0.0, 1.0], 0.0)]
        with pytest.raises(EmptyIntersection):
            project_halfspace_intersection(cuts, [0.0, 0.0])

    def test_plain_dykstra_agrees_with_closed_form(self, rng):
        for _ in range(200):
            a1 = rng.standard_normal(2)
            a2 = rng.standard_normal(2)
            p = rng.standard_normal(2)
            c1 = cut(a1, float(a1 @ p) + abs(rng.standard_normal()))
            c2 = cut(a2, float(a2 @ p) + abs(rng.standard_normal()))
            x0 = rng.standard_normal(2) * 2.0
            closed = project_two_halfspaces(c1, c2, x0)
            iterative = dykstra_halfspaces([c1, c2], x0, tol=1e-12)
            assert np.linalg.norm(closed - iterative) < 1e-8

    @pytest.mark.parametrize("k, at", [(k, at) for k in range(1, 5) for at in range(k + 1)])
    @pytest.mark.parametrize("odd", [np.zeros(3), np.array([0.0, 1.0, 0.0])])
    def test_cuts_of_mixed_dimensions_raise_whatever_their_count(self, k, at, odd):
        # k cuts of R^2 with one cut of R^3, the whole space or not, at
        # position ``at``: the rows form (two cuts) and the arrays (more)
        cuts = [cut([1.0, float(i)], 1.0) for i in range(k)]
        cuts.insert(at, cut(odd, 1.0))
        mixed = "cut normals have different dimensions"
        with pytest.raises(DimensionMismatch, match=mixed):
            CutStack.of(cuts)
        for x0 in ([2.0, 2.0], [2.0, 2.0, 2.0]):
            with pytest.raises(DimensionMismatch, match=mixed):
                project_halfspace_intersection(cuts, x0)
        with pytest.raises(DimensionMismatch, match="polyhedron cuts have mixed dimensions"):
            Polyhedron(cuts)


class TestGeneralDykstra:
    def test_box_and_halfspace(self, rng):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        c = cut([1.0, 1.0], 0.5)
        for _ in range(50):
            x0 = rng.standard_normal(2) * 2.0
            z = dykstra([box.project, lambda v: project_halfspace(c, v)], x0, tol=1e-11)
            box_cuts = [
                cut([1.0, 0.0], 1.0), cut([-1.0, 0.0], 1.0),
                cut([0.0, 1.0], 1.0), cut([0.0, -1.0], 1.0), c,
            ]
            ref = project_polyhedron_enumerate(box_cuts, x0)
            assert np.linalg.norm(z - ref) < 1e-7


class TestProjectionProperties:
    SETS = [
        Box([-1.0, -0.5, 0.0], [1.0, 1.5, 2.0]),
        Ball([0.2, -0.1, 0.3], 1.5),
        WholeSpace(3),
        Polyhedron([cut([1.0, 0.0, 0.0], 0.6), cut([0.0, 1.0, 0.0], 0.5),
                    cut([1.0, 1.0, 1.0], 0.9)]),
    ]

    @pytest.mark.parametrize("set_", SETS, ids=["box", "ball", "whole", "poly"])
    def test_firmly_nonexpansive(self, set_, rng):
        for _ in range(300):
            x = rng.standard_normal(3) * 2.0
            y = rng.standard_normal(3) * 2.0
            px, py = set_.project(x), set_.project(y)
            lhs = float((px - py) @ (x - y))
            assert lhs >= float((px - py) @ (px - py)) - 1e-10

    @pytest.mark.parametrize("set_", SETS, ids=["box", "ball", "whole", "poly"])
    def test_distance_splits(self, set_, rng):
        for _ in range(300):
            x = set_.sample(rng, 1)[0]
            y = rng.standard_normal(3) * 2.0
            py = set_.project(y)
            lhs = float((x - py) @ (x - py)) + float((py - y) @ (py - y))
            assert lhs <= float((x - y) @ (x - y)) + 1e-10

    @pytest.mark.parametrize("set_", SETS, ids=["box", "ball", "whole", "poly"])
    def test_characterization(self, set_, rng):
        for _ in range(30):
            x = rng.standard_normal(3) * 2.0
            z = set_.project(x)
            for y in np.atleast_2d(set_.sample(rng, 50)):
                assert float((x - z) @ (z - y)) >= -1e-10

    @pytest.mark.parametrize("set_", SETS, ids=["box", "ball", "whole", "poly"])
    def test_idempotent(self, set_, rng):
        for _ in range(200):
            x = rng.standard_normal(3) * 2.0
            z = set_.project(x)
            assert np.linalg.norm(set_.project(z) - z) <= 1e-12


def test_no_module_but_geometry_reads_the_private_state_of_a_cut_stack():
    # a stack's private names: its slots, its private methods, and the
    # array constructor the baselines once called; ``self._name`` is a
    # module's own attribute
    private = {"_arrays", "_rows", "_has_whole", "_lengths", "_live", "_valid"} | {
        name for name in vars(CutStack) if name.startswith("_") and not name.startswith("__")}
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "csepsolve"
    reads = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in sorted(src.glob("*.py")) if path.name != "geometry.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in private
             and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert reads == []
