"""The fixed costs of an iteration's anchor step and checks, taken once.

``drive`` takes <x0, x0> once per run and hands it to the projector, and
counts both cut checks of an iteration with one ``CutStack.audit``; a
one-row ``row_dots`` is a plain dot product.  Each is held bit for bit to
the form it replaces, and the checks to observing only: a run given the
known solution moves exactly as one without it.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csepsolve import (  # noqa: E402
    ArmijoParams,
    DimensionMismatch,
    HalfspaceCut,
    HybridParams,
    project_halfspace,
    project_halfspace_intersection,
    project_two_halfspaces,
    run_armijo_hybrid,
    run_hybrid_extragradient,
    run_maxsel_hybrid,
    run_parallel_hybrid,
    run_sequential,
    run_single,
)
from csepsolve.geometry import CutStack, _dual_active_set, row_dots  # noqa: E402
from csepsolve.hybrid import Step, drive  # noqa: E402
from csepsolve.harness import (  # noqa: E402
    derive_default_params,
    extragradient_default_lam,
    load_problem,
    reference_solution,
)
from csepsolve.outcome import TRACE_HEADER, RunCounters  # noqa: E402
from csepsolve.prox import ProxRecord  # noqa: E402

from conftest import PROBLEM_DIR  # noqa: E402

systems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(1, 6),
    "m": st.integers(0, 9),
    "whole": st.integers(0, 3),
    "log_scale": st.floats(-3.0, 3.0),
})


def planted_system(params):
    """Normals (m, d) with up to ``whole`` zero rows, offsets that a planted
    point satisfies, some of them tightly, and an anchor x0 away from it."""
    rng = np.random.default_rng(params["seed"])
    d, m = params["d"], params["m"]
    scale = 10.0 ** params["log_scale"]
    p = scale * rng.standard_normal(d)
    normals = rng.standard_normal((m, d))
    normals[rng.permutation(m)[:params["whole"]]] = 0.0
    offsets = normals @ p + rng.exponential(1.0, m) * (rng.random(m) < 0.7)
    x0 = p + 3.0 * scale * rng.standard_normal(d)
    return rng, normals, offsets, x0


def stacks_of(normals, offsets):
    """The row form (at most two cuts), the array form and ``CutStack.of``."""
    cuts = [HalfspaceCut(a, b) for a, b in zip(normals, offsets)]
    return [CutStack(normals, offsets), CutStack.of(cuts), CutStack.of(cuts[:2]),
            CutStack.of(cuts[:1])]


@settings(max_examples=200, deadline=None)
@given(systems, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.booleans())
def test_an_audit_counts_as_its_row_wise_definitions(params, tol, slack, tiny):
    rng, normals, offsets, _ = planted_system(params)
    d = params["d"]
    if tiny:  # whole-space rows of nonzero length, below DEGENERACY_THRESHOLD
        zero = ~normals.any(axis=1)
        normals[zero] = 1e-16 * rng.standard_normal((int(zero.sum()), d))
    for stack in stacks_of(normals, offsets):
        rows = list(stack)
        for z, p in ((rng.standard_normal(d), rng.standard_normal(d)),
                     (np.zeros(d), np.zeros(d))):
            for t, s in ((tol, slack), (1e-10, 1e-8), (0.0, 0.0)):
                outside = sum(c.violation(z) > t * math.sqrt(c.norm_sq)
                              for c in rows if not c.is_whole_space)
                assert stack.audit(z, t, p, s) == (outside, sum(c.violation(p) > s
                                                                for c in rows))
                assert stack.audit(z, t, None, s) == (outside, 0)


def test_a_given_projector_receives_the_runs_anchor_norm():
    x0 = np.array([0.3, -1.7, 2.5])
    seen = []

    def step(n, x, dx2):
        return Step(x[None] + 1.0, np.empty((0, x.size)), 0.0, 1.0, ProxRecord.of([]))

    def project(cuts, anchor, anchor_sq):
        seen.append(anchor_sq)
        return project_halfspace_intersection(cuts, anchor, anchor_sq)

    out = drive("fixed", step, x0, 0.0, 3, RunCounters(), project=project)
    assert out.iterations == 3
    assert seen == [float(x0 @ x0)] * 3


@settings(max_examples=200, deadline=None)
@given(systems)
def test_the_runs_anchor_norm_projects_as_the_projectors_own(params):
    _, normals, offsets, x0 = planted_system(params)
    x0_sq = float(x0.dot(x0))
    for stack in stacks_of(normals, offsets):
        assert project_halfspace_intersection(stack, x0, x0_sq).tobytes() == (
            project_halfspace_intersection(stack, x0).tobytes())
    cuts = [HalfspaceCut(a, b) for a, b in zip(normals, offsets)]
    if len(cuts) >= 2:
        assert project_two_halfspaces(cuts[0], cuts[1], x0, x0_sq).tobytes() == (
            project_two_halfspaces(cuts[0], cuts[1], x0).tobytes())
    live = [i for i, c in enumerate(cuts) if not c.is_whole_space]
    if live:
        A, b = normals[live], offsets[live]
        assert _dual_active_set(A, b, x0, x0_sq).tobytes() == (
            _dual_active_set(A, b, x0).tobytes())


@pytest.mark.parametrize("whole", [(), (0,), (1,), (0, 1)])
def test_a_pair_projects_onto_its_live_rows_and_counts_its_whole_ones(whole):
    # two cuts of R^3 that 0 satisfies, the rows in ``whole`` zero: the row
    # form (with a pair when both are live) and the array form project as
    # the closed form of their live rows, x0 itself when none is
    rng = np.random.default_rng(len(whole) + 10 * sum(whole))
    for _ in range(100):
        normals, offsets = rng.standard_normal((2, 3)), rng.uniform(0.1, 1.0, 2)
        normals[list(whole)] = 0.0
        cuts = [HalfspaceCut(a, b) for a, b in zip(normals, offsets)]
        live = [c for c in cuts if not c.is_whole_space]
        x0 = 3.0 * rng.standard_normal(3)
        expected = (project_two_halfspaces(*live, x0) if len(live) == 2
                    else project_halfspace(live[0], x0) if live else x0)
        for stack in (CutStack.of(cuts), CutStack(normals, offsets)):
            assert stack.n_whole == len(whole)
            z = project_halfspace_intersection(stack, x0, float(x0.dot(x0)))
            assert z.tobytes() == expected.tobytes()
            assert z is not x0
        assert project_halfspace_intersection(cuts, x0).tobytes() == expected.tobytes()


def test_each_iteration_counts_its_whole_space_cuts():
    # iteration 1: Q_1 is the whole space (x_1 = x0); iteration 2: the
    # C-cut of y = x_2 is; iteration 3: neither is
    def step(n, x, dx2):
        return Step(x[None] + (n % 2), np.empty((0, x.size)), 0.0, 1.0, ProxRecord.of([]))

    out = drive("fixed", step, np.array([0.3, -1.7]), 0.0, 3, RunCounters())
    assert [r.degenerate_cuts for r in out.trace] == [1, 1, 0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.floats(-150.0, 150.0))
def test_a_one_row_stack_dots_as_its_row(seed, d, log_scale):
    rng = np.random.default_rng(seed)
    D = 10.0 ** log_scale * rng.standard_normal((1, d))
    with np.errstate(over="ignore", under="ignore"):
        got = row_dots(D)
        batched = np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0]
        in_two = row_dots(np.vstack([D, rng.standard_normal((1, d))]))[:1]
        assert (got.shape, got.dtype) == ((1,), np.float64)
        assert got.tobytes() == np.array([D[0] @ D[0]]).tobytes()
        assert got.tobytes() == batched.tobytes() == in_two.tobytes()


class TestWholeSpaceShortcutsCheckTheDimension:
    """A cut that is the whole space still fixes the dimension of the point."""

    whole = HalfspaceCut(np.zeros(2), 0.0)
    live = HalfspaceCut(np.array([1.0, 0.0]), 0.0)

    def test_one_whole_cut(self):
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
            project_halfspace(self.whole, [1.0, 2.0, 3.0])
        assert project_halfspace(self.whole, [1.0, 2.0]).tolist() == [1.0, 2.0]

    def test_two_whole_cuts(self):
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
            project_two_halfspaces(self.whole, self.whole, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch, match="different dimensions"):
            project_two_halfspaces(self.whole, HalfspaceCut(np.zeros(3), 0.0), [1.0, 2.0])
        assert project_two_halfspaces(self.whole, self.whole, [1.0, 2.0]).tolist() == [1.0, 2.0]
        assert project_two_halfspaces(self.whole, self.live, [1.0, 2.0]).tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_stack_without_live_cuts(self, k):
        for stack in (CutStack(np.zeros((k, 2)), np.zeros(k)),
                      CutStack.of([self.whole] * k), [self.whole] * k):
            with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
                project_halfspace_intersection(stack, [1.0, 2.0, 3.0])
            assert project_halfspace_intersection(stack, [1.0, 2.0]).tolist() == [1.0, 2.0]
        # an empty stack fixes no dimension
        assert project_halfspace_intersection([], [1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 3.0]


def run_solver(name, instance, **kw):
    """``name`` on ``instance`` with the harness's default parameters."""
    if name == "extragradient":
        return run_hybrid_extragradient(instance, extragradient_default_lam(instance),
                                        1e-8, 300, **kw)
    lam, k = derive_default_params(instance)
    if name == "armijo":
        return run_armijo_hybrid(instance, ArmijoParams(eta=0.5, lam=lam), 1e-8, 300, **kw)
    runner = {"parallel": run_parallel_hybrid, "maxsel": run_maxsel_hybrid,
              "sequential": run_sequential, "single": run_single}[name]
    return runner(instance, HybridParams(lam=lam, k=k, tol=1e-8, max_outer=300), **kw)


OBSERVED = [f for f in TRACE_HEADER if f not in ("dist_to_known", "wall_ms")]


@pytest.mark.parametrize("problem, name", [
    *[("ep_quadratic_2d", name) for name in ("parallel", "maxsel", "single", "sequential",
                                              "extragradient", "armijo")],
    *[("csep3_mixed_3d", name) for name in ("parallel", "maxsel", "sequential")],
])
def test_the_checks_against_a_known_solution_only_observe(problem, name):
    instance = load_problem(str(PROBLEM_DIR / f"{problem}.json"))
    known = reference_solution(instance)
    plain = run_solver(name, instance)
    checked = run_solver(name, instance, known_point=known)
    assert checked.final_x.tobytes() == plain.final_x.tobytes()
    assert (checked.iterations, checked.stop_reason) == (plain.iterations, plain.stop_reason)
    assert checked.counters == plain.counters
    for a, b in zip(checked.trace, plain.trace, strict=True):
        assert [repr(getattr(a, f)) for f in OBSERVED] == [repr(getattr(b, f)) for f in OBSERVED]
        assert math.isfinite(a.dist_to_known) and math.isnan(b.dist_to_known)
