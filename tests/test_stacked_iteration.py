"""An iteration's subproblems as arrays: the cuts ``drive`` builds from the
points of a step, the projection of a stack, the containment check over
it, and the prox record.

Each is held bit for bit to the per-row form it replaces: ``build_c_cut``
for every point and ``build_q_cut``, the same projection of a list of
``HalfspaceCut``s, one ``violation`` per cut, and the counters that
per-row one-off solves gave.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import csepsolve.prox as prox_module  # noqa: E402
from csepsolve import (  # noqa: E402
    AffineOperator,
    Box,
    CsepInstance,
    HybridParams,
    SingletonSolution,
    ViInducedBifunction,
    run_parallel_hybrid,
)
from csepsolve.errors import DegenerateCut, EmptyIntersection  # noqa: E402
from csepsolve.geometry import (  # noqa: E402
    DEGENERACY_THRESHOLD,
    CutStack,
    HalfspaceCut,
    WholeSpace,
    project_halfspace_intersection,
)
from csepsolve.hybrid import (  # noqa: E402
    _parallel_step,
    build_c_cut,
    build_cuts,
    build_q_cut,
    run_maxsel_hybrid,
    run_sequential,
)
from csepsolve.problems import AffineQuadraticBifunction, CallableOperator  # noqa: E402
from csepsolve.prox import (  # noqa: E402
    ProxRecord,
    ProxSystem,
    certify_prox,
    probe_rng,
    solve_prox,
)
from oracles import c_cut_by_constructor, epsilon, q_cut_by_constructor, q_of  # noqa: E402


def outcome_of(build):
    """(value, None) from ``build()``, or (None, (type, message)) if it raised."""
    try:
        return build(), None
    except (ValueError, DegenerateCut) as exc:
        return None, (type(exc), str(exc))


def assert_same_cut(a, b):
    assert a.normal.tobytes() == b.normal.tobytes()
    assert repr(a.offset) == repr(b.offset)
    assert repr(a.norm_sq) == repr(b.norm_sq)
    assert a.is_whole_space is b.is_whole_space


stacks = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(1, 8),
    "k": st.integers(0, 8),
    # per row: 0 generic, 1 y == x, 2 y within 1e-15 of x, 3 y == x with a
    # contradictory eps, 4 non-finite eps, 5 ||x - y|| in [5e-15, 1e-14),
    # where 2(x - y) is just longer than DEGENERACY_THRESHOLD
    "kinds": st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5]), min_size=8, max_size=8),
    # the anchor x0: 0 generic, 1 x0 == x (Q_n is the whole space), 2 so far
    # from x that <x0 - x, x> may overflow
    "anchor": st.sampled_from([0, 0, 1, 2]),
    "shared_eps": st.booleans(),
    "log_scale": st.floats(-3.0, 3.0),
})


def stack_data(params):
    """x, the (k, d) points Y, x0, eps (a float when shared) and the eps of
    each row, drawn as ``stacks`` describes."""
    rng = np.random.default_rng(params["seed"])
    d, k = params["d"], params["k"]
    x = rng.standard_normal(d) * 10.0 ** params["log_scale"]
    Y = x + rng.standard_normal((k, d)) * 10.0 ** params["log_scale"]
    x0 = {0: x + rng.standard_normal(d), 1: x.copy(),
          2: x + np.sign(x) * 1e307}[params["anchor"]]
    eps = rng.standard_normal(k)
    for i, kind in enumerate(params["kinds"][:k]):
        if kind in (1, 3):
            Y[i] = x
        elif kind == 2:
            Y[i] = x + 1e-15 * rng.standard_normal(d) / math.sqrt(d)
        elif kind == 5:
            u = rng.standard_normal(d)
            Y[i] = x + rng.uniform(5.5e-15, 9.5e-15) * u / np.linalg.norm(u)
        if kind == 3:
            eps[i] = -1.0
        elif kind == 4:
            eps[i] = rng.choice([np.inf, -np.inf, np.nan])
    if params["shared_eps"]:  # one float for every row, as maxsel and the baselines give
        eps = float(eps[0]) if k else 0.0
        return x, Y, x0, eps, [eps] * k
    return x, Y, x0, eps, [float(e) for e in eps]


def constructor_stack(x, Y, eps, x0):
    """``CutStack(normals, offsets)`` of the C-rows 2(x - y),
    <x + y, x - y> + eps and the Q row x0 - x, <x0 - x, x>, each row
    computed on its own."""
    diff = x - Y
    normals = np.array([2.0 * r for r in diff] + [x0 - x])
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = np.array([float((x + y) @ r) for y, r in zip(Y, diff)]
                           + [float((x0 - x) @ x)])
        offsets[:len(Y)] += eps
    return CutStack(normals, offsets)


@settings(max_examples=400, deadline=None)
@given(stacks)
@example({"seed": 0, "d": 2, "k": 0, "kinds": [0] * 8, "anchor": 0, "shared_eps": False,
          "log_scale": 0.0})
@example({"seed": 1, "d": 3, "k": 1, "kinds": [3] + [0] * 7, "anchor": 1, "shared_eps": True,
          "log_scale": 0.0})
@example({"seed": 2, "d": 3, "k": 4, "kinds": [1, 4, 3, 0] + [0] * 4, "anchor": 2,
          "shared_eps": False, "log_scale": 2.0})
@example({"seed": 6, "d": 3, "k": 3, "kinds": [5, 1, 5] + [0] * 5, "anchor": 0,
          "shared_eps": False, "log_scale": 0.0})
def test_build_cuts_equals_build_c_cut_row_by_row_then_build_q_cut(params):
    # With no error the rows are the cuts built one by one; an error is
    # that of building them in row order at k <= 1, and that of the
    # validating constructor at k >= 2.
    x, Y, x0, eps, row_eps = stack_data(params)
    k = len(Y)
    stack, stack_error = outcome_of(lambda: build_cuts(x, Y, eps, *q_of(x0, x)))
    rows, row_error = outcome_of(lambda: [build_c_cut(x, Y[i], row_eps[i]) for i in range(k)]
                                 + [build_q_cut(*q_of(x0, x), x)])
    if k <= 1:
        assert stack_error == row_error
    else:
        assert stack_error == outcome_of(lambda: constructor_stack(x, Y, eps, x0))[1]
    assert (stack_error is None) == (row_error is None)
    if row_error is None:
        assert len(stack) == k + 1
        for i in range(k + 1):
            assert_same_cut(stack[i], rows[i])
        assert_same_cut(stack[-1], rows[-1])  # drive reads Q_n as cuts[-1]
        assert stack.live == [i for i, c in enumerate(rows) if not c.is_whole_space]
        # zero or one point: the cuts themselves, the other form validated once
        assert (stack[0] is stack[0]) == (k <= 1)


@settings(max_examples=300, deadline=None)
@given(stacks.filter(lambda params: params["k"] >= 2))
@example({"seed": 2, "d": 3, "k": 4, "kinds": [1, 4, 3, 0] + [0] * 4, "anchor": 2,
          "shared_eps": False, "log_scale": 2.0})
@example({"seed": 5, "d": 2, "k": 3, "kinds": [1, 2, 0] + [0] * 5, "anchor": 1,
          "shared_eps": True, "log_scale": 0.0})
@example({"seed": 6, "d": 3, "k": 3, "kinds": [5, 1, 5] + [0] * 5, "anchor": 0,
          "shared_eps": False, "log_scale": 0.0})
def test_build_cuts_carries_the_arrays_that_the_validating_constructor_computes(params):
    # Every row keeps its normal, however short: a row in the band
    # 5e-15 <= ||x_n - y|| < 1e-14 is live, with normal 2(x_n - y).
    x, Y, x0, eps, _ = stack_data(params)
    stack, error = outcome_of(lambda: build_cuts(x, Y, eps, *q_of(x0, x)))
    expected, expected_error = outcome_of(lambda: constructor_stack(x, Y, eps, x0))
    assert error == expected_error
    if error is None:
        for got, want in zip(stack._arrays, expected._arrays):
            assert got.tobytes() == want.tobytes()
        assert stack.live == expected.live
        for i, kind in enumerate(params["kinds"][:len(Y)]):
            if kind == 5 and 5e-15 <= np.linalg.norm(x - Y[i]) < DEGENERACY_THRESHOLD:
                assert i in stack.live


one_dot_cuts = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(1, 8),
    "log_scale": st.floats(-3.0, 3.0),
    # y: 0 generic, 1 y == x_n, 2 y about 1e-14 from x_n (either side of
    # the whole-space bound 5e-15), 3 y == x_n with a contradictory eps, 4
    # non-finite eps, 5 x_n and y so large that the squares, 2(x_n - y) or
    # x_n + y overflow
    "point": st.sampled_from([0, 0, 1, 2, 3, 4, 5]),
    # x0: 0 generic, 1 x0 == x_n (Q_n is the whole space), 2 about 1e-14
    # from x_n, 3 so far from x_n that <x0 - x_n, x_n> or <q, q> overflow
    "anchor": st.sampled_from([0, 0, 1, 2, 3]),
})


@settings(max_examples=400, deadline=None)
@given(one_dot_cuts)
@example({"seed": 3, "d": 2, "log_scale": 0.0, "point": 5, "anchor": 3})
@example({"seed": 4, "d": 3, "log_scale": 0.0, "point": 2, "anchor": 2})
def test_one_dot_cuts_equal_the_constructor_built_cuts(params):
    rng = np.random.default_rng(params["seed"])
    d, point, anchor = params["d"], params["point"], params["anchor"]
    x = rng.standard_normal(d) * 10.0 ** params["log_scale"]
    y = x + rng.standard_normal(d) * 10.0 ** params["log_scale"]
    eps = float(rng.standard_normal())
    tiny = lambda: rng.uniform(0.25, 4.0) * 1e-14 * rng.standard_normal(d) / math.sqrt(d)
    if point in (1, 3):
        y = x.copy()
    elif point == 2:
        y = x + tiny()
    elif point == 5:
        x = np.sign(x) * 10.0 ** rng.uniform(153.0, 308.0, d)
        y = -x * rng.uniform(0.0, 1.5, d)
    if point == 3:
        eps = -1.0
    elif point == 4:
        eps = float(rng.choice([np.inf, -np.inf, np.nan]))
    x0 = {0: x + rng.standard_normal(d), 1: x.copy(), 2: x + tiny(),
          3: x + np.sign(x) * 10.0 ** rng.uniform(153.0, 308.0, d)}[anchor]

    reference, reference_error = outcome_of(lambda: c_cut_by_constructor(x, y, eps))
    cut, error = outcome_of(lambda: build_c_cut(x, y, eps))
    assert error == reference_error
    if error is None:
        assert_same_cut(cut, reference)
    reference_q, reference_q_error = outcome_of(lambda: q_cut_by_constructor(x0, x))
    cut, error = outcome_of(lambda: build_q_cut(*q_of(x0, x), x))
    assert error == reference_q_error
    if error is None:
        assert_same_cut(cut, reference_q)
    # Q_n is built after the C-cut
    stack, error = outcome_of(lambda: build_cuts(x, y[None], eps, *q_of(x0, x)))
    assert error == (reference_error or reference_q_error)
    if error is None:
        assert_same_cut(stack[0], reference)
        assert_same_cut(stack[1], reference_q)


def test_degenerate_and_contradictory_rows():
    x = np.array([0.5, -0.25])
    Y = np.array([[0.0, 0.0], x + [1e-15, 0.0], [1.0, 1.0]])
    stack = build_cuts(x, Y, np.array([0.0, 0.5, 0.1]), *q_of(x, x))
    assert [c.is_whole_space for c in stack] == [False, True, False, True]
    # the whole-space row keeps its normal, shorter than DEGENERACY_THRESHOLD
    assert stack[1].normal.tobytes() == (2.0 * (x - Y[1])).tobytes()
    assert 0.0 < np.linalg.norm(stack[1].normal) < DEGENERACY_THRESHOLD
    assert stack.live == [0, 2]
    assert build_cuts(x, Y, 0.5, *q_of(np.zeros(2), x)).live == [0, 2, 3]
    empty = r"offset -1 denotes the empty set"
    with pytest.raises(DegenerateCut, match=empty):
        build_cuts(x, Y, np.array([0.0, -1.0, 0.1]), *q_of(x, x))
    with pytest.raises(DegenerateCut, match=empty):
        build_cuts(x, Y[1:2], -1.0, *q_of(x, x))
    with pytest.raises(ValueError, match="non-finite"):
        build_cuts(x, Y, np.array([np.nan, -1.0, 0.1]), *q_of(x, x))
    # k >= 2: non-finite data raise before a contradictory row, as in
    # CutStack(normals, offsets); k <= 1: the rows raise in row order
    with pytest.raises(ValueError, match="non-finite"):
        build_cuts(x, Y, np.array([0.0, -1.0, np.inf]), *q_of(x, x))
    far = np.array([np.inf, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        build_cuts(x, Y[:2], np.array([0.0, -1.0]), *q_of(far, x))
    with pytest.raises(DegenerateCut, match=empty):
        build_cuts(x, Y[1:2], -1.0, *q_of(far, x))


def test_a_stack_from_arrays_validates_once_as_each_cut_would():
    normals = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
    offsets = np.array([0.5, 0.0, -2.0])
    stack = CutStack(normals, offsets)
    for i, (a, b) in enumerate(zip(normals, offsets)):
        assert_same_cut(stack[i], HalfspaceCut(a, b))
    assert [c.is_whole_space for c in stack] == [False, True, False]
    with pytest.raises(DegenerateCut):
        CutStack(normals, np.array([0.5, -1.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        CutStack(normals, np.array([0.5, 0.0, np.inf]))
    with pytest.raises(ValueError, match="non-finite"):
        CutStack(np.array([[1e200, 1e200], [np.nan, 0.0]]), np.zeros(2))
    # finite rows whose squares overflow pass, as in HalfspaceCut
    stack = CutStack(np.array([[1e200, 1e200]]), np.zeros(1))
    assert_same_cut(stack[0], HalfspaceCut([1e200, 1e200], 0.0))
    assert not stack[0].is_whole_space
    # a whole-space row with an offset just below 0 is never violated nor outside
    offsets = np.array([0.5, -1e-13, -2.0])
    z = np.zeros(2)
    for stack in (CutStack(normals, offsets),
                  CutStack.of([HalfspaceCut(a, b) for a, b in zip(normals, offsets)])):
        assert stack.live == [0, 2]
        assert stack.audit(z, 0.0, z, 0.0)[1] == 1
        assert stack.audit(z, 0.0, None, 0.0)[0] == 1


systems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(1, 6),
    "m": st.integers(0, 10),
    "whole": st.integers(0, 3),
})


@settings(max_examples=200, deadline=None)
@given(systems)
def test_a_stack_projects_and_counts_as_its_list_of_cuts(params):
    rng = np.random.default_rng(params["seed"])
    d, m = params["d"], params["m"]
    p = rng.standard_normal(d)
    normals = rng.standard_normal((m, d))
    normals[rng.permutation(m)[:params["whole"]]] = 0.0
    offsets = normals @ p + rng.exponential(1.0, m)
    cuts = [HalfspaceCut(a, b) for a, b in zip(normals, offsets)]
    x0 = p + 3.0 * rng.standard_normal(d)
    z = rng.standard_normal(d)
    h = m // 2
    first, second = cuts[:h], list(CutStack(normals[h:], offsets[h:]))
    for stack, listed in ((CutStack(normals, offsets), cuts), (CutStack.of(cuts), cuts),
                          (CutStack.of([*first, *second]), cuts),
                          (CutStack.of([*second, *first]), cuts[h:] + cuts[:h])):
        assert project_halfspace_intersection(stack, x0).tobytes() == (
            project_halfspace_intersection(listed, x0).tobytes())
        for slack in (1e-8, 0.0, -1.0):
            assert stack.audit(z, 0.0, z, slack)[1] == sum(c.violation(z) > slack
                                                           for c in listed)
        for tol in (1e-10, 0.0, 1.0):
            assert stack.audit(z, tol, None, 0.0)[0] == sum(
                c.violation(z) > tol * math.sqrt(c.norm_sq) for c in listed)
        assert stack.live == [i for i, c in enumerate(listed) if not c.is_whole_space]
        for i, c in enumerate(listed):
            assert_same_cut(stack[i], c)
    # ``of`` keeps at most two cuts as themselves and stacks more into arrays
    stack = CutStack.of(cuts)
    assert all(stack[i] is c for i, c in enumerate(cuts)) == (m <= 2)


def test_an_empty_stack_intersection_raises():
    stack = CutStack(np.array([[1.0], [-1.0], [2.0]]), np.array([-1.0, -2.0, 0.0]))
    with pytest.raises(EmptyIntersection):
        project_halfspace_intersection(stack, np.zeros(1))


def affine_vi(M, q):
    return ViInducedBifunction(AffineOperator(np.asarray(M, float), np.asarray(q, float)))


def test_the_containment_check_counts_the_one_cut_that_excludes_the_known_point():
    # On R^2 from x0 = 0 with A_i(y) = y + q_i, iteration 1 solves
    # y_i = -lam q_i and cuts with <y_i, z> >= (||y_i||^2 - eps_i) / 2; the
    # Q-cut is the whole space.  p = (1, 1) lies in the cuts of y_0 = (lam, 0)
    # and y_1 = (0, lam) and outside that of y_2 = (0, 10 lam).
    fs = [affine_vi(np.eye(2), q) for q in ([-1.0, 0.0], [0.0, -1.0], [0.0, -10.0])]
    inst = CsepInstance(2, WholeSpace(2), fs, [0.0, 0.0])
    p = np.array([1.0, 1.0])
    out = run_parallel_hybrid(inst, HybridParams(lam=0.2, k=6.0, tol=0.0, max_outer=1),
                              known_point=p)
    assert out.iterations == 1
    assert out.invariant_violations["cut_containment"] == 1
    params = HybridParams(lam=0.2, k=6.0)
    x0 = np.zeros(2)
    Y, _ = ProxSystem(fs, params.lam, inst.set).solve(np.zeros((3, 2)), x0, 1)
    cuts = [build_c_cut(x0, y, epsilon(params, f.lipschitz_data(), 0.0, 0.0, float(y @ y)))
            for f, y in zip(fs, Y)]
    assert [c.violation(p) > 1e-8 for c in cuts] == [False, False, True]
    assert build_q_cut(*q_of(x0, x0), x0).is_whole_space


def test_parallel_eps_are_epsilon_row_by_row():
    rng = np.random.default_rng(5)
    fs = [affine_vi(np.diag(rng.uniform(0.5, 3.0, 3)), rng.standard_normal(3))
          for _ in range(4)]
    lips = [f.lipschitz_data() for f in fs]
    assert len({lip.c2 for lip in lips}) == 4
    params = HybridParams(lam=0.05, k=6.0)
    system = ProxSystem(fs, params.lam, Box(-np.ones(3), np.ones(3)))
    step = _parallel_step(params, lips, np.zeros(3), system)
    y_cur, dy_prev, x = np.zeros((4, 3)), [0.0] * 4, np.full(3, 0.4)
    for n, dx2 in ((1, 0.0), (2, 0.3), (3, 0.01)):
        out = step(n, x, dx2)
        dy = [float((a - b) @ (a - b)) for a, b in zip(out.near, y_cur)]
        expected = [epsilon(params, lip, dx2, p, q) for lip, p, q in zip(lips, dy_prev, dy)]
        assert [repr(e) for e in out.eps.tolist()] == [repr(e) for e in expected]
        y_cur, dy_prev = out.near, dy


def one_off_solve(system, i, w, x, n):
    """Subproblem i of ``system`` at outer iteration n as the one-off
    ``solve_prox``, certified by ``certify_prox`` with the probes
    ``ProxSystem`` gives it: the minimizer, the record of the solve and the
    certificate gap (NaN when certification is off)."""
    f, lam, set_, probes = system.fs[i], system.lam, system.set_, system.certify_probes
    Y, record = solve_prox(f, w, x, lam, set_)
    gap = math.nan
    if probes > 0:
        gap = certify_prox(f, w, x, lam, set_, Y[0], probes,
                           probe_rng(probes, system.seed, n, i))
    return Y[0], record, gap


def per_row_solve(system, W, x, n):
    """``ProxSystem.solve`` as one ``solve_prox`` per subproblem, its record
    summed as ``drive`` once summed per-row results: every inner iteration,
    every unconverged row in order, and the least certificate gap not NaN."""
    results = [one_off_solve(system, i, W if W.ndim == 1 else W[i], x, n)
               for i in range(len(system.fs))]
    least = math.inf
    for _, _, gap in results:
        if not math.isnan(gap):
            least = min(least, gap)
    record = ProxRecord(len(results), sum(r.inner_iterations for _, r, _ in results),
                        tuple((i, r.nonconverged[0][1]) for i, (_, r, _) in enumerate(results)
                              if r.nonconverged), least)
    return np.array([y for y, _, _ in results]), record


def per_row_solve_row(system, i, w, x, n):
    """``ProxSystem.solve_row`` as ``solve_prox`` and the record that
    ``drive`` once summed from its result."""
    y, r, gap = one_off_solve(system, i, w, x, n)
    least = math.inf if math.isnan(gap) else gap
    return y[None], ProxRecord(1, r.inner_iterations,
                               ((i, r.nonconverged[0][1]),) if r.nonconverged else (), least)


def dense_aq(rng, d, scale, face=False):
    """A dense-Q subproblem; with ``face``, q_0 is so large that on a box
    its minimizer lies on the face y_0 = lower_0 and projected gradient
    takes more than a few steps from the clipped unconstrained minimizer."""
    C = rng.standard_normal((d, d)) / np.sqrt(d)
    Q = scale * (C @ C.T)
    B = rng.standard_normal((d, d)) / np.sqrt(d)
    q = rng.standard_normal(d)
    q[0] += 200.0 if face else 0.0
    return AffineQuadraticBifunction(Q + B @ B.T + 0.1 * np.eye(d), Q, q)


def diagonal_aq(rng, d):
    return AffineQuadraticBifunction(np.diag(rng.uniform(0.5, 2.0, d)),
                                     np.diag(rng.uniform(0.1, 1.0, d)), rng.standard_normal(d))


def record_systems():
    rng = np.random.default_rng(11)
    d = 4
    return {
        "affine_vi": [affine_vi(np.eye(d) + 0.3 * np.triu(rng.standard_normal((d, d)), 1)
                                - 0.3 * np.triu(rng.standard_normal((d, d)), 1).T,
                                rng.standard_normal(d)) for _ in range(3)],
        "coordinatewise": [diagonal_aq(rng, d) for _ in range(3)],
        "projected_gradient": [dense_aq(rng, d, s, face=s == 4.0) for s in (0.05, 1.0, 4.0)],
        "mixed": [dense_aq(rng, d, 1.0), diagonal_aq(rng, d), dense_aq(rng, d, 3.0, face=True)],
    }


@pytest.mark.parametrize("family", ["affine_vi", "coordinatewise", "projected_gradient",
                                    "mixed"])
@pytest.mark.parametrize("runner", [run_parallel_hybrid, run_maxsel_hybrid, run_sequential])
def test_the_prox_record_counts_as_per_row_results(monkeypatch, family, runner):
    fs = record_systems()[family]
    inst = CsepInstance(4, Box(-np.ones(4), np.ones(4)), fs, np.full(4, 0.6),
                        SingletonSolution(np.zeros(4)))
    params = HybridParams(lam=0.05, k=6.0, tol=0.0, max_outer=25)
    # few enough inner steps that the dense rows whose minimizer lies on a
    # face stop unconverged
    monkeypatch.setattr(prox_module, "MAX_INNER", 4)
    stacked = runner(inst, params, certify_probes=3, seed=2)
    monkeypatch.setattr(ProxSystem, "solve", per_row_solve)
    monkeypatch.setattr(ProxSystem, "solve_row", per_row_solve_row)
    rows = runner(inst, params, certify_probes=3, seed=2)
    assert stacked.iterations == rows.iterations == 25
    assert stacked.final_x.tobytes() == rows.final_x.tobytes()
    assert stacked.counters == rows.counters
    assert stacked.counters.prox_solves == (25 if runner is run_sequential else 75)
    assert stacked.first_nonconverged == rows.first_nonconverged
    assert repr(stacked.min_prox_certificate) == repr(rows.min_prox_certificate)
    assert not math.isnan(stacked.min_prox_certificate)
    if family in ("projected_gradient", "mixed"):
        assert stacked.counters.prox_nonconverged > 0
        assert stacked.first_nonconverged is not None
    else:
        assert stacked.first_nonconverged is None


def test_the_record_of_one_row_records_relabels_them_by_position():
    records = [ProxRecord(1, 3, (), 0.5), ProxRecord(1, 7, ((4, "stalled"),), math.inf),
               ProxRecord(1, 1, ((0, None),), -0.25), ProxRecord(1, 2, (), math.inf)]
    assert repr(ProxRecord.of(records)) == repr(
        ProxRecord(4, 13, ((1, "stalled"), (2, None)), -0.25))
    assert repr(ProxRecord.of([])) == repr(ProxRecord(0, 0, (), math.inf))
    assert ProxRecord.of(records[3:]) == records[3]


@pytest.mark.parametrize("runner, builds", [(run_parallel_hybrid, 0), (run_maxsel_hybrid, 0),
                                             (run_sequential, 3)])
def test_a_one_row_kernel_is_built_when_its_row_is_first_solved_alone(monkeypatch, runner,
                                                                        builds):
    # three affine VIs: parallel and maxsel build only the stacked kernel,
    # sequential only the one-row kernels of the rows it solves alone, each
    # once
    real, built = prox_module._kernel, []

    def counting(fs, lam, set_):
        built.append(len(fs))
        return real(fs, lam, set_)

    monkeypatch.setattr(prox_module, "_kernel", counting)
    ops = [AffineOperator(c * np.eye(2), np.zeros(2), lipschitz_L=c) for c in (1.0, 2.0, 0.5)]
    inst = CsepInstance(2, Box(-np.ones(2), np.ones(2)), [ViInducedBifunction(o) for o in ops],
                        [0.5, -0.7], SingletonSolution([0.0, 0.0]))
    out = runner(inst, HybridParams(lam=0.1, k=6.0, tol=0.0, max_outer=9))
    assert out.iterations == 9
    assert built == ([1] * builds if builds else [3])


@pytest.mark.parametrize("certify_probes", [0, 2])
@pytest.mark.parametrize("shared_anchor", [False, True])
def test_a_mixed_system_solves_as_its_rows(monkeypatch, certify_probes, shared_anchor):
    # no stacked family holds all three, so solve goes row by row; with
    # MAX_INNER = 4 the dense rows, whose minimizers lie on a face, stop
    # unconverged
    rng = np.random.default_rng(8)
    d = 4
    fs = [dense_aq(rng, d, 1.0, face=True), diagonal_aq(rng, d),
          ViInducedBifunction(CallableOperator(np.tanh, 1.0, d)),
          dense_aq(rng, d, 3.0, face=True)]
    monkeypatch.setattr(prox_module, "MAX_INNER", 4)
    system = ProxSystem(fs, 0.1, Box(-np.ones(d), np.ones(d)), certify_probes, seed=3)
    W = rng.uniform(-1, 1, d if shared_anchor else (4, d))
    x = rng.uniform(-1, 1, d)
    Y, record = system.solve(W, x, 5)
    rows = [system.solve_row(i, W if shared_anchor else W[i], x, 5) for i in range(4)]
    assert Y.tobytes() == np.concatenate([Y_i for Y_i, _ in rows]).tobytes()
    assert repr(record) == repr(ProxRecord.of([r for _, r in rows]))
    diagnostic = "projected gradient hit 4 iterations"
    assert record.nonconverged == ((0, diagnostic), (3, diagnostic))
    assert [r.nonconverged for _, r in rows] == [((0, diagnostic),), (), (),
                                                 ((3, diagnostic),)]
    assert math.isinf(record.min_certificate) == (certify_probes == 0)
