"""No outer iteration calls a Python function of the numpy package.

At small sizes an outer iteration is bound by dispatch, so the solvers
call numpy's C entry points (``geometry.count_nonzero``, ``c_einsum``,
``max_of``, ``all_of``, ``np.empty``, ufuncs and ndarray methods) and not
the Python wrappers around them (``np.count_nonzero``, ``np.einsum``,
``ndarray.max()``, ``ndarray.all()``, ``np.empty_like``, ...).  A profile
hook counts the calls into Python functions defined under numpy's package
directory from the start of iteration 2 until ``hybrid.drive`` returns;
iteration 1 may build the prox kernels.  A certified run seeds one probe
generator per inner solve (``prox.probe_rng``) and draws its probes on a
box by ``Generator.uniform`` (``Box.sample``); numpy's seeding and the
argument checks of ``uniform`` run Python code, so calls made for
``probe_rng`` and ``Box.sample`` are not counted.
"""

import collections
import json
import os
import sys

import numpy as np
import pytest

from csepsolve import hybrid, prox
from csepsolve.geometry import Box
from csepsolve.harness import RunSpec, run

from conftest import PROBLEM_DIR, seeded_problem
from oracles import certify_prox_reference

NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
HYBRIDS = ("parallel", "maxsel", "sequential")
BASELINES = ("extragradient", "armijo")


def numpy_calls_after_iteration_one(spec: RunSpec):
    """The run's outcome and the (file, function) of each call into a Python
    function of numpy made from the start of iteration 2 until ``drive``
    returns, with its count, leaving out those made for ``prox.probe_rng``
    and ``Box.sample``."""
    drive = hybrid.drive.__code__
    exempt = {prox.probe_rng.__code__, Box.sample.__code__}
    state = {"step": None, "iteration": 0}
    calls = collections.Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call":
            if code is drive:
                state["step"], state["iteration"] = frame.f_locals["step"].__code__, 0
            elif code is state["step"] and frame.f_back.f_code is drive:
                state["iteration"] += 1
            elif state["iteration"] >= 2 and code.co_filename.startswith(NUMPY_DIR):
                caller = frame.f_back
                while caller.f_code.co_filename.startswith(NUMPY_DIR):
                    caller = caller.f_back
                if caller.f_code not in exempt:
                    calls[(code.co_filename[len(NUMPY_DIR):], code.co_name)] += 1
        elif event == "return" and code is drive:
            state["iteration"] = 0

    sys.setprofile(profile)
    try:
        outcome = run(spec)
    finally:
        sys.setprofile(None)
    return outcome, calls


def on_set(tmp_path, name, set_doc):
    """Two affine VIs on R^2 over the set ``set_doc``, from x0 = (0.5, 0.3)."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "set": set_doc,
        "bifunctions": [
            {"type": "vi_affine", "M": [[1.0, 0.5], [-0.5, 1.0]], "q": [0.2, 0.0]},
            {"type": "vi_affine", "M": [[2.0, 0.0], [0.0, 1.0]], "q": [0.0, -0.1]},
        ],
        "x0": [0.5, 0.3],
    }))
    return str(path)


RUNS = [
    *[("vi_halfline_2d", a) for a in (*HYBRIDS, "single", *BASELINES)],
    *[("csep3_mixed_3d", a) for a in HYBRIDS],
    *[("vi_system", a) for a in HYBRIDS],
    *[("aq_system", a) for a in HYBRIDS],
    *[("aq_system_1", a) for a in ("single", *BASELINES)],
    *[(s, a) for s in ("ball", "polyhedron") for a in HYBRIDS],
]


def problem_path(tmp_path, name):
    if name in ("vi_system", "aq_system"):
        return seeded_problem(tmp_path, name, 7, 4)
    if name == "aq_system_1":
        return seeded_problem(tmp_path, "aq_system", 7)
    if name == "ball":
        return on_set(tmp_path, name, {"type": "ball", "center": [0.0, 0.0], "radius": 0.4})
    if name == "polyhedron":
        return on_set(tmp_path, name, {"type": "polyhedron", "cuts": [
            {"normal": [1.0, 0.0], "offset": 0.3}, {"normal": [0.0, 1.0], "offset": 0.3},
            {"normal": [-1.0, -1.0], "offset": 0.2}]})
    return str(PROBLEM_DIR / f"{name}.json")


@pytest.mark.parametrize("name, algorithm", RUNS)
def test_no_outer_iteration_calls_a_python_function_of_numpy(tmp_path, name, algorithm):
    spec = RunSpec(problem_path=problem_path(tmp_path, name), algorithm=algorithm,
                   tol=0.0, max_outer=12)
    outcome, calls = numpy_calls_after_iteration_one(spec)
    assert outcome.error is None
    assert outcome.iterations >= 3
    assert dict(calls) == {}


def test_the_count_sees_a_python_wrapper_of_numpy(monkeypatch):
    # np.count_nonzero runs Python in numpy's package; called from each
    # step, it is counted from iteration 2 on
    solve = hybrid.ProxSystem.solve

    def counting_solve(self, W, x, n):
        np.count_nonzero(W)
        return solve(self, W, x, n)

    monkeypatch.setattr(hybrid.ProxSystem, "solve", counting_solve)
    spec = RunSpec(problem_path=str(PROBLEM_DIR / "vi_halfline_2d.json"),
                   algorithm="maxsel", tol=0.0, max_outer=5)
    _, calls = numpy_calls_after_iteration_one(spec)
    assert sum(count for (_, name), count in calls.items() if name == "count_nonzero") == 4


@pytest.mark.parametrize("name, algorithm", [("vi_halfline_2d", "single"),
                                             ("aq_system", "maxsel")])
def test_a_certified_outer_iteration_calls_no_python_function_of_numpy(
        tmp_path, monkeypatch, name, algorithm):
    spec = RunSpec(problem_path=problem_path(tmp_path, name), algorithm=algorithm,
                   tol=0.0, max_outer=12, certify_probes=3)
    outcome, calls = numpy_calls_after_iteration_one(spec)
    assert outcome.error is None
    assert outcome.iterations >= 3
    assert dict(calls) == {}
    # the certificate the numpy wrappers computed, to the bit
    monkeypatch.setattr(prox, "certify_prox", certify_prox_reference)
    reference = run(spec)
    assert outcome.min_prox_certificate == reference.min_prox_certificate
    assert outcome.final_x.tobytes() == reference.final_x.tobytes()
