import importlib.util
import pathlib

import numpy as np
import pytest

from csepsolve import (
    AffineOperator,
    Box,
    CsepInstance,
    SingletonSolution,
    ViInducedBifunction,
    register_blackbox,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEM_DIR = REPO_ROOT / "problems"

# the black-box bifunction f = 0, for problem files of the tests
register_blackbox("zero", lambda x, y: 0.0, lambda x, y: np.zeros_like(x))


def seeded_problem(tmp_path, family, seed, n=1):
    """``bench/gen.py``'s ``family(seed, 10, n)`` written to a file."""
    spec = importlib.util.spec_from_file_location("bench_gen", REPO_ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / f"{family}_{seed}_{n}.json"
    gen.write(str(path), getattr(gen, family)(seed, 10, n))
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def problem_dir():
    return PROBLEM_DIR


def scalar_1d_instance():
    """A(x) = x on [-1, 1], x0 = 1; unique solution 0."""
    op = AffineOperator([[1.0]], [0.0], lipschitz_L=1.0)
    return CsepInstance(
        1, Box([-1.0], [1.0]), [ViInducedBifunction(op)], [1.0],
        SingletonSolution([0.0]),
    )


def halfline_instance():
    """A(x) = (x1, 0) on [-1, 1]^2, x0 = (0.5, 0.3); solution set {0} x [-1, 1]."""
    op = AffineOperator([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], lipschitz_L=1.0)
    solution = Box([0.0, -1.0], [0.0, 1.0])  # coordinate 0 pinned to 0
    return CsepInstance(
        2, Box([-1.0, -1.0], [1.0, 1.0]), [ViInducedBifunction(op)],
        [0.5, 0.3], solution,
    )


def csep2_instance():
    """A1(x) = x, A2(x) = 2x on [-1, 1]^2; common zero at the origin."""
    ops = [
        AffineOperator(np.eye(2), np.zeros(2), lipschitz_L=1.0),
        AffineOperator(2.0 * np.eye(2), np.zeros(2), lipschitz_L=2.0),
    ]
    return CsepInstance(
        2, Box([-1.0, -1.0], [1.0, 1.0]),
        [ViInducedBifunction(o) for o in ops],
        [0.5, -0.7], SingletonSolution([0.0, 0.0]),
    )


def csep3_plane_instance():
    """Three VIs driving coordinate 1 at speeds (1, 2, 0.5) on [-1, 1]^3."""
    ops = [
        AffineOperator(np.diag([c, 0.0, 0.0]), np.zeros(3), lipschitz_L=c)
        for c in (1.0, 2.0, 0.5)
    ]
    solution = Box([0.0, -1.0, -1.0], [0.0, 1.0, 1.0])  # coordinate 0 pinned to 0
    return CsepInstance(
        3, Box(-np.ones(3), np.ones(3)),
        [ViInducedBifunction(o) for o in ops],
        [0.9, -0.7, 0.6], solution,
    )
