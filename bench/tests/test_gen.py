"""Tests of the benchmark's synthetic problem generator.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
from csepsolve import harness, problems  # noqa: E402

FAMILIES = [("vi_system", 6, 3), ("aq_system", 5, 2)]


@pytest.mark.parametrize("family,d,n", FAMILIES)
def test_same_seed_gives_identical_files(tmp_path, family, d, n):
    make = getattr(gen, family)
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    gen.write(str(a), make((7, 0), d, n))
    gen.write(str(b), make((7, 0), d, n))
    gen.write(str(c), make((7, 1), d, n))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def _operator_at(f, x):
    """The map whose zero makes x an equilibrium of f over any set around x."""
    if isinstance(f, problems.ViInducedBifunction):
        return f.operator(x)
    return (f.P + f.Q) @ x + f.q


@pytest.mark.parametrize("family,d,n", FAMILIES + [("vi_system", 100, 16)])
def test_planted_point_zeroes_every_operator(tmp_path, family, d, n):
    path = tmp_path / "p.json"
    gen.write(str(path), getattr(gen, family)((3, 0), d, n))
    instance = harness.load_problem(str(path))
    x_star = instance.known_solution.point
    assert instance.n_problems == n
    assert instance.set.contains(x_star) and instance.set.contains(instance.x0)
    assert np.array_equal(harness.reference_solution(instance), x_star)
    for f in instance.bifunctions:
        assert np.max(np.abs(_operator_at(f, x_star))) <= 1e-12


@pytest.mark.parametrize("family,d,n", FAMILIES)
@pytest.mark.parametrize("seed", [0, 1])
def test_validate_reports_no_violations(tmp_path, family, d, n, seed):
    path = tmp_path / "p.json"
    gen.write(str(path), getattr(gen, family)((seed, 0), d, n))
    report = problems.validate(harness.load_problem(str(path)), samples=40, seed=seed)
    assert report.total_violations == 0


def test_affine_quadratic_takes_the_projected_gradient_route(tmp_path):
    path = tmp_path / "p.json"
    gen.write(str(path), gen.aq_system((0, 0), 5, 1))
    f = harness.load_problem(str(path)).bifunctions[0]
    assert np.count_nonzero(f.Q - np.diag(np.diagonal(f.Q))) > 0
    assert np.linalg.eigvalsh(f.Q).min() >= -1e-12
