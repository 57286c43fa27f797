"""Bifunction models for equilibrium problems and problem-instance assembly.

An equilibrium problem over a feasible set C asks for x* in C with
f(x*, y) >= 0 for every y in C; a system shares C across several
bifunctions and seeks a common solution.  Bifunctions here are convex and
subdifferentiable in the second argument and carry Lipschitz-type
constants (c1, c2) satisfying

    f(x, y) + f(y, z) >= f(x, z) - c1*||x - y||^2 - c2*||y - z||^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ParameterViolation, UnknownConstants
from .geometry import Box, FeasibleSet, as_point

FD_STEP = 1e-5  # central-difference step of validate's subgradient check


def spectral_norm_estimate(M: np.ndarray) -> float:
    """Largest singular value of ``M``: LAPACK's 2-norm, exact to rounding."""
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class LipschitzData:
    """Lipschitz-type constants (c1, c2); both nonnegative and finite, not
    both zero."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (0.0 <= self.c1 < math.inf and 0.0 <= self.c2 < math.inf):
            raise ValueError("Lipschitz-type constants must be nonnegative and finite")
        if not self.c1 + self.c2 > 0.0:
            raise ValueError("c1 + c2 must be positive for the step bound to exist")

    @classmethod
    def largest(cls, data: list[LipschitzData]) -> LipschitzData:
        """(max c1, max c2) over ``data``: constants valid for all of them."""
        return cls(max(d.c1 for d in data), max(d.c2 for d in data))


@dataclass
class AffineOperator:
    """Operator x -> M x + q with Lipschitz constant ``lipschitz_L``.

    When the constant is omitted it defaults to the spectral norm of M
    (1.0 for the zero map, which is 0-Lipschitz).
    """

    M: np.ndarray
    q: np.ndarray
    lipschitz_L: float | None = None

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.q = as_point(self.q)
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1]:
            raise DimensionMismatch("operator matrix must be square")
        if self.M.shape[0] != self.q.size:
            raise DimensionMismatch("operator matrix and shift dimension differ")
        if self.lipschitz_L is None:
            est = spectral_norm_estimate(self.M)
            self.lipschitz_L = est if est != 0.0 else 1.0  # NaN stays and raises
        self.lipschitz_L = float(self.lipschitz_L)
        if not 0.0 < self.lipschitz_L < math.inf:
            raise ValueError("operator Lipschitz constant must be positive and finite")

    @property
    def dimension(self) -> int:
        return self.q.size

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.M @ x + self.q


@dataclass
class CallableOperator:
    """Black-box operator with a user-declared Lipschitz constant."""

    fn: object
    lipschitz_L: float
    dimension: int

    def __post_init__(self):
        self.lipschitz_L = float(self.lipschitz_L)
        if not self.lipschitz_L > 0.0:
            raise ValueError("operator Lipschitz constant must be positive")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return as_point(self.fn(x), self.dimension)


class Bifunction:
    """Base bifunction f(x, y); convex and subdifferentiable in y."""

    lipschitz: LipschitzData | None = None

    @property
    def dimension(self) -> int | None:
        """Ambient dimension when intrinsic to the data, else None."""
        return None

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def value_batch(self, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """f(x, y) for each row y of ``Y``; loop fallback."""
        return np.array([self.value(x, y) for y in Y])

    def subgrad2(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """An element of the subdifferential of f(x, .) at y."""
        raise NotImplementedError

    def lipschitz_data(self) -> LipschitzData:
        """Stored constants, or the family default."""
        if self.lipschitz is not None:
            return self.lipschitz
        return default_lipschitz(self)


@dataclass
class ViInducedBifunction(Bifunction):
    """f(x, y) = <A(x), y - x> for an operator A (variational inequality form)."""

    operator: AffineOperator | CallableOperator
    lipschitz: LipschitzData | None = None

    @property
    def dimension(self) -> int | None:
        return getattr(self.operator, "dimension", None)

    def value(self, x, y):
        return float(self.operator(x) @ (y - x))

    def value_batch(self, x, Y):
        return (Y - x) @ self.operator(x)

    def subgrad2(self, x, y):
        return self.operator(x)


@dataclass
class AffineQuadraticBifunction(Bifunction):
    """f(x, y) = <P x + Q y + q, y - x>; convex in y when Q + Q^T is PSD.

    ``diagonal`` is the diagonal of Q when Q is diagonal, else None.
    """

    P: np.ndarray
    Q: np.ndarray
    q: np.ndarray
    lipschitz: LipschitzData | None = None
    diagonal: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        self.q = as_point(self.q)
        d = self.q.size
        if self.P.shape != (d, d) or self.Q.shape != (d, d):
            raise DimensionMismatch("P, Q must be d-by-d matching q")
        diag = np.diagonal(self.Q)
        self.diagonal = diag if np.count_nonzero(self.Q - np.diag(diag)) == 0 else None

    @property
    def dimension(self) -> int | None:
        return self.q.size

    def value(self, x, y):
        return float((self.P @ x + self.Q @ y + self.q) @ (y - x))

    def value_batch(self, x, Y):
        rows = Y @ self.Q.T + (self.P @ x + self.q)
        return np.einsum("ij,ij->i", rows, Y - x)

    def subgrad2(self, x, y):
        return self.Q.T @ (y - x) + self.P @ x + self.Q @ y + self.q

    @cached_property
    def _cross_norm(self) -> float:
        """Spectral norm of P - Q^T, twice the default c1 = c2."""
        return spectral_norm_estimate(self.P - self.Q.T)


@dataclass
class BlackBoxBifunction(Bifunction):
    """User-supplied bifunction with a subgradient oracle for f(x, .)."""

    fn: object
    subgrad2_fn: object
    lipschitz: LipschitzData | None = None

    def value(self, x, y):
        return float(self.fn(x, y))

    def subgrad2(self, x, y):
        return as_point(self.subgrad2_fn(x, y), x.size)


def default_lipschitz(f: Bifunction) -> LipschitzData:
    """Family-default Lipschitz-type constants.

    Operator-induced bifunctions get c1 = c2 = L/2; affine-quadratic ones get
    c1 = c2 = ||P - Q^T||/2 (spectral norm, computed once).  Both
    follow from bounding <(.)(x-y), z-y> via Young's inequality.
    """
    if isinstance(f, ViInducedBifunction):
        half = 0.5 * f.operator.lipschitz_L
        return LipschitzData(half, half)
    if isinstance(f, AffineQuadraticBifunction):
        half = 0.5 * f._cross_norm
        if half <= 0.0:
            raise UnknownConstants(
                "derived constants are c1 = c2 = 0 (P equals Q^T); supply "
                "positive constants explicitly"
            )
        return LipschitzData(half, half)
    raise UnknownConstants(
        "no default constants for black-box bifunctions; supply c1, c2"
    )


class SingletonSolution(Box):
    """The one-point set {point}: the box whose bounds are both ``point``,
    so that its projection returns the bytes of ``point``."""

    def __init__(self, point):
        super().__init__(point, point)

    @property
    def point(self) -> np.ndarray:
        return self.lower


@dataclass
class CsepInstance:
    """A system of equilibrium problems over one feasible set.

    ``known_solution`` optionally gives the solution set as a feasible set,
    so that reference projections and per-iteration checks are exact.
    """

    dimension: int
    set: FeasibleSet
    bifunctions: list[Bifunction]
    x0: np.ndarray
    known_solution: FeasibleSet | None = None

    def __post_init__(self):
        self.x0 = as_point(self.x0, self.dimension)
        if self.set.dimension != self.dimension:
            raise DimensionMismatch("feasible set dimension differs from instance")
        if (self.known_solution is not None
                and self.known_solution.dimension != self.dimension):
            raise DimensionMismatch("known solution dimension differs from instance")
        if not self.bifunctions:
            raise ValueError("instance needs at least one bifunction")
        for i, f in enumerate(self.bifunctions):
            d = f.dimension
            if d is not None and d != self.dimension:
                raise DimensionMismatch(f"bifunction {i} has dimension {d}")

    @property
    def n_problems(self) -> int:
        return len(self.bifunctions)

    def lipschitz_all(self) -> list[LipschitzData]:
        return [f.lipschitz_data() for f in self.bifunctions]

    def lipschitz_max(self) -> tuple[float, float]:
        """(max c1, max c2) over the instance's bifunctions."""
        largest = LipschitzData.largest(self.lipschitz_all())
        return largest.c1, largest.c2

    def reference_point(self) -> np.ndarray | None:
        """Projection of x0 onto the known solution set, when described."""
        if self.known_solution is None:
            return None
        return self.known_solution.project(self.x0)


def finite_difference_grad2(f: Bifunction, x, y) -> np.ndarray:
    """Central finite differences of y -> f(x, y), with step ``FD_STEP``."""
    y = np.asarray(y, dtype=float)
    g = np.zeros_like(y)
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = FD_STEP
        g[j] = (f.value(x, y + e) - f.value(x, y - e)) / (2.0 * FD_STEP)
    return g


@dataclass
class BifunctionReport:
    """Sampled diagnostics for one bifunction."""

    index: int
    max_diag_abs: float
    convexity_violations: int
    pseudomono_violations: int
    subgrad_max_err: float
    warnings: list[str]

    @property
    def violation_count(self) -> int:
        count = self.convexity_violations + self.pseudomono_violations
        if self.max_diag_abs > 1e-10:
            count += 1
        return count


@dataclass
class ValidationReport:
    """Report-only output of ``validate``."""

    samples: int
    seed: int
    bifunctions: list[BifunctionReport]

    @property
    def total_violations(self) -> int:
        return sum(r.violation_count for r in self.bifunctions)

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "total_violations": self.total_violations,
            "bifunctions": [asdict(r) for r in self.bifunctions],
        }


def validate(instance: CsepInstance, samples: int, seed: int = 0) -> ValidationReport:
    """Spot-check the standing assumptions on sampled points of C.

    Per bifunction: max |f(x, x)| over sampled x; midpoint-convexity
    violations of f(x, .); pseudomonotonicity violations (f(x, y) >= 0 yet
    f(y, x) > 1e-10); subgradient-vs-finite-difference discrepancy for the
    smooth families.  Weak continuity is not machine-checkable and only
    norm-continuity is exercised implicitly by the sampling.  Report-only:
    only ``samples`` < 1 (ValueError) or ``seed`` < 0 (ParameterViolation)
    raises, before any sampling.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ParameterViolation(f"seed={seed} must be >= 0")
    rng = np.random.default_rng(seed)
    xs = instance.set.sample(rng, samples)
    ys = instance.set.sample(rng, samples)
    zs = instance.set.sample(rng, samples)

    reports = []
    for i, f in enumerate(instance.bifunctions):
        warnings: list[str] = []
        max_diag = 0.0
        convexity = 0
        pseudomono = 0
        subgrad_err = 0.0
        smooth = isinstance(f, (ViInducedBifunction, AffineQuadraticBifunction))
        for x, y, z in zip(xs, ys, zs):
            max_diag = max(max_diag, abs(f.value(x, x)))
            mid = f.value(x, 0.5 * (y + z))
            if mid > 0.5 * (f.value(x, y) + f.value(x, z)) + 1e-10:
                convexity += 1
            if f.value(x, y) >= 0.0 and f.value(y, x) > 1e-10:
                pseudomono += 1
            if smooth:
                err = np.max(
                    np.abs(f.subgrad2(x, y) - finite_difference_grad2(f, x, y))
                )
                subgrad_err = max(subgrad_err, float(err))
        if isinstance(f, ViInducedBifunction) and isinstance(f.operator, AffineOperator):
            sigma = spectral_norm_estimate(f.operator.M)
            if f.operator.lipschitz_L < sigma - 1e-9 * max(1.0, sigma):
                warnings.append(
                    f"declared operator constant {f.operator.lipschitz_L!r} is below "
                    f"the spectral norm {sigma!r}"
                )
        reports.append(
            BifunctionReport(
                index=i,
                max_diag_abs=max_diag,
                convexity_violations=convexity,
                pseudomono_violations=pseudomono,
                subgrad_max_err=subgrad_err if smooth else float("nan"),
                warnings=warnings,
            )
        )
    return ValidationReport(samples=samples, seed=seed, bifunctions=reports)
