"""Points, feasible sets, halfspace cuts, and metric projections.

The ambient space is R^d with the standard dot product; points are 1-D
float64 arrays.  All routines here are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCut,
    DimensionMismatch,
    EmptyIntersection,
    InfeasibleSet,
    MaxInnerIterationsExceeded,
)

# A cut whose normal is shorter than this is treated as carrying no direction.
DEGENERACY_THRESHOLD = 1e-14
# Zero-normal cuts with offset >= this denote the whole space; below it they
# are contradictory and rejected.
WHOLE_SPACE_OFFSET_FLOOR = -1e-12


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 vector, optionally of dimension ``dim``."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D point, got array of shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


@dataclass
class HalfspaceCut:
    """The halfspace {z : <normal, z> <= offset}.

    A cut with a numerically zero normal stands for the whole space when the
    residual scalar inequality 0 <= offset holds (up to -1e-12); otherwise it
    denotes the empty set and is rejected at construction.
    """

    normal: np.ndarray
    offset: float
    is_whole_space: bool = field(init=False)

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=float)
        self.offset = float(self.offset)
        if self.normal.ndim != 1:
            raise DimensionMismatch("cut normal must be a 1-D vector")
        if not (np.all(np.isfinite(self.normal)) and np.isfinite(self.offset)):
            raise ValueError("cut has non-finite data")
        self.is_whole_space = float(np.linalg.norm(self.normal)) < DEGENERACY_THRESHOLD
        if self.is_whole_space and self.offset < WHOLE_SPACE_OFFSET_FLOOR:
            raise DegenerateCut(
                f"zero-normal cut with offset {self.offset:g} denotes the empty set"
            )

    @property
    def dimension(self) -> int:
        return self.normal.size

    def violation(self, z: np.ndarray) -> float:
        """Signed constraint value <normal, z> - offset (<= 0 means satisfied)."""
        if self.is_whole_space:
            return 0.0
        return float(self.normal @ z) - self.offset

    def satisfied(self, z: np.ndarray, tol: float = 0.0) -> bool:
        return self.violation(z) <= tol


class FeasibleSet:
    """Closed convex set with an exact metric projection."""

    dimension: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x: np.ndarray, tol: float = 1e-10) -> bool:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Random point(s) of the set; shape (d,) or (size, d)."""
        raise NotImplementedError


@dataclass
class Box(FeasibleSet):
    """Axis-aligned box {lower <= z <= upper} (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = as_point(self.lower)
        self.upper = as_point(self.upper, self.lower.size)
        if np.any(self.lower > self.upper):
            raise ValueError("box has lower > upper in some coordinate")

    @property
    def dimension(self) -> int:
        return self.lower.size

    def project(self, x):
        return np.clip(x, self.lower, self.upper)

    def contains(self, x, tol=1e-10):
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def sample(self, rng, size=None):
        shape = self.dimension if size is None else (size, self.dimension)
        return rng.uniform(self.lower, self.upper, size=shape)

    def as_halfspaces(self) -> list[HalfspaceCut]:
        """The 2d face inequalities of the box."""
        cuts = []
        d = self.dimension
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            cuts.append(HalfspaceCut(e, float(self.upper[j])))
            cuts.append(HalfspaceCut(-e, float(-self.lower[j])))
        return cuts


@dataclass
class Ball(FeasibleSet):
    """Euclidean ball {z : ||z - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_point(self.center)
        self.radius = float(self.radius)
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    @property
    def dimension(self) -> int:
        return self.center.size

    def project(self, x):
        diff = x - self.center
        norms = np.linalg.norm(diff, axis=-1, keepdims=diff.ndim > 1)
        scale = np.minimum(1.0, self.radius / np.maximum(norms, 1e-300))
        return self.center + scale * diff

    def contains(self, x, tol=1e-10):
        return bool(np.linalg.norm(x - self.center) <= self.radius + tol)

    def sample(self, rng, size=None):
        m = 1 if size is None else size
        u = rng.standard_normal((m, self.dimension))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = self.radius * rng.uniform(0.0, 1.0, size=(m, 1)) ** (1.0 / self.dimension)
        pts = self.center + r * u
        return pts[0] if size is None else pts


@dataclass
class WholeSpace(FeasibleSet):
    """The unconstrained set R^d."""

    dim: int

    @property
    def dimension(self) -> int:
        return self.dim

    def project(self, x):
        return np.array(x, dtype=float, copy=True)

    def contains(self, x, tol=1e-10):
        return True

    def sample(self, rng, size=None):
        shape = self.dim if size is None else (size, self.dim)
        return rng.standard_normal(shape)


@dataclass
class Polyhedron(FeasibleSet):
    """Intersection of finitely many halfspace cuts (assumed nonempty)."""

    cuts: list[HalfspaceCut]

    def __post_init__(self):
        if not self.cuts:
            raise ValueError("polyhedron needs at least one cut")
        dims = {c.dimension for c in self.cuts}
        if len(dims) != 1:
            raise DimensionMismatch("polyhedron cuts have mixed dimensions")

    @property
    def dimension(self) -> int:
        return self.cuts[0].dimension

    def project(self, x):
        try:
            return project_halfspace_intersection(self.cuts, x, tol=1e-12)
        except (EmptyIntersection, MaxInnerIterationsExceeded) as exc:
            raise InfeasibleSet(f"polyhedron appears empty: {exc}") from exc

    def contains(self, x, tol=1e-10):
        for c in self.cuts:
            if c.is_whole_space:
                continue
            if c.violation(x) > tol * float(np.linalg.norm(c.normal)):
                return False
        return True

    def sample(self, rng, size=None):
        if size is None:
            return self.project(rng.standard_normal(self.dimension))
        return np.array(
            [self.project(rng.standard_normal(self.dimension)) for _ in range(size)]
        )

    def as_halfspaces(self) -> list[HalfspaceCut]:
        return list(self.cuts)


def project(set_: FeasibleSet, x) -> np.ndarray:
    """Metric projection of ``x`` onto ``set_`` (nearest point in the set)."""
    x = as_point(x, set_.dimension)
    return set_.project(x)


def project_halfspace(cut: HalfspaceCut, x) -> np.ndarray:
    """Exact projection onto a single halfspace."""
    if cut.is_whole_space:
        return as_point(x).copy()
    x = as_point(x, cut.dimension)
    v = float(cut.normal @ x) - cut.offset
    if v <= 0.0:
        return x.copy()
    return x - (v / float(cut.normal @ cut.normal)) * cut.normal


def project_two_halfspaces(cut1: HalfspaceCut, cut2: HalfspaceCut, x0) -> np.ndarray:
    """Exact projection onto the intersection of two halfspaces.

    Closed-form case analysis on the active set: the starting point itself,
    one single-halfspace projection, or the solution of the 2x2 Gram system
    with nonnegative multipliers.  Degenerate cuts count as the whole space.
    Raises EmptyIntersection when no case applies (empty intersection, which
    the calling algorithms rule out by construction).
    """
    live = [c for c in (cut1, cut2) if not c.is_whole_space]
    if not live:
        return as_point(x0).copy()
    if len(live) == 1:
        return project_halfspace(live[0], x0)

    a1, b1 = live[0].normal, live[0].offset
    a2, b2 = live[1].normal, live[1].offset
    x0 = as_point(x0, a1.size)
    if a2.size != a1.size:
        raise DimensionMismatch("cut normals have different dimensions")

    n1 = float(a1 @ a1)
    n2 = float(a2 @ a2)
    v1 = float(a1 @ x0) - b1
    v2 = float(a2 @ x0) - b2
    # Feasibility slack scaled to the distance induced by each normal.
    tol1 = 1e-12 * np.sqrt(n1) * (1.0 + float(np.linalg.norm(x0))) + 1e-15
    tol2 = 1e-12 * np.sqrt(n2) * (1.0 + float(np.linalg.norm(x0))) + 1e-15

    if v1 <= tol1 and v2 <= tol2:
        return x0.copy()
    if v1 > 0.0:
        z = x0 - (v1 / n1) * a1
        if float(a2 @ z) - b2 <= tol2:
            return z
    if v2 > 0.0:
        z = x0 - (v2 / n2) * a2
        if float(a1 @ z) - b1 <= tol1:
            return z

    g12 = float(a1 @ a2)
    det = n1 * n2 - g12 * g12
    if det > 1e-16 * n1 * n2:
        mu1 = (n2 * v1 - g12 * v2) / det
        mu2 = (n1 * v2 - g12 * v1) / det
        if mu1 >= -1e-12 and mu2 >= -1e-12:
            return x0 - max(mu1, 0.0) * a1 - max(mu2, 0.0) * a2
    raise EmptyIntersection(
        f"two-halfspace projection found no feasible case (v1={v1:g}, v2={v2:g})"
    )


def _prune_dependent(normals, scale, working):
    """Subset of ``working`` whose normals are numerically independent."""
    rows = []
    kept = []
    for i in working:
        r = normals[i] / scale[i]
        for q in rows:
            r = r - (r @ q) * q
        rn = float(np.linalg.norm(r))
        if rn > 1e-8:
            rows.append(r / rn)
            kept.append(i)
    return kept


def _active_set_polish(normals, offsets, scale, x0, x, tol):
    """Exact candidate for the projection, seeded by the active set at ``x``.

    Runs a small working-set loop: project ``x0`` onto the affine hull of the
    working constraints, drop the most negative multiplier, add the most
    violated constraint.  A candidate is only returned with a verified
    optimality certificate (nonnegative multipliers on an independent working
    set plus feasibility for every constraint), so a wrong guess costs nothing
    but a few small solves.
    """
    m = len(normals)
    feas_tol = max(tol, 1e-12 * (1.0 + float(np.linalg.norm(x0))))
    if float(np.max((normals @ x0 - offsets) / scale)) <= feas_tol:
        return x0.copy()
    act_tol = 1e-9 * (1.0 + float(np.linalg.norm(x)))
    working = set(np.flatnonzero((normals @ x - offsets) / scale >= -act_tol))
    if not working:
        return None
    for _ in range(2 * m + 6):
        kept = _prune_dependent(normals, scale, sorted(working))
        if not kept:
            return None
        A = normals[kept]
        b = offsets[kept]
        try:
            mu = np.linalg.solve(A @ A.T, A @ x0 - b)
        except np.linalg.LinAlgError:
            return None
        if mu.min() < -1e-9:
            working = set(kept)
            working.discard(kept[int(np.argmin(mu))])
            if not working:
                return None
            continue
        z = x0 - A.T @ np.maximum(mu, 0.0)
        slack = (normals @ z - offsets) / scale
        worst = int(np.argmax(slack))
        if slack[worst] <= feas_tol:
            return z
        if worst in working:
            return None
        working = set(kept)
        working.add(worst)
    return None


def dykstra_halfspaces(
    cuts: list[HalfspaceCut],
    x0,
    tol: float = 1e-12,
    max_cycles: int = 10_000,
    polish: bool = True,
) -> np.ndarray:
    """Dykstra's alternating projection onto an intersection of halfspaces.

    Stops when the displacement over a full cycle falls below ``tol`` and all
    constraints are satisfied to ``tol`` (distance scale).  Whole-space cuts
    are skipped.  With ``polish`` on, each cycle additionally tries an exact
    active-set solve; the candidate is only accepted with a verified
    optimality certificate, so the result is never worse than plain Dykstra.
    Nearly parallel cuts make plain Dykstra arbitrarily slow, which is where
    the polish pays off.
    """
    live = [c for c in cuts if not c.is_whole_space]
    x0 = as_point(x0)
    if not live:
        return x0.copy()

    normals = np.array([c.normal for c in live])
    offsets = np.array([c.offset for c in live])
    norms = np.einsum("ij,ij->i", normals, normals)
    scale = np.sqrt(norms)
    m = len(live)

    x = x0.copy()
    corrections = np.zeros((m, x0.size))
    for _ in range(max_cycles):
        start = x.copy()
        for i in range(m):
            s = x + corrections[i]
            v = float(normals[i] @ s) - offsets[i]
            if v > 0.0:
                x = s - (v / norms[i]) * normals[i]
            else:
                x = s
            corrections[i] = s - x
        if polish:
            z = _active_set_polish(normals, offsets, scale, x0, x, tol)
            if z is not None:
                return z
        disp = float(np.linalg.norm(x - start))
        if disp <= tol:
            worst = float(np.max((normals @ x - offsets) / scale))
            if worst <= tol:
                return x
    violations = (normals @ x - offsets) / scale
    raise MaxInnerIterationsExceeded(
        f"halfspace Dykstra hit {max_cycles} cycles "
        f"(max violation {float(np.max(violations)):.3e}); intersection may be empty",
        violations=violations,
        best=x,
    )


def project_halfspace_intersection(
    cuts: list[HalfspaceCut],
    x0,
    tol: float = 1e-12,
    max_cycles: int = 10_000,
) -> np.ndarray:
    """Projection onto an intersection of halfspaces.

    Lists of at most two live cuts dispatch to the closed forms; longer lists
    use Dykstra's method.
    """
    live = [c for c in cuts if not c.is_whole_space]
    if not live:
        return as_point(x0).copy()
    if len(live) == 1:
        return project_halfspace(live[0], x0)
    if len(live) == 2:
        return project_two_halfspaces(live[0], live[1], x0)
    return dykstra_halfspaces(live, x0, tol=tol, max_cycles=max_cycles)


def dykstra(
    projectors,
    x0,
    tol: float = 1e-10,
    max_cycles: int = 10_000,
) -> np.ndarray:
    """Dykstra's alternating projection over arbitrary convex sets.

    ``projectors`` is a sequence of callables, each mapping a point to its
    exact projection onto one closed convex set.  Converges to the projection
    of ``x0`` onto the intersection.  Membership at the stopping point is
    checked with one extra pass through the projectors.
    """
    x0 = as_point(x0)
    x = x0.copy()
    corrections = [np.zeros_like(x0) for _ in projectors]
    for _ in range(max_cycles):
        start = x.copy()
        for i, proj in enumerate(projectors):
            s = x + corrections[i]
            x = proj(s)
            corrections[i] = s - x
        if float(np.linalg.norm(x - start)) <= tol:
            worst = max(float(np.linalg.norm(proj(x) - x)) for proj in projectors)
            if worst <= tol:
                return x
    raise MaxInnerIterationsExceeded(
        f"Dykstra hit {max_cycles} cycles without reaching tolerance {tol:g}",
        best=x,
    )
