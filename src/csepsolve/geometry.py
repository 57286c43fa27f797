"""Points, feasible sets, halfspace cuts, and metric projections.

The ambient space is R^d with the standard dot product; points are 1-D
float64 arrays.  All routines here are pure functions of their inputs.

A ``CutStack`` carries the cuts of one iteration: rows that are
``HalfspaceCut``s, kept as arrays when they come from arrays (one
validation for the stack) and as the cuts themselves when there are a few
(a one-point iteration's C-cut and Q-cut).
``project_halfspace_intersection`` is exact for any number of cuts: closed
forms for one or two, and for more the Goldfarb-Idnani dual active-set
method, which stops in finitely many steps and returns a point only with
its KKT certificate (every cut satisfied and every active cut tight to
``INTERSECTION_TOL * (1 + ||x0||)`` in distance, multipliers nonnegative).  An empty
intersection raises EmptyIntersection.  ``dykstra`` handles intersections
of general convex sets; ``dykstra_halfspaces`` is kept as an independent
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

try:  # the ufunc behind np.clip, without its Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

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
# Feasibility slack of the many-cut projection, relative to 1 + ||x0||.
INTERSECTION_TOL = 1e-12

_FLOAT64 = np.dtype(np.float64)


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 vector, optionally of dimension ``dim``.

    A float64 vector of the right size is returned as is when its sum of
    squares is finite (then so is every entry); anything else, an overflowing
    sum of finite squares included, takes the full check.
    """
    if (type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1
            and (dim is None or x.size == dim) and math.isfinite(x.dot(x))):
        return x
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D point, got array of shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector, bit for bit as ``np.linalg.norm(v)``
    (which for a real vector is the square root of its dot product)."""
    return math.sqrt(float(v.dot(v)))


def row_dots(D: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of D, bit for bit as ``D[i] @ D[i]``."""
    return np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0]


def row_dot(D: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The dot product of each row of D with row i of E, or with a 1-D E,
    bit for bit as ``D[i] @ E[i]`` or ``D[i] @ E``."""
    return np.matmul(D[:, None, :], E[..., None] if E.ndim == 2 else E[:, None])[:, 0, 0]


def row_norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of D, bit for bit as ``np.linalg.norm(D[i])``."""
    return np.sqrt(row_dots(D))


@dataclass
class HalfspaceCut:
    """The halfspace {z : <normal, z> <= offset}.

    A cut with a numerically zero normal stands for the whole space when the
    residual scalar inequality 0 <= offset holds (up to -1e-12); otherwise it
    denotes the empty set and is rejected at construction.  ``norm_sq`` is
    <normal, normal>, computed once here for the projections.
    """

    normal: np.ndarray
    offset: float
    is_whole_space: bool = field(init=False)
    norm_sq: float = field(init=False)

    def __post_init__(self):
        self.normal = normal = np.asarray(self.normal, dtype=float)
        self.offset = float(self.offset)
        if normal.ndim != 1:
            raise DimensionMismatch("cut normal must be a 1-D vector")
        # A finite sum of squares means finite entries; an infinite one
        # may still come from finite entries whose squares overflow.
        self.norm_sq = norm_sq = float(normal.dot(normal))
        if not (math.isfinite(self.offset)
                and (math.isfinite(norm_sq) or np.isfinite(normal).all())):
            raise ValueError("cut has non-finite data")
        self.is_whole_space = math.sqrt(norm_sq) < DEGENERACY_THRESHOLD
        if self.is_whole_space and self.offset < WHOLE_SPACE_OFFSET_FLOOR:
            raise DegenerateCut(
                f"zero-normal cut with offset {self.offset:g} denotes the empty set"
            )

    @classmethod
    def _valid(cls, normal, offset, norm_sq, is_whole_space) -> HalfspaceCut:
        """A cut from data already validated (a row of a ``CutStack``)."""
        cut = cls.__new__(cls)
        cut.normal, cut.offset = normal, offset
        cut.norm_sq, cut.is_whole_space = norm_sq, is_whole_space
        return cut

    @property
    def dimension(self) -> int:
        return self.normal.size

    def violation(self, z: np.ndarray) -> float:
        """Signed constraint value <normal, z> - offset (<= 0 means satisfied)."""
        if self.is_whole_space:
            return 0.0
        return float(self.normal @ z) - self.offset


class CutStack:
    """The k halfspaces {z : <normals[i], z> <= offsets[i]} of one R^d.

    A stack is a sequence of its rows, each a ``HalfspaceCut``, and holds
    them as arrays: ``normals`` (k, d), and ``offsets``, ``norm_sq`` and
    ``whole`` (k,), the last two as ``HalfspaceCut.norm_sq`` and
    ``is_whole_space``.  ``CutStack(normals, offsets)`` validates the arrays
    once, as ``HalfspaceCut`` validates one cut; ``CutStack.of(cuts)`` keeps
    cuts that are valid already.  Either form makes the other only when it
    is asked for, so a few cuts are used one by one and a stack built from
    arrays as arrays, with the same results bit for bit.
    """

    __slots__ = ("_rows", "_arrays", "_live")

    def __init__(self, normals, offsets):
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if normals.ndim != 2 or offsets.shape != normals.shape[:1]:
            raise DimensionMismatch("a cut stack needs (k, d) normals and k offsets")
        norm_sq = row_dots(normals)
        # finite sums mean finite entries; otherwise each entry is tested
        if not ((math.isfinite(np.add.reduce(offsets)) or np.isfinite(offsets).all())
                and (math.isfinite(np.add.reduce(norm_sq)) or np.isfinite(normals).all())):
            raise ValueError("cut has non-finite data")
        whole = np.sqrt(norm_sq) < DEGENERACY_THRESHOLD
        if np.count_nonzero(whole):
            empty = np.flatnonzero(whole & (offsets < WHOLE_SPACE_OFFSET_FLOOR))
            if empty.size:
                raise DegenerateCut(
                    f"zero-normal cut with offset {offsets[empty[0]]:g} denotes the empty set"
                )
        self._rows, self._arrays, self._live = None, (normals, offsets, norm_sq, whole), None

    @classmethod
    def of(cls, cuts) -> CutStack:
        """The stack of the valid cuts ``cuts``, in order."""
        stack = cls.__new__(cls)
        stack._rows = cuts if type(cuts) is list else list(cuts)
        stack._arrays, stack._live = None, None
        return stack

    def __len__(self) -> int:
        return len(self._rows) if self._rows is not None else self._arrays[1].size

    def __getitem__(self, i) -> HalfspaceCut:
        if self._rows is not None:
            return self._rows[i]
        normals, offsets, norm_sq, whole = self._arrays
        return HalfspaceCut._valid(normals[i], float(offsets[i]), float(norm_sq[i]),
                                   bool(whole[i]))

    @property
    def dimension(self) -> int:
        return self._rows[0].dimension if self._arrays is None else self._arrays[0].shape[1]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(normals, offsets, norm_sq, whole), stacked from the rows once."""
        if self._arrays is None:
            rows = self._rows
            self._arrays = (
                np.array([c.normal for c in rows]).reshape(len(rows), -1 if rows else 0),
                np.array([c.offset for c in rows], dtype=float),
                np.array([c.norm_sq for c in rows], dtype=float),
                np.array([c.is_whole_space for c in rows], dtype=bool),
            )
        return self._arrays

    def _fill(self, arrays, start: int) -> None:
        """Write the rows into ``arrays`` from row ``start`` on."""
        if self._arrays is not None:
            for out, a in zip(arrays, self._arrays):
                out[start:start + len(a)] = a
            return
        normals, offsets, norm_sq, whole = arrays
        for i, c in enumerate(self._rows, start):
            normals[i], offsets[i], norm_sq[i], whole[i] = (
                c.normal, c.offset, c.norm_sq, c.is_whole_space)

    @property
    def live(self) -> list[int]:
        """Indices of the rows that are not the whole space."""
        if self._live is None:
            if self._arrays is None:
                self._live = [i for i, c in enumerate(self._rows) if not c.is_whole_space]
            else:
                self._live = [i for i, w in enumerate(self._arrays[3].tolist()) if not w]
        return self._live

    def violated(self, z: np.ndarray, slack: float) -> int:
        """How many rows have ``violation(z) > slack``."""
        if self._arrays is None:
            count = 0
            for c in self._rows:
                if c.violation(z) > slack:
                    count += 1
            return count
        normals, offsets, _, whole = self._arrays
        v = row_dot(normals, z) - offsets
        if len(self.live) < len(v):
            v[whole] = 0.0
        return int(np.count_nonzero(v > slack))

    def join(self, other: CutStack) -> CutStack:
        """The rows of this stack followed by those of ``other``, as one
        preallocated array stack unless either is empty."""
        k, m = len(self), len(other)
        if not m:
            return self
        if not k:
            return other
        stack = CutStack.__new__(CutStack)
        stack._rows, stack._live = None, None
        stack._arrays = arrays = (np.empty((k + m, self.dimension)), np.empty(k + m),
                                  np.empty(k + m), np.empty(k + m, dtype=bool))
        self._fill(arrays, 0)
        other._fill(arrays, k)
        return stack


class FeasibleSet:
    """Closed convex set with an exact metric projection."""

    dimension: int

    def project(self, x: np.ndarray) -> np.ndarray:
        """The nearest point of the set to the point x, or to each row of a
        (k, d) stack x, bit for bit as the rows projected one by one."""
        raise NotImplementedError

    def contains(self, x: np.ndarray, tol: float = 1e-10) -> bool:
        raise NotImplementedError

    def as_halfspaces(self) -> list[HalfspaceCut] | None:
        """The set as an intersection of halfspaces; None if not polyhedral."""
        return None

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
        return _clip(x, self.lower, self.upper)

    def contains(self, x, tol=1e-10):
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def sample(self, rng, size=None):
        shape = self.dimension if size is None else (size, self.dimension)
        return rng.uniform(self.lower, self.upper, size=shape)

    def as_halfspaces(self) -> list[HalfspaceCut]:
        """The 2d face inequalities of the box, upper then lower per coordinate."""
        return [HalfspaceCut(sign * e, sign * bound)
                for e, lo, up in zip(np.eye(self.dimension), self.lower, self.upper)
                for sign, bound in ((1.0, up), (-1.0, lo))]


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

    def as_halfspaces(self) -> list[HalfspaceCut]:
        return []

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
            if np.ndim(x) == 2:
                return np.array([project_halfspace_intersection(self.cuts, y) for y in x])
            return project_halfspace_intersection(self.cuts, x)
        except (EmptyIntersection, MaxInnerIterationsExceeded) as exc:
            raise InfeasibleSet(f"polyhedron appears empty: {exc}") from exc

    def contains(self, x, tol=1e-10):
        for c in self.cuts:
            if c.is_whole_space:
                continue
            if c.violation(x) > tol * math.sqrt(c.norm_sq):
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
    return x - (v / cut.norm_sq) * cut.normal


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

    n1, n2 = live[0].norm_sq, live[1].norm_sq
    v1 = float(a1 @ x0) - b1
    v2 = float(a2 @ x0) - b2
    # Feasibility slack scaled to the distance induced by each normal.
    scale = 1.0 + norm(x0)
    tol1 = 1e-12 * math.sqrt(n1) * scale + 1e-15
    tol2 = 1e-12 * math.sqrt(n2) * scale + 1e-15

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


def dykstra_halfspaces(
    cuts: list[HalfspaceCut],
    x0,
    tol: float = 1e-12,
    max_cycles: int = 10_000,
) -> np.ndarray:
    """Dykstra's alternating projection onto an intersection of halfspaces.

    ``dykstra`` with one halfspace projector per cut: it stops when the
    displacement over a full cycle falls below ``tol`` and every cut is
    satisfied to ``tol`` in distance.  Nearly parallel cuts make it
    arbitrarily slow; it serves as an independent cross-check of
    ``project_halfspace_intersection``.
    """
    projectors = [lambda v, c=c: project_halfspace(c, v) for c in cuts]
    return dykstra(projectors, x0, tol=tol, max_cycles=max_cycles)


def project_halfspace_intersection(cuts: CutStack | list[HalfspaceCut], x0) -> np.ndarray:
    """Projection onto an intersection of halfspaces, a stack or a list.

    One or two live cuts use the closed forms, more ``_dual_active_set``
    on the live rows of the stack, whose feasibility slack is
    ``INTERSECTION_TOL``.
    """
    if not isinstance(cuts, CutStack):
        cuts = CutStack.of(cuts)
    live = cuts.live
    if not live:
        return as_point(x0).copy()
    if len(live) == 1:
        return project_halfspace(cuts[live[0]], x0)
    if len(live) == 2:
        return project_two_halfspaces(cuts[live[0]], cuts[live[1]], x0)
    normals, offsets, _, _ = cuts.arrays()
    if len(live) < len(cuts):
        normals, offsets = normals[live], offsets[live]
    return _dual_active_set(normals, offsets, x0)


def _dual_active_set(A, b, x0):
    """Goldfarb-Idnani dual active-set method with identity Hessian.

    With unit normals a_i, z = x0 - A^T mu, mu >= 0 supported on an active
    set P of independent normals tight at z.  Each step raises mu_j of the
    most violated cut j, moving z along dz, the part of a_j orthogonal to
    the active normals, until cut j is tight (j joins P) or an active
    multiplier reaches zero (that cut leaves P; j is still being added).
    If dz = 0 the step is purely dual, and if no multiplier then decreases,
    a_j is a nonpositive combination of active normals with a violated
    offset: the intersection is empty (Farkas).  Each completed addition
    raises the dual objective, so the method is finite.  P is kept as
    A_P^T = Q^T R with orthonormal rows Q and T = R^-1, which makes
    r = (A_P A_P^T)^-1 A_P a_j equal to T Q a_j.  The cuts are the rows
    of the normals A and the offsets b.
    """
    m = len(b)
    x0 = as_point(x0, A.shape[1])
    scale = np.sqrt(np.einsum("ij,ij->i", A, A))
    A = A / scale[:, None]
    b = b / scale
    feas_tol = INTERSECTION_TOL * (1.0 + norm(x0))
    Q = np.empty_like(A)
    T = np.zeros((m, m))
    active: list[int] = []
    mu: list[float] = []
    z = x0.copy()
    for _ in range(10 * m):
        v = A @ z - b
        j = int(v.argmax())
        vj, mu_j = float(v[j]), 0.0
        if vj <= feas_tol and (not active or np.abs(v[active]).max() <= feas_tol):
            return z
        if vj <= feas_tol or j in active:
            break
        while True:
            k = len(active)
            dz, r = _orthogonal_part(Q, T, k, A[j])
            rho = float(dz @ dz)
            t_part, drop = math.inf, -1
            r_floor = 1e-12 * (1.0 + max(map(abs, r), default=0.0))
            for i, (ri, mi) in enumerate(zip(r, mu)):
                if ri > r_floor and mi < t_part * ri:
                    t_part, drop = mi / ri, i
            # When a_j is in the span, rounding leaves |dz| of up to about
            # 1e-10 once the basis holds nearly dependent rows.  Admitting a
            # part below 1e-8 (about the square root of the unit roundoff)
            # would move z by v_j/|dz| >= 1e8 v_j, whose rounding already
            # exceeds the INTERSECTION_TOL slack of the certificate.
            dependent = rho <= 1e-16
            if dependent and drop < 0:
                raise EmptyIntersection(
                    f"cut {j} is violated by {vj:.3e} at every point of the "
                    "active cuts' intersection"
                )
            t_full = math.inf if dependent else vj / rho
            t = min(t_full, t_part)
            mu = [max(mi - t * ri, 0.0) for mi, ri in zip(mu, r)]
            mu_j += t
            if not dependent:
                z = z - t * dz
            if t_full <= t_part:
                _append_basis(Q, T, k, dz, r)
                active.append(j)
                mu.append(mu_j)
                break
            vj -= t * rho
            del active[drop], mu[drop]
            for i in range(drop, k - 1):
                _append_basis(Q, T, i, *_orthogonal_part(Q, T, i, A[active[i]]))
    raise MaxInnerIterationsExceeded(
        f"dual active-set projection onto {m} halfspaces did not certify "
        f"a point (max violation {float(np.max(v)):.3e})", violations=v, best=z)


def _orthogonal_part(Q, T, k, a):
    """The part of the unit vector ``a`` orthogonal to the first k basis
    rows, and T Q a.  When most of ``a`` cancels, a second Gram-Schmidt pass
    keeps the basis error from growing by 1/|dz| per nearly dependent row.
    """
    if k == 0:
        return a, []
    q = Q[:k] @ a
    dz = a - q @ Q[:k]
    if dz @ dz < 0.5:
        q2 = Q[:k] @ dz
        dz -= q2 @ Q[:k]
        q += q2
    return dz, (T[:k, :k] @ q).tolist()


def _append_basis(Q, T, k, dz, r):
    """Extend the basis Q, T of k active normals by one whose new part is dz."""
    length = norm(dz)
    Q[k] = dz / length
    T[:k, k] = [-ri / length for ri in r]
    T[k, k] = 1.0 / length


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
        if norm(x - start) <= tol:
            worst = max((norm(proj(x) - x) for proj in projectors), default=0.0)
            if worst <= tol:
                return x
    raise MaxInnerIterationsExceeded(
        f"Dykstra hit {max_cycles} cycles without reaching tolerance {tol:g}",
        best=x,
    )
