"""Points, feasible sets, halfspace cuts, and metric projections.

The ambient space is R^d with the standard dot product; points are 1-D
float64 arrays.  All routines here are pure functions of their inputs.

A ``CutStack`` carries the cuts of one iteration: the cuts themselves when
there are at most two (a one-point iteration's C-cut and Q-cut), else
arrays with their row lengths, taken in the one norm pass that builds
them.  Its one counter, ``CutStack.audit``, counts in one pass the cuts a
point lies outside of (in ``hybrid.drive``, a projector's miss of
C_n ∩ Q_n) and those that exclude a second point (the known solution).
``project_halfspace_intersection`` is exact for any number of cuts:
closed forms for one or two (two accept a slack of 1e-12 (1 + ||x0||) +
1e-15 in distance), and for more the Goldfarb-Idnani dual active-set
method, which stops in finitely many steps and returns a point only with
its KKT certificate (every cut satisfied and every active cut tight to
``INTERSECTION_TOL * (1 + ||x0||)`` in distance, multipliers
nonnegative), or raises EmptyIntersection.  At m <= 9 cuts, d <= 20 its
cost is numpy calls, not flops (a mean of 24 us a call at (m, d) = (4, 1),
62 us at (5, 10), 102 us at (9, 20) on a 2-vCPU 2.1 GHz Xeon VM), so each
step reads the violations once as a list and each added cut takes |dz|^2
once.  ``dykstra`` handles general convex sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# numpy's C entry points behind the Python wrappers np.clip,
# np.count_nonzero(a) and np.einsum, bound once (with max_of and all_of
# below) so that no outer iteration runs a Python function of numpy
try:
    from numpy._core.multiarray import c_einsum, count_nonzero
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum, count_nonzero
    from numpy.core.umath import clip as _clip

from .errors import (
    DegenerateCut,
    DimensionMismatch,
    EmptyIntersection,
    InfeasibleSet,
    MaxInnerIterationsExceeded,
)

# for a 1-D array a, max_of(a) is a.max() and all_of(a) is a.all()
max_of = np.maximum.reduce
all_of = np.logical_and.reduce

# A cut whose normal is shorter than this is treated as carrying no direction.
DEGENERACY_THRESHOLD = 1e-14
# Zero-normal cuts with offset >= this denote the whole space; below it they
# are contradictory and rejected.
WHOLE_SPACE_OFFSET_FLOOR = -1e-12
# Feasibility slack of the halfspace projections, relative to 1 + ||x0||.
INTERSECTION_TOL = 1e-12
# Two cuts whose Gram determinant det = n1 n2 - <a1, a2>^2 is below
# NEAR_PARALLEL n1 n2 (normals within about 0.1 rad) would lose more than two
# digits to its cancellation; their projection takes the Gram-Schmidt form.
NEAR_PARALLEL = 1e-2
# Cycle cap of Dykstra's alternating projection.
MAX_DYKSTRA_CYCLES = 10_000

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


def dot(a: np.ndarray, b) -> float:
    """<a, b> for a 1-D float64 ``a``, bit for bit as ``float(a @ b)`` but
    without matmul's overhead.  ``ndarray.dot`` returns the bare product
    for one entry, where matmul adds it to 0.0; adding 0.0 changes only a
    -0.0, so both agree for every size."""
    return float(a.dot(b)) + 0.0


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector, bit for bit as ``np.linalg.norm(v)``
    (which for a real vector is the square root of its dot product)."""
    return math.sqrt(float(v.dot(v)))


def row_dots(D: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of D, bit for bit as ``D[i] @ D[i]``."""
    if len(D) == 1:  # one row: the dot product itself, without the batch
        row = D[0]
        return row.dot(row)[None]
    return np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0]


def row_dot(D: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The dot product of each row of D with row i of E, or with a 1-D E,
    bit for bit as ``D[i] @ E[i]`` or ``D[i] @ E``."""
    return np.matmul(D[:, None, :], E[..., None] if E.ndim == 2 else E[:, None])[:, 0, 0]


def row_norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of D, bit for bit as ``np.linalg.norm(D[i])``."""
    return np.sqrt(row_dots(D))


def _is_whole_space(norm_sq: float, offset: float) -> bool:
    """Whether the cut {<normal, z> <= offset} with <normal, normal> =
    ``norm_sq`` is the whole space: its normal is shorter than
    ``DEGENERACY_THRESHOLD`` and 0 <= offset holds (up to -1e-12).  With so
    short a normal and a lower offset it is empty: ``DegenerateCut``."""
    whole = math.sqrt(norm_sq) < DEGENERACY_THRESHOLD
    if whole and offset < WHOLE_SPACE_OFFSET_FLOOR:
        raise DegenerateCut(f"zero-normal cut with offset {offset:g} denotes the empty set")
    return whole


@dataclass
class HalfspaceCut:
    """The halfspace {z : <normal, z> <= offset}.

    ``_is_whole_space`` decides a cut's collapse; ``CutStack`` applies the
    same rule to arrays.  ``norm_sq`` is <normal, normal>, computed once
    here for the projections.
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
        self.is_whole_space = _is_whole_space(norm_sq, self.offset)

    @classmethod
    def _of(cls, normal, offset: float, norm_sq: float) -> HalfspaceCut:
        """``HalfspaceCut(normal, offset)`` for a vector ``normal`` whose
        ``normal.dot(normal)`` is ``norm_sq``: built without a second dot
        when the data are finite, else by the constructor, which raises."""
        if (math.isfinite(norm_sq) and math.isfinite(offset)
                and normal.dtype is _FLOAT64 and normal.ndim == 1):
            cut = cls.__new__(cls)
            cut.normal, cut.offset, cut.norm_sq, cut.is_whole_space = (
                normal, offset, norm_sq, _is_whole_space(norm_sq, offset))
            return cut
        return cls(normal, offset)

    @property
    def dimension(self) -> int:
        return self.normal.size

    def violation(self, z: np.ndarray) -> float:
        """Signed constraint value <normal, z> - offset (<= 0 means satisfied)."""
        if self.is_whole_space:
            return 0.0
        return float(self.normal.dot(z)) + 0.0 - self.offset  # dot(normal, z), inlined


class CutStack:
    """The k halfspaces {z : <normals[i], z> <= offsets[i]} of one R^d.

    A stack is a sequence of its rows, each a ``HalfspaceCut``, in one of
    two forms fixed when it is built: the cuts themselves, or arrays
    ``normals`` (k, d), ``offsets``, ``norm_sq`` and ``whole`` (k,) (as
    ``HalfspaceCut.norm_sq`` and ``is_whole_space``) and the lengths
    sqrt(norm_sq).  ``n_whole`` counts its whole-space rows.  It has two
    constructors: ``CutStack(normals, offsets)`` validates arrays once, as
    ``HalfspaceCut`` does one cut, and ``CutStack.of(cuts)`` keeps at most
    two valid cuts as they are, noting two that are both live as the pair
    that ``project_halfspace_intersection`` projects onto directly, and
    stacks more into arrays, with the same results bit for bit.
    """

    __slots__ = ("_rows", "_arrays", "_lengths", "_pair", "n_whole")

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
        self._lengths = lengths = np.sqrt(norm_sq)
        whole = lengths < DEGENERACY_THRESHOLD
        self.n_whole = int(count_nonzero(whole))
        if self.n_whole:
            empty = whole & (offsets < WHOLE_SPACE_OFFSET_FLOOR)
            if count_nonzero(empty):
                raise DegenerateCut(f"zero-normal cut with offset {offsets[empty.argmax()]:g} "
                                    "denotes the empty set")
        self._rows, self._arrays, self._pair = None, (normals, offsets, norm_sq, whole), None

    @classmethod
    def of(cls, cuts) -> CutStack:
        """The stack of the valid cuts ``cuts``, in order: the cuts
        themselves when there are at most two, else ``CutStack`` of their
        arrays.  Cuts of different dimensions, whole-space ones included,
        raise ``DimensionMismatch``."""
        rows = cuts if type(cuts) is list else list(cuts)
        if len(rows) > 2:
            normals = [c.normal for c in rows]
            if len({a.size for a in normals}) > 1:
                raise DimensionMismatch("cut normals have different dimensions")
            return cls(np.array(normals), np.array([c.offset for c in rows]))
        if len(rows) == 2 and rows[0].normal.size != rows[1].normal.size:
            raise DimensionMismatch("cut normals have different dimensions")
        n_whole = 0
        for c in rows:
            if c.is_whole_space:
                n_whole += 1
        stack = cls.__new__(cls)
        stack._rows, stack._arrays, stack.n_whole = rows, None, n_whole
        stack._pair = rows if len(rows) == 2 and not n_whole else None
        return stack

    def __len__(self) -> int:
        return len(self._rows) if self._rows is not None else self._arrays[1].size

    def __getitem__(self, i) -> HalfspaceCut:
        if self._rows is not None:
            return self._rows[i]
        normals, offsets, norm_sq, _ = self._arrays
        return HalfspaceCut._of(normals[i], float(offsets[i]), float(norm_sq[i]))

    @property
    def live(self) -> list[int]:
        """Indices of the rows that are not the whole space."""
        if self._arrays is None:
            return [i for i, c in enumerate(self._rows) if not c.is_whole_space]
        if self.n_whole:
            return [i for i, w in enumerate(self._arrays[3].tolist()) if not w]
        return list(range(len(self)))

    def audit(self, z: np.ndarray, tol: float, p: np.ndarray | None,
              slack: float) -> tuple[int, int]:
        """How many live rows ``z`` lies outside of by more than ``tol`` in
        distance, ``violation(z) > tol * ||normal||``, and how many rows have
        ``violation(p) > slack`` (0 when ``p`` is None), from one pass."""
        if self._arrays is None:
            out = bad = 0
            for c in self._rows:
                if c.violation(z) > tol * math.sqrt(c.norm_sq) and not c.is_whole_space:
                    out += 1
                if p is not None and c.violation(p) > slack:
                    bad += 1
            return out, bad
        normals, offsets, _, whole = self._arrays
        out = row_dot(normals, z) - offsets > tol * self._lengths
        v = None if p is None else row_dot(normals, p) - offsets
        if self.n_whole:
            out[whole] = False
            if v is not None:
                v[whole] = 0.0
        return int(count_nonzero(out)), 0 if v is None else int(count_nonzero(v > slack))


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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` random points of the set, as a (size, d) stack."""
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
        return bool(all_of(x >= self.lower - tol) and all_of(x <= self.upper + tol))

    def sample(self, rng, size):
        return rng.uniform(self.lower, self.upper, size=(size, self.dimension))

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
        if not 0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")

    @property
    def dimension(self) -> int:
        return self.center.size

    def project(self, x):
        diff = x - self.center
        # np.linalg.norm(diff, axis=-1, keepdims=diff.ndim > 1), bit for bit
        norms = np.sqrt(np.add.reduce(diff * diff, axis=-1, keepdims=diff.ndim > 1))
        scale = np.minimum(1.0, self.radius / np.maximum(norms, 1e-300))
        return self.center + scale * diff

    def contains(self, x, tol=1e-10):
        return norm(x - self.center) <= self.radius + tol

    def sample(self, rng, size):
        u = rng.standard_normal((size, self.dimension))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = self.radius * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / self.dimension)
        return self.center + r * u


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

    def sample(self, rng, size):
        return rng.standard_normal((size, self.dim))


@dataclass
class Polyhedron(FeasibleSet):
    """Intersection of finitely many halfspace cuts (assumed nonempty),
    stacked once when it is built."""

    cuts: list[HalfspaceCut]
    _stack: CutStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.cuts:
            raise ValueError("polyhedron needs at least one cut")
        dims = {c.dimension for c in self.cuts}
        if len(dims) != 1:
            raise DimensionMismatch("polyhedron cuts have mixed dimensions")
        self._stack = CutStack.of(self.cuts)

    @property
    def dimension(self) -> int:
        return self.cuts[0].dimension

    def project(self, x):
        try:
            if x.ndim == 2:
                return np.array([project_halfspace_intersection(self._stack, y) for y in x])
            return project_halfspace_intersection(self._stack, x)
        except (EmptyIntersection, MaxInnerIterationsExceeded) as exc:
            raise InfeasibleSet(f"polyhedron appears empty: {exc}") from exc

    def contains(self, x, tol=1e-10):
        return self._stack.audit(x, tol, None, 0.0)[0] == 0

    def sample(self, rng, size):
        return self.project(rng.standard_normal((size, self.dimension)))

    def as_halfspaces(self) -> list[HalfspaceCut]:
        return list(self.cuts)


def project(set_: FeasibleSet, x) -> np.ndarray:
    """Metric projection of ``x`` onto ``set_`` (nearest point in the set)."""
    x = as_point(x, set_.dimension)
    return set_.project(x)


def project_halfspace(cut: HalfspaceCut, x) -> np.ndarray:
    """Exact projection onto a single halfspace."""
    x = as_point(x, cut.dimension)
    v = dot(cut.normal, x) - cut.offset
    if v <= 0.0 or cut.is_whole_space:
        return x.copy()
    return x - (v / cut.norm_sq) * cut.normal


def project_two_halfspaces(cut1: HalfspaceCut, cut2: HalfspaceCut, x0,
                           x0_sq: float | None = None) -> np.ndarray:
    """Exact projection onto the intersection of two halfspaces.

    Closed-form case analysis on the active set: the starting point itself,
    one single-halfspace projection, or, with both cuts active, the
    solution of the 2x2 Gram system with nonnegative multipliers, in its
    Gram-Schmidt form for nearly parallel normals (``NEAR_PARALLEL``).
    Degenerate cuts count as the whole space.  Raises EmptyIntersection
    when no case applies (empty intersection, which the calling algorithms
    rule out by construction).  A caller that has validated x0 as a
    float64 point of the cuts' dimension may pass its <x0, x0> as
    ``x0_sq``, which the result does not depend on otherwise.

    Accuracy, at every angle t between the normals (checked against the
    exact rational KKT solution by a property test): the result z lies in
    both cuts and ||z - x0|| equals the exact distance, each within the
    slack s = 1e-12 (1 + ||x0||) + 1e-15, and z lies within s / sin t of
    the exact projection, the factor by which rounding the data moves the
    point where two nearly parallel hyperplanes meet.
    """
    if cut1.is_whole_space or cut2.is_whole_space:
        return project_halfspace_intersection([cut1, cut2], x0)

    a1, b1 = cut1.normal, cut1.offset
    a2, b2 = cut2.normal, cut2.offset
    if x0_sq is None:
        x0 = as_point(x0, a1.size)
        x0_sq = float(x0.dot(x0))
    if a2.size != a1.size:
        raise DimensionMismatch("cut normals have different dimensions")

    n1, n2 = cut1.norm_sq, cut2.norm_sq
    v1 = dot(a1, x0) - b1
    v2 = dot(a2, x0) - b2
    # Feasibility slack: INTERSECTION_TOL (1 + ||x0||) + 1e-15 in distance,
    # times each normal's length to compare with a constraint value.
    slack = INTERSECTION_TOL * (1.0 + math.sqrt(x0_sq)) + 1e-15
    tol1 = slack * math.sqrt(n1)
    tol2 = slack * math.sqrt(n2)

    if v1 <= tol1 and v2 <= tol2:
        return x0.copy()
    if v1 > 0.0:
        z = x0 - (v1 / n1) * a1
        if dot(a2, z) - b2 <= tol2:
            return z
    if v2 > 0.0:
        z = x0 - (v2 / n2) * a2
        if dot(a1, z) - b1 <= tol1:
            return z

    g12 = dot(a1, a2)
    det = n1 * n2 - g12 * g12
    if det >= NEAR_PARALLEL * n1 * n2:
        mu1 = (n2 * v1 - g12 * v2) / det
        mu2 = (n1 * v2 - g12 * v1) / det
        if mu1 >= -1e-12 and mu2 >= -1e-12:
            return x0 - max(mu1, 0.0) * a1 - max(mu2, 0.0) * a2
    else:
        # Gram-Schmidt: x0 onto hyperplane 1, then along u, the part of a2
        # orthogonal to a1, onto hyperplane 2, with ||u||^2 (= det / n1)
        # taken from u itself
        z = x0 - (v1 / n1) * a1
        u = a2 - (g12 / n1) * a1
        u_sq = float(u.dot(u))
        if u_sq > 1e-16 * n2:  # else the normals are parallel to working precision
            mu2 = (dot(a2, z) - b2) / u_sq
            mu1 = (v1 - g12 * mu2) / n1  # z - mu2 u = x0 - mu1 a1 - mu2 a2
            if mu1 >= -1e-12 and mu2 >= -1e-12:
                return z - max(mu2, 0.0) * u
    raise EmptyIntersection(
        f"two-halfspace projection found no feasible case (v1={v1:g}, v2={v2:g})"
    )


def dykstra_halfspaces(cuts: list[HalfspaceCut], x0, tol: float) -> np.ndarray:
    """``dykstra`` with one halfspace projector per cut, a cross-check of
    ``project_halfspace_intersection`` that nearly parallel cuts make
    arbitrarily slow."""
    projectors = [lambda v, c=c: project_halfspace(c, v) for c in cuts]
    return dykstra(projectors, x0, tol=tol)


def project_halfspace_intersection(cuts: CutStack | list[HalfspaceCut], x0,
                                   x0_sq: float | None = None) -> np.ndarray:
    """Projection onto an intersection of halfspaces, a stack or a list.

    One or two live cuts use the closed forms, more ``_dual_active_set``
    on the live rows of the stack's arrays (a stack of three or more rows
    holds its arrays), whose feasibility slack is ``INTERSECTION_TOL``.
    A stack's pair of live rows goes to ``project_two_halfspaces`` without
    a second look.  ``x0_sq`` is as in ``project_two_halfspaces``.
    """
    if not isinstance(cuts, CutStack):
        cuts = CutStack.of(cuts)
    if cuts._pair is not None:
        return project_two_halfspaces(*cuts._pair, x0, x0_sq)
    live = cuts.live
    if not live:
        return as_point(x0, cuts[0].dimension if len(cuts) else None).copy()
    if len(live) == 1:
        return project_halfspace(cuts[live[0]], x0)
    if len(live) == 2:
        return project_two_halfspaces(cuts[live[0]], cuts[live[1]], x0, x0_sq)
    normals, offsets, _, _ = cuts._arrays
    if cuts.n_whole:
        normals, offsets = normals[live], offsets[live]
    return _dual_active_set(normals, offsets, x0, x0_sq)


def _dual_active_set(A, b, x0, x0_sq=None):
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
    of the normals A and the offsets b; ``x0_sq`` is as in
    ``project_two_halfspaces``.
    """
    m = len(b)
    if x0_sq is None:
        x0 = as_point(x0, A.shape[1])
        x0_sq = float(x0.dot(x0))
    scale = np.sqrt(c_einsum("ij,ij->i", A, A))  # np.einsum's result
    A = A / scale[:, None]
    b = b / scale
    feas_tol = INTERSECTION_TOL * (1.0 + math.sqrt(x0_sq))
    Q = np.empty(A.shape)
    T = np.zeros((m, m))
    active: list[int] = []
    mu: list[float] = []
    z = x0
    for _ in range(10 * m):
        v_arr = A @ z - b
        # the first largest entry, as argmax (v holds no NaN while z is finite)
        v = v_arr.tolist()
        vj = max(v)
        j = v.index(vj)
        if vj <= feas_tol and (not active or max([abs(v[i]) for i in active]) <= feas_tol):
            return z if active else z.copy()
        if vj <= feas_tol or j in active:
            break
        if not active:  # the first addition: a_j is a unit row, so a full step
            dz = A[j]
            rho = float(dz.dot(dz))
            t, length = vj / rho, math.sqrt(rho)
            z, Q[0], T[0, 0] = z - t * dz, dz / length, 1.0 / length
            active, mu = [j], [t]
            continue
        mu_j = 0.0
        while True:
            k = len(active)
            dz, r, rho = _orthogonal_part(Q, T, k, A[j])
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
                _append_basis(Q, T, k, dz, r, rho)
                active.append(j)
                mu.append(mu_j)
                break
            vj -= t * rho
            del active[drop], mu[drop]
            for i in range(drop, k - 1):
                _append_basis(Q, T, i, *_orthogonal_part(Q, T, i, A[active[i]]))
    raise MaxInnerIterationsExceeded(
        f"dual active-set projection onto {m} halfspaces did not certify "
        f"a point (max violation {float(np.max(v_arr)):.3e})", violations=v_arr, best=z)


def _orthogonal_part(Q, T, k, a):
    """The part dz of the unit vector ``a`` orthogonal to the first k basis
    rows, T Q a, and |dz|^2.  When most of ``a`` cancels, a second pass
    keeps the basis error from growing by 1/|dz| per nearly dependent row.
    """
    if k == 0:
        return a, [], float(a.dot(a))
    Qk = Q[:k]
    q = Qk @ a
    dz = a - q @ Qk
    rho = float(dz.dot(dz))
    if rho < 0.5:
        q2 = Qk @ dz
        dz -= q2 @ Qk
        q += q2
        rho = float(dz.dot(dz))
    return dz, (T[:k, :k] @ q).tolist(), rho


def _append_basis(Q, T, k, dz, r, rho):
    """Extend the basis Q, T of k active normals by dz, of squared length rho."""
    length = math.sqrt(rho)
    Q[k] = dz / length
    T[:k, k] = [-ri / length for ri in r]
    T[k, k] = 1.0 / length


def dykstra(projectors, x0, tol: float = 1e-10) -> np.ndarray:
    """Dykstra's alternating projection over arbitrary convex sets.

    ``projectors`` is a sequence of callables, each mapping a point to its
    exact projection onto one closed convex set.  Converges to the projection
    of ``x0`` onto the intersection.  Membership at the stopping point is
    checked with one extra pass through the projectors.  After
    ``MAX_DYKSTRA_CYCLES`` cycles it raises ``MaxInnerIterationsExceeded``.
    """
    x0 = as_point(x0)
    x = x0.copy()
    corrections = [np.zeros(x0.size) for _ in projectors]
    for _ in range(MAX_DYKSTRA_CYCLES):
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
        f"Dykstra hit {MAX_DYKSTRA_CYCLES} cycles without reaching tolerance {tol:g}",
        best=x,
    )
