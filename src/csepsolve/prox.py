"""Inner subproblem: argmin over C of  lam*f(w, y) + 0.5*||x - y||^2.

The objective is strongly convex when f(w, .) is convex, so the minimizer
is unique.  Operator-induced bifunctions admit the exact solution
P_C(x - lam*A(w)); the affine-quadratic family is solved by projected
gradient (or an exact coordinate solve on boxes when Q is diagonal);
black-box bifunctions fall back to a projected subgradient scheme in which
the quadratic part is kept in closed form each step.

Projected gradient starts each row at the projection of its unconstrained
minimizer H^{-1} shift, H = I + lam*(Q + Q^T) inverted once per kernel.
When that minimizer lies in C it is the answer, so the first step moves it
by rounding only and the row stops there (two inner iterations counted:
the start and that step); a row with active constraints goes on from the
clipped point as before.  Nearly every solve ends with all live rows
stopping at one step, whose iterate is then the result; per-row
bookkeeping is paid only when rows stop at different steps or reach
MAX_INNER.

``_kernel`` is the one place a solver is chosen.  When every subproblem of
a system belongs to one family it stacks the data once: M_i and q_i when
every bifunction is induced by an affine operator; P_i, q_i and the
diagonals of Q_i when every subproblem separates by coordinates; P_i, q_i,
Q_i^T, Q_i + Q_i^T, and the eigenvalues and inverses of
H_i = I + lam*(Q_i + Q_i^T), which give the projected-gradient steps and
starts, when none does.  A solve then makes one batched matrix product in
place of N, and runs one projected-gradient loop over the stack in which
each row stops at its own step.  Any other system (callable operators,
black-box or mixed bifunctions) has no stack.  Every feasible set projects
a (k, d) stack as it would each row.

``ProxSystem`` builds each kernel once per run, at its first use: the
stack of all N subproblems when ``solve`` is first called, and the one-row
kernels ``_kernel([f], lam, set_)`` of all N when a first row is solved
alone, so that a cyclic run builds none after its first iteration.
``solve`` solves all N subproblems on the stack, or without one
row by row through ``solve_row``, which solves row i alone on its one-row
kernel.  The batched forms used (``np.matmul`` over stacks) give each
row's result bit for bit, so both agree exactly.  Certified solves certify
each row after.

A kernel returns the (k, d) minimizers and one ``ProxRecord`` of the call:
the total inner iterations, the unconverged rows with their diagnostics,
and, once certified, the least certificate gap; no kernel builds an object
per row.  ``ProxRecord`` is the one result of every solve, the one-off
``solve_prox`` included; only ``ProxSystem`` certifies, by calling
``certify_prox``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteObjective, ParameterViolation
from .geometry import Box, FeasibleSet, WholeSpace, all_of, count_nonzero, norm, row_dots
from .problems import (
    AffineOperator,
    AffineQuadraticBifunction,
    Bifunction,
    ViInducedBifunction,
)

# Inner tolerances sit well below the outer stopping tolerance because the
# cutting halfspaces are built from the computed minimizers.
TOL_PROJECTED_GRADIENT = 1e-10
TOL_SUBGRADIENT = 1e-8
MAX_INNER = 100_000


class ProxRecord(NamedTuple):
    """The inner solves of one call: ``solves`` subproblems taking
    ``inner_iterations`` inner steps in all (each one projection onto the
    feasible set), the ``(subproblem, diagnostic)`` of each unconverged
    solve in subproblem order, and the least certificate gap that is not
    NaN (inf when none is certified)."""

    solves: int
    inner_iterations: int
    nonconverged: tuple[tuple[int, str | None], ...]
    min_certificate: float

    @classmethod
    def of(cls, records: list[ProxRecord]) -> ProxRecord:
        """The record of the one-row ``records``, the solves of subproblems
        0, 1, ... in order (whatever subproblem each names)."""
        inner, nonconverged, least = 0, [], math.inf
        for j, r in enumerate(records):
            inner += r.inner_iterations
            if r.nonconverged:
                nonconverged.append((j, r.nonconverged[0][1]))
            if r.min_certificate < least:
                least = r.min_certificate
        return cls(len(records), inner, tuple(nonconverged), least)


def objective(f: Bifunction, w, x, lam: float, y) -> float:
    """The subproblem objective lam*f(w, y) + 0.5*||x - y||^2."""
    return lam * f.value(w, y) + 0.5 * float((x - y) @ (x - y))


def probe_rng(certify_probes: int, seed: int, n: int, i: int):
    """Certificate-probe generator for inner solve i of outer iteration n."""
    return np.random.default_rng((seed, n, i)) if certify_probes > 0 else None


def solve_prox(f: Bifunction, w: np.ndarray, x: np.ndarray, lam: float, set_: FeasibleSet
               ) -> tuple[np.ndarray, ProxRecord]:
    """Minimize lam*f(w, .) + 0.5*||x - .||^2 over the feasible set.

    A one-off solve on the kernel ``ProxSystem`` would use: the (1, d)
    minimizer and the record of its solve, as ``ProxSystem([f], lam,
    set_).solve_row(0, w, x, n)`` returns them uncertified.
    """
    return _kernel([f], lam, set_).solve(w, x)


class ProxSystem:
    """The N subproblems of one run: bifunctions ``fs``, step ``lam`` and
    set ``set_`` fixed, anchors and centre given per call.

    With ``certify_probes`` > 0 every result carries a sampled certificate
    whose probes, for subproblem i at outer iteration n, come from
    ``probe_rng(certify_probes, seed, n, i)``, so ``seed`` must then be
    non-negative: ``ParameterViolation`` before any solve otherwise.
    """

    def __init__(self, fs: list[Bifunction], lam: float, set_: FeasibleSet,
                 certify_probes: int = 0, seed: int = 0):
        if certify_probes > 0 and seed < 0:
            raise ParameterViolation(
                f"seed={seed} must be >= 0 with certify_probes={certify_probes}")
        self.fs, self.lam, self.set_ = fs, lam, set_
        self.certify_probes, self.seed = certify_probes, seed
        self._kernels = {}

    def solve(self, W: np.ndarray, x: np.ndarray, n: int) -> tuple[np.ndarray, ProxRecord]:
        """All N subproblems at outer iteration n, subproblem i anchored at W
        (one shared 1-D anchor) or at row W[i].

        Returns the (N, d) stack of minimizers and the record of the call;
        without a stack, the rows of ``solve_row`` and ``ProxRecord.of``
        their records.
        """
        stack = self._kernel_of(None)
        if stack is None:
            rows = [self.solve_row(i, W if W.ndim == 1 else W[i], x, n)
                    for i in range(len(self.fs))]
            return np.array([y[0] for y, _ in rows]), ProxRecord.of([r for _, r in rows])
        Y, record = stack.solve(W, x)
        if self.certify_probes > 0:
            least = math.inf
            for i, y in enumerate(Y):
                gap = self._certify(i, W if W.ndim == 1 else W[i], x, n, y)
                if gap < least:  # False for NaN
                    least = gap
            record = record._replace(min_certificate=least)
        return Y, record

    def solve_row(self, i: int, w: np.ndarray, x: np.ndarray, n: int
                  ) -> tuple[np.ndarray, ProxRecord]:
        """Subproblem i alone at outer iteration n, anchored at w, returned as
        ``solve`` returns all N: its (1, d) minimizer, equal bit for bit to
        row i of ``solve``, and the record of its solve as subproblem i."""
        Y, record = self._kernel_of(i).solve(w, x)
        if record.nonconverged:
            record = record._replace(nonconverged=((i, record.nonconverged[0][1]),))
        if self.certify_probes > 0:
            gap = self._certify(i, w, x, n, Y[0])
            if gap < record.min_certificate:  # False for NaN
                record = record._replace(min_certificate=gap)
        return Y, record

    def _kernel_of(self, i: int | None):
        """The kernel of all N subproblems (``i`` None; None when they have
        no stack) or of subproblem i alone, built at its first use, the
        one-row kernels all N at once."""
        if i not in self._kernels:
            if i is None:
                self._kernels[None] = _kernel(self.fs, self.lam, self.set_)
            else:
                self._kernels.update((j, _kernel([f], self.lam, self.set_))
                                     for j, f in enumerate(self.fs))
        return self._kernels[i]

    def _certify(self, i, w, x, n, y) -> float:
        return certify_prox(
            self.fs[i], w, x, self.lam, self.set_, y, self.certify_probes,
            rng=probe_rng(self.certify_probes, self.seed, n, i),
        )


def _kernel(fs: list[Bifunction], lam: float, set_: FeasibleSet):
    """The solver of the subproblems ``fs``: a stack when all belong to one
    stacked family, else for one subproblem its own kernel, and for more
    None.  A kernel's ``solve(W, x)`` takes one shared 1-D anchor or one row
    per subproblem and returns the (k, d) minimizers and their record."""
    if not lam > 0.0:
        raise ValueError("prox step lam must be positive")

    def stack(get):
        return np.stack([get(f) for f in fs])

    if all(isinstance(f, ViInducedBifunction)
           and isinstance(f.operator, AffineOperator) for f in fs):
        return _AffineViStack(lam, set_, stack(lambda f: f.operator.M),
                              stack(lambda f: f.operator.q))
    if all(isinstance(f, AffineQuadraticBifunction) for f in fs):
        P, q = stack(lambda f: f.P), stack(lambda f: f.q)
        separable = [isinstance(set_, (Box, WholeSpace)) and f.diagonal is not None for f in fs]
        if all(separable):
            return _CoordinatewiseStack(lam, set_, P, q, stack(lambda f: f.diagonal))
        if not any(separable):
            Q = stack(lambda f: f.Q)
            QT = Q.transpose(0, 2, 1)
            return _ProjectedGradientStack(lam, set_, P, q, QT, Q + QT)
    if len(fs) > 1:
        return None
    solve_1d = _solve_operator if isinstance(fs[0], ViInducedBifunction) else _solve_blackbox
    return _Row(solve_1d, fs[0], lam, set_)


def _require_finite(Y: np.ndarray) -> None:
    # A finite sum means finite entries; an infinite one may still come from
    # finite entries that overflow when added.
    if not (math.isfinite(np.add.reduce(Y, axis=None)) or np.isfinite(Y).all()):
        raise NonFiniteObjective("inner subproblem produced non-finite iterate")


def _matvec(S: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows S_i @ w for a shared 1-D w, or S_i @ W_i for a (k, d) stack W.

    Both forms equal the per-row matrix-vector product bit for bit; the
    einsum and reshaped 2-D forms do not.
    """
    return np.matmul(S, W) if W.ndim == 1 else np.matmul(S, W[..., None])[..., 0]


def _squared_bound(tol: float) -> float:
    """The largest double s with sqrt(s) <= tol (-inf when there is none).

    sqrt is correctly rounded and monotone, so ``row_dots(D) <= s`` decides
    exactly as ``row_norms(D) <= tol`` for every row.
    """
    if not tol >= 0.0:
        return -math.inf
    s = tol * tol
    while math.sqrt(s) > tol:
        s = math.nextafter(s, 0.0)
    while s < math.inf and math.sqrt(math.nextafter(s, math.inf)) <= tol:
        s = math.nextafter(s, math.inf)
    return s


class _Stack:
    """Per-row arrays, named by ``ROWS`` and stacked along axis 0."""

    ROWS: tuple[str, ...] = ()

    def __init__(self, lam, set_, *arrays):
        self.lam, self.set_ = lam, set_
        self.__dict__.update(zip(self.ROWS, arrays))


class _AffineViStack(_Stack):
    """Operators M_i y + q_i: the exact minimizers P_C(x - lam*(M_i w_i + q_i)),
    one inner iteration each, so every solve has the same record."""

    ROWS = ("M", "q")

    def __init__(self, lam, set_, *arrays):
        super().__init__(lam, set_, *arrays)
        self.record = ProxRecord(len(self.M), len(self.M), (), math.inf)

    def solve(self, W, x):
        Y = self.set_.project(x - self.lam * (_matvec(self.M, W) + self.q))
        _require_finite(Y)
        return Y, self.record


class _CoordinatewiseStack(_Stack):
    """Affine-quadratic bifunctions with diagonal Q_i (entries ``diag``):
    a coordinatewise solve with the denominators 1 + 2 lam diag, then the
    projection.  A stack with a denominator that is not positive (a
    subproblem that is not strongly convex) raises when it is solved."""

    ROWS = ("P", "q", "diag")

    def __init__(self, lam, set_, *arrays):
        super().__init__(lam, set_, *arrays)
        self.denom = 1.0 + 2.0 * lam * self.diag
        self.convex = not np.any(self.denom <= 0.0)

    def solve(self, W, x):
        if not self.convex:
            raise NonFiniteObjective("subproblem is not strongly convex (Q too negative)")
        lam = self.lam
        c = _matvec(self.P, W) + self.q
        Y = self.set_.project((x - lam * c + lam * self.diag * W) / self.denom)
        _require_finite(Y)
        return Y, ProxRecord(len(Y), len(Y), (), math.inf)


class _ProjectedGradientStack(_Stack):
    """Affine-quadratic bifunctions <P_i w + Q_i y + q_i, y - w>, solved by
    projected gradient.

    The objective of row i is 0.5 y^T H_i y - <shift_i, y> + const with
    H_i = I + lam*(Q_i + Q_i^T), so its gradient's Lipschitz constant is
    the largest eigenvalue of H_i, and its unconstrained minimizer is
    H_i^{-1} shift_i.  The eigenvalues and inverses are computed once, when
    the stack is built.  Each row steps by 1/lambda_max(H_i) (linear
    convergence from strong convexity; 1/(1 + lam*||Q_i + Q_i^T||) when
    Q_i + Q_i^T is positive semidefinite) and starts at the projection of
    its unconstrained minimizer: when that minimizer lies in C it is the
    answer, and the first step moves it by rounding only.  A stack with an
    H_i that is not positive definite to working precision (a subproblem
    that is not strongly convex) raises when it is solved."""

    ROWS = ("P", "q", "QT", "sym")

    def __init__(self, lam, set_, *arrays):
        super().__init__(lam, set_, *arrays)
        eye = np.eye(self.sym.shape[-1])
        H = eye + lam * self.sym
        finite = np.isfinite(H).all(axis=(1, 2))
        H = np.where(finite[:, None, None], H, eye)
        eig = np.linalg.eigvalsh(H)
        # definite: the smallest eigenvalue clears the rank tolerance of
        # np.linalg.matrix_rank (d * eps * the largest), so that inv meets
        # no row that is singular in floating point
        definite = finite & (eig[:, 0] > H.shape[-1] * np.finfo(float).eps * eig[:, -1])
        self.convex = bool(definite.all())
        self.step = (1.0 / eig[:, -1])[:, None]
        self.Hinv = np.linalg.inv(np.where(definite[:, None, None], H, eye))
        self.bound = _squared_bound(TOL_PROJECTED_GRADIENT)

    def solve(self, W, x):
        """One loop over the stack.  A row stops at the first step whose
        displacement is within TOL_PROJECTED_GRADIENT; a row still moving
        after MAX_INNER steps is returned unconverged.  Each step, the
        first from the projected unconstrained minimizer included, counts
        one inner iteration, and the start one more.

        When every live row stops at the same step, that step's iterate is
        the result: returned as it is when no row stopped earlier, else
        written over the live rows in one assignment.  The result array and
        the live-row index exist only once a row stops before the others or
        reaches MAX_INNER."""
        if not self.convex:
            raise NonFiniteObjective("subproblem is not strongly convex (Q + Q^T too negative)")
        max_inner, lam, project, matmul = MAX_INNER, self.lam, self.set_.project, np.matmul
        bound, sym, step = self.bound, self.sym, self.step
        shift = x - lam * (_matvec(self.P, W) + self.q) + lam * _matvec(self.QT, W)
        inner = max_inner * len(shift)  # a row done at step it takes it + 1, not max_inner
        out = live = None
        Y = project(_matvec(self.Hinv, shift))
        for it in range(1, max_inner + 1):
            grad = Y + lam * matmul(sym, Y[..., None])[..., 0] - shift
            Y_new = project(Y - step * grad)
            done = row_dots(Y_new - Y) <= bound
            n_done = int(count_nonzero(done))
            if n_done == len(done):
                inner -= n_done * (max_inner - it - 1)
                if out is None:
                    out = Y_new
                else:
                    out[live] = Y_new
                _require_finite(out)
                return out, ProxRecord(len(out), inner, (), math.inf)
            if n_done:
                if out is None:
                    out, live = np.empty(shift.shape), np.arange(len(shift))
                out[live[done]] = Y_new[done]
                inner -= n_done * (max_inner - it - 1)
                keep = ~done
                live, sym, step, shift, Y_new = (
                    live[keep], sym[keep], step[keep], shift[keep], Y_new[keep]
                )
            Y = Y_new
        if out is None:
            out, live = Y, np.arange(len(Y))
        else:
            out[live] = Y
        _require_finite(out)
        diagnostic = f"projected gradient hit {max_inner} iterations"
        return out, ProxRecord(len(out), inner,
                               tuple((i, diagnostic) for i in live.tolist()), math.inf)


class _Row:
    """One subproblem outside the stacked families, solved by
    ``solve_1d(f, w, x, lam, set_)``, which returns the minimizer and the
    record of its solve; its anchor is a 1-D w or a one-row stack."""

    def __init__(self, solve_1d, f, lam, set_):
        self.solve_1d, self.f, self.lam, self.set_ = solve_1d, f, lam, set_

    def solve(self, W, x):
        y, record = self.solve_1d(self.f, W if W.ndim == 1 else W[0], x, self.lam, self.set_)
        _require_finite(y)
        return y[None], record


def _solve_operator(f, w, x, lam, set_):
    """The exact P_C(x - lam*A(w)) for a callable operator A."""
    return set_.project(x - lam * f.operator(w)), ProxRecord(1, 1, (), math.inf)


def _solve_blackbox(f, w, x, lam, set_):
    """Projected subgradient scheme, damped toward a Cesaro-style average
    once the residuals stop shrinking."""
    tol, max_inner = TOL_SUBGRADIENT, MAX_INNER
    y = set_.project(x)
    best = y
    best_res = np.inf
    beta = 1.0
    averaging_from = None
    window: list[float] = []
    for it in range(1, max_inner + 1):
        s = f.subgrad2(w, y)
        target = set_.project(x - lam * s)
        residual = norm(target - y)
        if residual < best_res:
            best_res, best = residual, target
        if residual <= tol:
            return target, ProxRecord(1, it + 1, (), math.inf)
        if averaging_from is None:
            window.append(residual)
            if len(window) >= 25 and window[-1] > 0.95 * window[0]:
                # No contraction: damp toward a Cesaro-style average.
                averaging_from = it
            window = window[-25:]
        if averaging_from is not None:
            beta = 2.0 / (it - averaging_from + 2.0)
        y = y + beta * (target - y)
        if not all_of(np.isfinite(y)):
            raise NonFiniteObjective("subgradient iteration diverged")
    diagnostic = f"subgradient scheme hit {max_inner} iterations (best residual {best_res:.3e})"
    return best, ProxRecord(1, max_inner, ((0, diagnostic),), math.inf)


def certify_prox(
    f: Bifunction,
    w: np.ndarray,
    x: np.ndarray,
    lam: float,
    set_: FeasibleSet,
    result: np.ndarray,
    probes: int,
    rng: np.random.Generator,
) -> float:
    """Sampled optimality certificate for a claimed subproblem minimizer.

    Returns the minimum over ``probes`` points y of C drawn by ``rng`` of

        <result - x, y - result> - lam*(f(w, result) - f(w, y)),

    which is nonnegative at the true minimizer for every y in C.
    """
    Y = set_.sample(rng, probes)
    lhs = (Y - result) @ (result - x)
    gaps = lhs - lam * (f.value(w, result) - f.value_batch(w, Y))
    return float(np.min(gaps))
