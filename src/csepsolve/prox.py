"""Inner subproblem: argmin over C of  lam*f(w, y) + 0.5*||x - y||^2.

The objective is 1-strongly convex, so the minimizer is unique.  Operator-
induced bifunctions admit the exact solution P_C(x - lam*A(w)); the
affine-quadratic family is solved by projected gradient (or an exact
coordinate solve on boxes when Q is diagonal); black-box bifunctions fall
back to a projected subgradient scheme in which the quadratic part is kept
in closed form each step.

The arithmetic of each affine family is written once, for a stack of rows:
``solve_prox`` is the one-row call, and ``ProxSystem`` solves the N
subproblems of one run in one call.  It stacks the data once per run: M_i
and q_i when every bifunction is induced by an affine operator; P_i, q_i
and the diagonals of Q_i when every subproblem separates by coordinates;
P_i, q_i, Q_i^T, Q_i + Q_i^T and the projected-gradient steps when none
does.  A call then makes one batched matrix product in place of N, and
runs one projected-gradient loop over the stack in which each row stops at
its own step.  Boxes and the whole space project the whole stack at once;
other sets project row by row.  Systems with callable operators, black-box
or mixed bifunctions, and certified solves go row by row through
``solve_prox``.  The batched forms used (``np.matmul`` over stacks) give
each row's result bit for bit, so both calls agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteObjective
from .geometry import Box, FeasibleSet, WholeSpace, norm, row_dots
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

# Sets whose projection acts on each row of a (k, d) stack independently.
ROWWISE_SETS = (Box, WholeSpace)


@dataclass
class ProxResult:
    """Solution of one inner subproblem.

    ``certificate_gap`` is the worst sampled slack of the variational
    optimality inequality (NaN unless certification was requested);
    ``inner_iterations`` counts inner steps, each of which performs one
    projection onto the feasible set.
    """

    minimizer: np.ndarray
    certificate_gap: float = float("nan")
    inner_iterations: int = 1
    converged: bool = True
    diagnostic: str | None = None


def objective(f: Bifunction, w, x, lam: float, y) -> float:
    """The subproblem objective lam*f(w, y) + 0.5*||x - y||^2."""
    return lam * f.value(w, y) + 0.5 * float((x - y) @ (x - y))


def probe_rng(certify_probes: int, seed: int, n: int, i: int):
    """Certificate-probe generator for inner solve i of outer iteration n."""
    return np.random.default_rng((seed, n, i)) if certify_probes > 0 else None


def solve_prox(
    f: Bifunction,
    w: np.ndarray,
    x: np.ndarray,
    lam: float,
    set_: FeasibleSet,
    tol: float | None = None,
    max_inner: int = MAX_INNER,
    certify_probes: int = 0,
    rng: np.random.Generator | None = None,
) -> ProxResult:
    """Minimize lam*f(w, .) + 0.5*||x - .||^2 over the feasible set.

    ``tol`` is a displacement tolerance for the iterative routes (defaults
    per route); exact routes ignore it.  When ``certify_probes`` > 0 the
    result carries a sampled optimality certificate.
    """
    if not lam > 0.0:
        raise ValueError("prox step lam must be positive")

    if isinstance(f, ViInducedBifunction):
        result = ProxResult(minimizer=_vi_rows(f.operator(w)[None], x, lam, set_)[0])
    elif isinstance(f, AffineQuadraticBifunction):
        diag = _separable_diagonal(f, set_)
        if diag is None:
            result = _ProjectedGradientStack([f], lam, set_).solve(w, x, tol, max_inner)[1][0]
        else:
            diag = diag[None]
            y = _coordinatewise_rows(f.P[None], f.q[None], diag, _denominator(diag, lam),
                                     w, x, lam, set_)[0]
            result = ProxResult(minimizer=y)
    else:
        result = _solve_blackbox(f, w, x, lam, set_, tol, max_inner)
        _require_finite(result.minimizer)

    if certify_probes > 0:
        result.certificate_gap = certify_prox(
            f, w, x, lam, set_, result.minimizer, certify_probes, rng=rng
        )
    return result


class ProxSystem:
    """The N subproblems of one run: bifunctions ``fs``, step ``lam`` and
    set ``set_`` fixed, anchors and centre given per call.
    """

    def __init__(self, fs: list[Bifunction], lam: float, set_: FeasibleSet,
                 certify_probes: int = 0, seed: int = 0):
        self.fs, self.lam, self.set_ = fs, lam, set_
        self.certify_probes, self.seed = certify_probes, seed
        self._stack = None
        if certify_probes > 0:
            return
        if all(isinstance(f, ViInducedBifunction)
               and isinstance(f.operator, AffineOperator) for f in fs):
            self._stack = _AffineViStack(fs, lam, set_)
        elif all(isinstance(f, AffineQuadraticBifunction) for f in fs):
            diags = [_separable_diagonal(f, set_) for f in fs]
            if all(diag is not None for diag in diags):
                self._stack = _CoordinatewiseStack(fs, lam, set_, diags)
            elif all(diag is None for diag in diags):
                self._stack = _ProjectedGradientStack(fs, lam, set_)

    def solve(self, W: np.ndarray, x: np.ndarray, n: int) -> tuple[np.ndarray, list[ProxResult]]:
        """All N subproblems at outer iteration n, subproblem i anchored at W
        (one shared 1-D anchor) or at row W[i].

        Returns the (N, d) stack of minimizers and the N results, each equal
        bit for bit to ``solve_prox`` on its row, with the certificate
        generator ``probe_rng(certify_probes, seed, n, i)``.
        """
        if self._stack is not None:
            return self._stack.solve(W, x, None, MAX_INNER)
        results = [
            solve_prox(f, W if W.ndim == 1 else W[i], x, self.lam, self.set_,
                       certify_probes=self.certify_probes,
                       rng=probe_rng(self.certify_probes, self.seed, n, i))
            for i, f in enumerate(self.fs)
        ]
        return np.array([r.minimizer for r in results]), results


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


def _row_projector(set_: FeasibleSet):
    """The map projecting each row of a (k, d) stack onto the set."""
    if isinstance(set_, ROWWISE_SETS):
        return set_.project
    return lambda Y: np.array([set_.project(y) for y in Y])


def _vi_rows(A: np.ndarray, x, lam, set_) -> np.ndarray:
    """Exact operator-induced minimizers P_C(x - lam*A_i), one per row of
    the operator values A."""
    Y = _row_projector(set_)(x - lam * A)
    _require_finite(Y)
    return Y


def _separable_diagonal(f: AffineQuadraticBifunction, set_: FeasibleSet):
    """The diagonal of Q when the subproblem separates by coordinates (Q
    diagonal, and the set a box or the whole space), else None."""
    return f.diagonal if isinstance(set_, ROWWISE_SETS) else None


def _denominator(diag, lam):
    """1 + 2 lam diag for the coordinatewise solve, or None when an entry is
    not positive (the subproblem is not strongly convex)."""
    denom = 1.0 + 2.0 * lam * diag
    return None if np.any(denom <= 0.0) else denom


def _coordinatewise_rows(P, q, diag, denom, W, x, lam, set_) -> np.ndarray:
    """Exact affine-quadratic minimizers for rows with diagonal Q_i (entries
    ``diag``, ``denom`` from ``_denominator``): a coordinatewise solve, then
    the projection."""
    if denom is None:
        raise NonFiniteObjective("subproblem is not strongly convex (Q too negative)")
    c = _matvec(P, W) + q
    Y = _row_projector(set_)((x - lam * c + lam * diag * W) / denom)
    _require_finite(Y)
    return Y


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


class _AffineViStack:
    """Operators M_i y + q_i stacked once per run."""

    def __init__(self, fs, lam, set_):
        self.lam, self.set_ = lam, set_
        self.M = np.stack([f.operator.M for f in fs])
        self.q = np.stack([f.operator.q for f in fs])

    def solve(self, W, x, tol, max_inner):
        Y = _vi_rows(_matvec(self.M, W) + self.q, x, self.lam, self.set_)
        return Y, [ProxResult(minimizer=y) for y in Y]


class _CoordinatewiseStack:
    """Affine-quadratic bifunctions with diagonal Q_i stacked once per run."""

    def __init__(self, fs, lam, set_, diags):
        self.lam, self.set_ = lam, set_
        self.P = np.stack([f.P for f in fs])
        self.q = np.stack([f.q for f in fs])
        self.diag = np.stack(diags)
        self.denom = _denominator(self.diag, lam)

    def solve(self, W, x, tol, max_inner):
        Y = _coordinatewise_rows(self.P, self.q, self.diag, self.denom, W, x,
                                 self.lam, self.set_)
        return Y, [ProxResult(minimizer=y) for y in Y]


class _ProjectedGradientStack:
    """Affine-quadratic bifunctions <P_i w + Q_i y + q_i, y - w> stacked once,
    solved by projected gradient with the step 1/L for the gradient's
    Lipschitz constant L = 1 + lam*||Q_i + Q_i^T|| (linear convergence from
    1-strong convexity)."""

    def __init__(self, fs, lam, set_):
        self.lam, self.set_ = lam, set_
        self.P = np.stack([f.P for f in fs])
        self.q = np.stack([f.q for f in fs])
        Q = np.stack([f.Q for f in fs])
        self.QT = Q.transpose(0, 2, 1)
        self.sym = Q + self.QT
        self.step = 1.0 / (1.0 + lam * np.array([f.sym_norm() for f in fs]))

    def solve(self, W, x, tol, max_inner):
        """One loop over the stack.  A row stops at the first step whose
        displacement is within ``tol``; a row still moving after
        ``max_inner`` steps is returned unconverged."""
        bound = _squared_bound(TOL_PROJECTED_GRADIENT if tol is None else tol)
        lam, set_ = self.lam, self.set_
        project, matmul = _row_projector(set_), np.matmul
        shift = x - lam * (_matvec(self.P, W) + self.q) + lam * _matvec(self.QT, W)
        out = np.empty_like(shift)
        steps: list[int | None] = [None] * shift.shape[0]
        live = np.arange(shift.shape[0])
        sym, step = self.sym, self.step[:, None]
        Y = np.tile(set_.project(x), (live.size, 1))
        for it in range(1, max_inner + 1):
            grad = Y + lam * matmul(sym, Y[..., None])[..., 0] - shift
            Y_new = project(Y - step * grad)
            done = row_dots(Y_new - Y) <= bound
            if np.count_nonzero(done):
                out[live[done]] = Y_new[done]
                for i in live[done]:
                    steps[i] = it + 1
                keep = ~done
                live, sym, step, shift, Y_new = (
                    live[keep], sym[keep], step[keep], shift[keep], Y_new[keep]
                )
                if not live.size:
                    break
            Y = Y_new
        else:
            out[live] = Y
        _require_finite(out)
        return out, [
            ProxResult(minimizer=y, inner_iterations=s) if s is not None else
            ProxResult(minimizer=y, inner_iterations=max_inner, converged=False,
                       diagnostic=f"projected gradient hit {max_inner} iterations")
            for y, s in zip(out, steps)
        ]


def _solve_blackbox(f, w, x, lam, set_, tol, max_inner):
    tol = TOL_SUBGRADIENT if tol is None else tol
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
            return ProxResult(minimizer=target, inner_iterations=it + 1)
        if averaging_from is None:
            window.append(residual)
            if len(window) >= 25 and window[-1] > 0.95 * window[0]:
                # No contraction: damp toward a Cesaro-style average.
                averaging_from = it
            window = window[-25:]
        if averaging_from is not None:
            beta = 2.0 / (it - averaging_from + 2.0)
        y = y + beta * (target - y)
        if not np.isfinite(y).all():
            raise NonFiniteObjective("subgradient iteration diverged")
    return ProxResult(
        minimizer=best,
        inner_iterations=max_inner,
        converged=False,
        diagnostic=f"subgradient scheme hit {max_inner} iterations "
        f"(best residual {best_res:.3e})",
    )


def certify_prox(
    f: Bifunction,
    w: np.ndarray,
    x: np.ndarray,
    lam: float,
    set_: FeasibleSet,
    result: np.ndarray,
    probes: int,
    rng: np.random.Generator | None = None,
) -> float:
    """Sampled optimality certificate for a claimed subproblem minimizer.

    Returns the minimum over random probes y in C of

        <result - x, y - result> - lam*(f(w, result) - f(w, y)),

    which is nonnegative at the true minimizer for every y in C.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    Y = np.atleast_2d(set_.sample(rng, probes))
    lhs = (Y - result) @ (result - x)
    gaps = lhs - lam * (f.value(w, result) - f.value_batch(w, Y))
    return float(np.min(gaps))
