"""Problem-file ingestion, the reference oracle, and run/compare drivers."""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import ArmijoParams, run_armijo_hybrid, run_hybrid_extragradient
from .errors import (
    ConstantsMissing,
    DegenerateCut,
    EmptyF,
    OracleUnavailable,
    ParameterViolation,
    ParseError,
    SchemaError,
)
from .geometry import Ball, Box, HalfspaceCut, Polyhedron, WholeSpace
from .hybrid import (
    RULE_STRICT,
    HybridParams,
    require_one_worker,
    rule_factor,
    run_maxsel_hybrid,
    run_parallel_hybrid,
    run_sequential,
    run_single,
)
from .outcome import SolverOutcome, write_trace
from .problems import (
    AffineOperator,
    AffineQuadraticBifunction,
    AffineSegmentBoxSolution,
    BlackBoxBifunction,
    CsepInstance,
    LipschitzData,
    SingletonSolution,
    ViInducedBifunction,
)

HYBRID_ALGORITHMS = ("parallel", "maxsel", "single", "sequential")
ALGORITHMS = HYBRID_ALGORITHMS + ("extragradient", "armijo")
SINGLE_ONLY = ("single", "extragradient", "armijo")

# Named black-box bifunctions available to problem files.
_BLACKBOX_REGISTRY: dict[str, tuple] = {}


def register_blackbox(name: str, eval_fn, subgrad2_fn) -> None:
    """Expose a black-box bifunction to problem files under ``name``."""
    _BLACKBOX_REGISTRY[name] = (eval_fn, subgrad2_fn)


register_blackbox("zero", lambda x, y: 0.0, lambda x, y: np.zeros_like(x))


def _require(mapping, key, path):
    if key not in mapping:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return mapping[key]


def _as_vector(value, dim, path):
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or arr.size != dim:
        raise SchemaError(f"{path}: expected a vector of length {dim}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: contains non-finite entries")
    return arr


def _as_matrix(value, dim, path):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim, dim):
        raise SchemaError(f"{path}: expected a {dim}x{dim} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: contains non-finite entries")
    return arr


def _parse_set(doc, dim):
    kind = _require(doc, "type", "set")
    if kind == "box":
        return Box(
            _as_vector(_require(doc, "lower", "set"), dim, "set.lower"),
            _as_vector(_require(doc, "upper", "set"), dim, "set.upper"),
        )
    if kind == "ball":
        return Ball(
            _as_vector(_require(doc, "center", "set"), dim, "set.center"),
            float(_require(doc, "radius", "set")),
        )
    if kind == "polyhedron":
        cuts = []
        for i, c in enumerate(_require(doc, "cuts", "set")):
            path = f"set.cuts[{i}]"
            normal = _as_vector(_require(c, "normal", path), dim, f"{path}.normal")
            offset = float(_require(c, "offset", path))
            try:
                cuts.append(HalfspaceCut(normal, offset))
            except (DegenerateCut, ValueError) as exc:
                raise SchemaError(f"{path}: {exc}") from exc
        return Polyhedron(cuts)
    if kind == "whole_space":
        return WholeSpace(dim)
    raise SchemaError(f"set.type: unknown variant {kind!r}")


def _parse_lipschitz(doc, path):
    has_c1 = "c1" in doc
    has_c2 = "c2" in doc
    if has_c1 != has_c2:
        raise SchemaError(f"{path}: c1 and c2 must be given together")
    if has_c1:
        try:
            return LipschitzData(float(doc["c1"]), float(doc["c2"]))
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    return None


def _parse_bifunction(doc, dim, index):
    path = f"bifunctions[{index}]"
    kind = _require(doc, "type", path)
    lipschitz = _parse_lipschitz(doc, path)
    if kind == "vi_affine":
        M = _as_matrix(_require(doc, "M", path), dim, f"{path}.M")
        q = _as_vector(doc.get("q", np.zeros(dim)), dim, f"{path}.q")
        L = float(doc["L"]) if "L" in doc else None
        return ViInducedBifunction(AffineOperator(M, q, L), lipschitz)
    if kind == "affine_quadratic":
        P = _as_matrix(_require(doc, "P", path), dim, f"{path}.P")
        Q = _as_matrix(_require(doc, "Q", path), dim, f"{path}.Q")
        q = _as_vector(doc.get("q", np.zeros(dim)), dim, f"{path}.q")
        return AffineQuadraticBifunction(P, Q, q, lipschitz)
    if kind == "blackbox":
        if lipschitz is None:
            raise ConstantsMissing(
                f"{path}: black-box bifunctions need explicit c1, c2"
            )
        name = _require(doc, "name", path)
        if name not in _BLACKBOX_REGISTRY:
            raise SchemaError(f"{path}.name: no registered bifunction {name!r}")
        eval_fn, subgrad_fn = _BLACKBOX_REGISTRY[name]
        return BlackBoxBifunction(eval_fn, subgrad_fn, lipschitz)
    raise SchemaError(f"{path}.type: unknown variant {kind!r}")


def _parse_known_solution(doc, dim):
    kind = _require(doc, "type", "known_solution")
    if kind == "singleton":
        return SingletonSolution(
            _as_vector(_require(doc, "point", "known_solution"), dim,
                       "known_solution.point")
        )
    if kind == "affine_segment_box":
        fixed = {
            int(j): float(v)
            for j, v in _require(doc, "fixed", "known_solution").items()
        }
        return AffineSegmentBoxSolution(
            fixed,
            _as_vector(_require(doc, "lower", "known_solution"), dim,
                       "known_solution.lower"),
            _as_vector(_require(doc, "upper", "known_solution"), dim,
                       "known_solution.upper"),
        )
    raise SchemaError(f"known_solution.type: unknown variant {kind!r}")


def load_problem(path: str) -> CsepInstance:
    """Read and validate a JSON problem file.

    Raises ParseError for syntactic defects, SchemaError (naming the field)
    for structural ones, and ConstantsMissing when a black-box bifunction
    omits its constants.  Every bifunction of the returned instance has
    usable Lipschitz-type constants.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc

    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    dim = _require(doc, "dimension", "top level")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError("dimension: must be a positive integer")
    set_ = _parse_set(_require(doc, "set", "top level"), dim)
    bif_docs = _require(doc, "bifunctions", "top level")
    if not bif_docs:
        raise SchemaError("bifunctions: must be a nonempty list")
    bifunctions = [_parse_bifunction(b, dim, i) for i, b in enumerate(bif_docs)]
    x0 = _as_vector(_require(doc, "x0", "top level"), dim, "x0")
    known = None
    if doc.get("known_solution") is not None:
        known = _parse_known_solution(doc["known_solution"], dim)
    instance = CsepInstance(dim, set_, bifunctions, x0, known)
    for i, f in enumerate(instance.bifunctions):
        try:
            f.lipschitz_data()
        except Exception as exc:
            raise ConstantsMissing(f"bifunctions[{i}]: {exc}") from exc
    return instance


# ---------------------------------------------------------------------------
# Reference oracle
# ---------------------------------------------------------------------------

BRUTE_FORCE_MAX_DIM = 3
_GRID_POINTS_PER_AXIS = {1: 2001, 2: 401, 3: 101}


def _vi_violation(M, q, lower, upper, X):
    """Exact inequality residual of each row of X as a candidate solution.

    For g = A(x), the worst inner product <g, y - x> over the box is computed
    in closed form, so the residual is zero exactly on the solution set.
    """
    G = X @ M.T + q
    best = np.minimum(G * lower, G * upper).sum(axis=1)
    return np.einsum("ij,ij->i", G, X) - best


def _combined_violation(instance, X):
    X = np.atleast_2d(X)
    worst = np.zeros(X.shape[0])
    for f in instance.bifunctions:
        op = f.operator
        v = _vi_violation(op.M, op.q, instance.set.lower, instance.set.upper, X)
        np.maximum(worst, v, out=worst)
    return worst


def _refine_candidate(instance, x_start, x0, mesh):
    """Shrinking-mesh pattern search on distance-to-x0 with an exact penalty
    on the solution-set residual; exact for the convex instances this oracle
    accepts."""
    lower, upper = instance.set.lower, instance.set.upper
    rho = 1e6

    def score(pts):
        pen = _combined_violation(instance, pts)
        return np.linalg.norm(pts - x0, axis=1) + rho * np.maximum(pen, 0.0)

    d = x0.size
    offsets = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        offsets.extend((e, -e))
    offsets = np.array(offsets)

    x = x_start.copy()
    best = float(score(x[None, :])[0])
    while mesh > 1e-7:
        trial = np.clip(x + mesh * offsets, lower, upper)
        vals = score(trial)
        j = int(np.argmin(vals))
        if vals[j] < best - 1e-15:
            x = trial[j]
            best = float(vals[j])
        else:
            mesh *= 0.5
    return x


def reference_solution(instance: CsepInstance) -> np.ndarray:
    """Projection of x0 onto the solution set.

    Uses the analytic description when present.  Otherwise, for systems of
    affine variational inequalities over a box in dimension <= 3, scans a
    grid with the exact per-point solution test, keeps near-solutions, and
    refines the one closest to x0 by a shrinking-mesh search down to 1e-6.
    """
    ref = instance.reference_point()
    if ref is not None:
        return ref

    if instance.dimension > BRUTE_FORCE_MAX_DIM:
        raise OracleUnavailable(
            f"no analytic solution description and dimension "
            f"{instance.dimension} > {BRUTE_FORCE_MAX_DIM}"
        )
    if not isinstance(instance.set, Box):
        raise OracleUnavailable("brute force needs a box feasible set")
    for f in instance.bifunctions:
        if not (isinstance(f, ViInducedBifunction)
                and isinstance(f.operator, AffineOperator)):
            raise OracleUnavailable(
                "brute force needs affine operator-induced bifunctions"
            )

    d = instance.dimension
    lower, upper = instance.set.lower, instance.set.upper
    n_axis = _GRID_POINTS_PER_AXIS[d]
    axes = [np.linspace(lower[j], upper[j], n_axis) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    h = float(np.max((upper - lower) / (n_axis - 1)))

    worst = _combined_violation(instance, X)
    # Residuals vary at Lipschitz rate over one cell; keep every candidate a
    # cell could hide.
    rate = 0.0
    for f in instance.bifunctions:
        op = f.operator
        g_max = float(np.max(np.linalg.norm(X @ op.M.T + op.q, axis=1)))
        rate = max(rate, op.lipschitz_L * float(np.linalg.norm(upper - lower)) + g_max)
    tau = 2.0 * np.sqrt(d) * h * rate + 1e-12
    candidates = X[worst <= tau]
    if candidates.shape[0] == 0:
        raise EmptyF("no grid point passes the common-solution test")

    x0 = instance.x0
    order = np.argsort(np.linalg.norm(candidates - x0, axis=1))
    best = None
    best_dist = np.inf
    for idx in order[: min(8, candidates.shape[0])]:
        refined = _refine_candidate(instance, candidates[idx], x0, 2.0 * h)
        if float(_combined_violation(instance, refined[None, :])[0]) <= 1e-6:
            dist = float(np.linalg.norm(refined - x0))
            if dist < best_dist:
                best, best_dist = refined, dist
    if best is None:
        raise EmptyF("grid candidates did not survive refinement")
    return best


# ---------------------------------------------------------------------------
# Run driver and comparison
# ---------------------------------------------------------------------------


@dataclass
class RunSpec:
    """One solver invocation: problem, algorithm, parameters, outputs.

    ``workers`` accepts only 1; subproblems are solved serially.
    """

    problem_path: str
    algorithm: str
    lam: float | None = None
    k: float | None = None
    eta: float = 0.5
    tol: float = 1e-8
    max_outer: int = 100_000
    rule: str = RULE_STRICT
    seed: int = 0
    workers: int = 1
    certify_probes: int = 0
    trace_path: str | None = None
    summary_path: str | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterViolation(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        require_one_worker(self.workers)
        if self.certify_probes < 0:
            raise ParameterViolation(f"certify_probes={self.certify_probes} must be >= 0")


def derive_default_params(instance: CsepInstance, rule: str = RULE_STRICT):
    """Admissible (lam, k) derived from the instance's constants: lam at half
    the bound, k at twice its floor."""
    c1, c2 = instance.lipschitz_max()
    factor = rule_factor(rule)
    lam = 1.0 / (2.0 * factor * (c1 + c2))
    k = 2.0 / (1.0 - factor * lam * (c1 + c2))
    return lam, k


def extragradient_default_lam(instance: CsepInstance) -> float:
    c1, c2 = instance.lipschitz_max()
    return 0.45 * min(1.0 / c1 if c1 > 0 else np.inf,
                      1.0 / c2 if c2 > 0 else np.inf)


def run(spec: RunSpec) -> SolverOutcome:
    """Load the problem, execute the selected algorithm, write outputs.

    The reference projection (analytic or brute force) is attached when
    available so the trace carries distances and the per-iteration checks
    run against a known solution.
    """
    instance = load_problem(spec.problem_path)
    if spec.algorithm in SINGLE_ONLY and instance.n_problems != 1:
        raise ParameterViolation(
            f"algorithm {spec.algorithm!r} requires N = 1, got N = {instance.n_problems}"
        )
    try:
        known = reference_solution(instance)
    except (OracleUnavailable, EmptyF):
        known = None

    common = dict(
        known_point=known,
        certify_probes=spec.certify_probes,
        seed=spec.seed,
    )
    # Derived defaults go into the spec, so the summary records them.
    if spec.algorithm in HYBRID_ALGORITHMS:
        d_lam, d_k = derive_default_params(instance, spec.rule)
    elif spec.algorithm == "extragradient":
        d_lam, d_k = extragradient_default_lam(instance), None
    else:
        d_lam, d_k = derive_default_params(instance)[0], None
    spec = replace(spec, lam=d_lam if spec.lam is None else spec.lam,
                   k=d_k if spec.k is None else spec.k)
    t0 = time.perf_counter()
    if spec.algorithm in HYBRID_ALGORITHMS:
        params = HybridParams(lam=spec.lam, k=spec.k, tol=spec.tol,
                              max_outer=spec.max_outer, rule=spec.rule)
        runner = {
            "parallel": run_parallel_hybrid,
            "maxsel": run_maxsel_hybrid,
            "single": run_single,
            "sequential": run_sequential,
        }[spec.algorithm]
        outcome = runner(instance, params, workers=spec.workers, **common)
    elif spec.algorithm == "extragradient":
        outcome = run_hybrid_extragradient(
            instance, spec.lam, tol=spec.tol, max_outer=spec.max_outer, **common
        )
    else:
        outcome = run_armijo_hybrid(
            instance, ArmijoParams(eta=spec.eta, lam=spec.lam),
            tol=spec.tol, max_outer=spec.max_outer, **common
        )
    wall_ms = (time.perf_counter() - t0) * 1e3

    if spec.trace_path:
        write_trace(spec.trace_path, outcome.trace)
    if spec.summary_path:
        parent = os.path.dirname(spec.summary_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(spec.summary_path, "w", encoding="utf-8") as fh:
            json.dump(summarize(spec, outcome, wall_ms), fh, indent=2)
            fh.write("\n")
    return outcome


def summarize(spec: RunSpec, outcome: SolverOutcome, wall_ms: float) -> dict:
    """The run record: outcome, work counters, the parameters in ``spec``
    (``k`` and ``rule`` for the hybrid variants, ``eta`` for armijo), the
    versions of csepsolve, numpy and Python, and the first unconverged inner
    solve when there was one.  A ``RunSpec`` built from these fields
    reproduces ``final_x`` bit for bit on the same versions."""
    summary = {
        "problem": spec.problem_path,
        "algorithm": spec.algorithm,
        "lam": spec.lam,
        "final_x": [float(v) for v in outcome.final_x],
        "stop_reason": outcome.stop_reason,
        "iterations": outcome.iterations,
        "invariant_violations": dict(outcome.invariant_violations),
        "counters": {
            "prox_solves": outcome.counters.prox_solves,
            "set_projections": outcome.counters.set_projections,
            "prox_nonconverged": outcome.counters.prox_nonconverged,
        },
        "wall_ms": wall_ms,
        "seed": spec.seed,
        "tol": spec.tol,
        "max_outer": spec.max_outer,
        "certify_probes": spec.certify_probes,
        "versions": {
            "csepsolve": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if spec.algorithm in HYBRID_ALGORITHMS:
        summary["k"] = spec.k
        summary["rule"] = spec.rule
    elif spec.algorithm == "armijo":
        summary["eta"] = spec.eta
    if not np.isnan(outcome.min_prox_certificate):
        summary["min_prox_certificate"] = outcome.min_prox_certificate
    dist = outcome.final_dist_to_known()
    if not np.isnan(dist):
        summary["dist_to_oracle"] = dist
    if outcome.first_nonconverged is not None:
        summary["first_prox_nonconverged"] = asdict(outcome.first_nonconverged)
    if outcome.error:
        summary["error"] = outcome.error
    return summary


@dataclass
class MethodRow:
    algorithm: str
    stop_reason: str
    iterations: int
    prox_solves: int
    prox_per_iteration: float
    set_projections: int
    wall_ms: float
    final_dist_to_oracle: float


@dataclass
class ComparisonReport:
    """Per-method cost and accuracy table for one shared problem."""

    problem_path: str
    rows: list[MethodRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"problem": self.problem_path, "rows": [asdict(r) for r in self.rows]}

    def to_text(self) -> str:
        header = (
            f"{'algorithm':<14}{'stop':<10}{'iters':>8}{'prox':>8}"
            f"{'prox/it':>9}{'proj_C':>8}{'wall_ms':>10}{'dist':>12}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            dist = f"{r.final_dist_to_oracle:.2e}" if np.isfinite(r.final_dist_to_oracle) else "-"
            lines.append(
                f"{r.algorithm:<14}{r.stop_reason:<10}{r.iterations:>8d}"
                f"{r.prox_solves:>8d}{r.prox_per_iteration:>9.2f}"
                f"{r.set_projections:>8d}{r.wall_ms:>10.1f}{dist:>12}"
            )
        return "\n".join(lines)


def compare(specs: list[RunSpec]) -> ComparisonReport:
    """Run each spec (all on one problem) and tabulate cost and accuracy."""
    paths = {s.problem_path for s in specs}
    if len(paths) != 1:
        raise ParameterViolation("compare requires all specs to share one problem")
    report = ComparisonReport(problem_path=specs[0].problem_path)
    for spec in specs:
        t0 = time.perf_counter()
        outcome = run(spec)
        wall_ms = (time.perf_counter() - t0) * 1e3
        report.rows.append(
            MethodRow(
                algorithm=spec.algorithm,
                stop_reason=outcome.stop_reason,
                iterations=outcome.iterations,
                prox_solves=outcome.counters.prox_solves,
                prox_per_iteration=(
                    outcome.counters.prox_solves / outcome.iterations
                    if outcome.iterations
                    else float("nan")
                ),
                set_projections=outcome.counters.set_projections,
                wall_ms=wall_ms,
                final_dist_to_oracle=outcome.final_dist_to_known(),
            )
        )
    return report
