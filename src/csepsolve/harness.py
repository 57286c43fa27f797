"""Problem-file ingestion, the reference oracle, and run/compare drivers."""

from __future__ import annotations

import itertools
import json
import platform
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import __version__
from .baselines import (
    ArmijoParams,
    extragradient_lam_cap,
    run_armijo_hybrid,
    run_hybrid_extragradient,
)
from .errors import (
    ConstantsMissing,
    DegenerateCut,
    DimensionMismatch,
    EmptyF,
    EmptyIntersection,
    OracleUnavailable,
    ParameterViolation,
    ParseError,
    SchemaError,
)
from .geometry import (
    Ball,
    Box,
    CutStack,
    HalfspaceCut,
    Polyhedron,
    WholeSpace,
    norm,
    project_halfspace_intersection,
)
from .hybrid import (
    RULE_STRICT,
    HybridParams,
    k_floor,
    lam_bound,
    require_one_worker,
    run_maxsel_hybrid,
    run_parallel_hybrid,
    run_sequential,
    run_single,
)
from .outcome import SolverOutcome, create_file, write_trace
from .problems import (
    AffineOperator,
    AffineQuadraticBifunction,
    BlackBoxBifunction,
    CsepInstance,
    LipschitzData,
    SingletonSolution,
    ViInducedBifunction,
)

# The runner of each hybrid; the two baselines take their own parameters.
HYBRID_RUNNERS = {
    "parallel": run_parallel_hybrid,
    "maxsel": run_maxsel_hybrid,
    "single": run_single,
    "sequential": run_sequential,
}
ALGORITHMS = (*HYBRID_RUNNERS, "extragradient", "armijo")

# Named black-box bifunctions available to problem files.
_BLACKBOX_REGISTRY: dict[str, tuple] = {}


def register_blackbox(name: str, eval_fn, subgrad2_fn) -> None:
    """Expose a black-box bifunction to problem files under ``name``."""
    _BLACKBOX_REGISTRY[name] = (eval_fn, subgrad2_fn)


register_blackbox("zero", lambda x, y: 0.0, lambda x, y: np.zeros_like(x))


def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in mapping:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return mapping[key]


def _as_number(value, path):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{path}: expected a number, got {value!r}") from None


def _as_array(value, shape, path):
    """``value`` as a float array of ``shape`` with finite entries, or a
    SchemaError naming ``path``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: expected an array of numbers ({exc})") from None
    if arr.shape != shape:
        raise SchemaError(f"{path}: expected shape {shape}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise SchemaError(f"{path}: contains non-finite entries")
    return arr


def _construct(path, cls, *args):
    """``cls(*args)``, with the errors its constructor raises for bad data
    re-raised as a SchemaError naming ``path``."""
    try:
        return cls(*args)
    except (DegenerateCut, DimensionMismatch, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_set(doc, dim, path):
    """The set that ``doc`` describes, each error naming its field under
    ``path``."""
    kind = _require(doc, "type", path)
    if kind == "box":
        return _construct(
            path, Box,
            _as_array(_require(doc, "lower", path), (dim,), f"{path}.lower"),
            _as_array(_require(doc, "upper", path), (dim,), f"{path}.upper"),
        )
    if kind == "ball":
        return _construct(
            f"{path}.radius", Ball,
            _as_array(_require(doc, "center", path), (dim,), f"{path}.center"),
            _as_number(_require(doc, "radius", path), f"{path}.radius"),
        )
    if kind == "polyhedron":
        cut_docs = _require(doc, "cuts", path)
        if not isinstance(cut_docs, list):
            raise SchemaError(f"{path}.cuts: expected a list")
        cuts = []
        for i, c in enumerate(cut_docs):
            at = f"{path}.cuts[{i}]"
            normal = _as_array(_require(c, "normal", at), (dim,), f"{at}.normal")
            offset = _as_number(_require(c, "offset", at), f"{at}.offset")
            cuts.append(_construct(at, HalfspaceCut, normal, offset))
        return _construct(f"{path}.cuts", Polyhedron, cuts)
    if kind == "whole_space":
        return WholeSpace(dim)
    raise SchemaError(f"{path}.type: unknown variant {kind!r}")


def _parse_lipschitz(doc, path):
    has_c1 = "c1" in doc
    has_c2 = "c2" in doc
    if has_c1 != has_c2:
        raise SchemaError(f"{path}: c1 and c2 must be given together")
    if has_c1:
        return _construct(path, LipschitzData, _as_number(doc["c1"], f"{path}.c1"),
                          _as_number(doc["c2"], f"{path}.c2"))
    return None


def _parse_bifunction(doc, dim, index):
    path = f"bifunctions[{index}]"
    kind = _require(doc, "type", path)
    lipschitz = _parse_lipschitz(doc, path)
    if kind == "vi_affine":
        M = _as_array(_require(doc, "M", path), (dim, dim), f"{path}.M")
        q = _as_array(doc.get("q", np.zeros(dim)), (dim,), f"{path}.q")
        L = _as_number(doc["L"], f"{path}.L") if "L" in doc else None
        return ViInducedBifunction(_construct(f"{path}.L", AffineOperator, M, q, L), lipschitz)
    if kind == "affine_quadratic":
        P = _as_array(_require(doc, "P", path), (dim, dim), f"{path}.P")
        Q = _as_array(_require(doc, "Q", path), (dim, dim), f"{path}.Q")
        q = _as_array(doc.get("q", np.zeros(dim)), (dim,), f"{path}.q")
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
    """The known solution set that ``doc`` describes: the one-point box of a
    ``singleton``, or the box of an ``affine_segment_box`` with each fixed
    coordinate's bounds pinned to its value."""
    kind = _require(doc, "type", "known_solution")
    if kind == "singleton":
        return SingletonSolution(_as_array(_require(doc, "point", "known_solution"),
                                           (dim,), "known_solution.point"))
    if kind == "affine_segment_box":
        fixed = _require(doc, "fixed", "known_solution")
        if not isinstance(fixed, dict):
            raise SchemaError("known_solution.fixed: expected an object")
        # the bounds first, so that an inverted box is named as such
        box = _parse_set({**doc, "type": "box"}, dim, "known_solution")
        pinned = set()
        for key, value in fixed.items():
            path = f"known_solution.fixed.{key}"
            v, j = _as_number(value, path), _construct(path, int, key)
            if not 0 <= j < dim:
                raise SchemaError(f"{path}: fixed coordinate {j} out of range")
            if j in pinned:
                raise SchemaError(f"{path}: coordinate {j} is fixed twice")
            pinned.add(j)
            if not box.lower[j] - 1e-12 <= v <= box.upper[j] + 1e-12:
                raise SchemaError(f"{path}: fixed value {v:g} outside the box in coordinate {j}")
            box.lower[j] = box.upper[j] = v
        return box
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
    set_ = _parse_set(_require(doc, "set", "top level"), dim, "set")
    bif_docs = _require(doc, "bifunctions", "top level")
    if not isinstance(bif_docs, list) or not bif_docs:
        raise SchemaError("bifunctions: must be a nonempty list")
    bifunctions = [_parse_bifunction(b, dim, i) for i, b in enumerate(bif_docs)]
    x0 = _as_array(_require(doc, "x0", "top level"), (dim,), "x0")
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


def _face_cuts(ops, lower, upper, face):
    """The cuts whose intersection is the common solution set on one face of
    the box: by coordinate, state 0 holds x_j = l_j with A(x)_j >= 0, state 1
    x_j = u_j with A(x)_j <= 0, state 2 l_j <= x_j <= u_j with A(x)_j = 0,
    for every operator (M, q), and a coordinate with l_j = u_j only its
    bounds; an equality is two opposite cuts."""
    eye = np.eye(lower.size)
    normals, offsets = [], []
    for j, state in enumerate(face):
        lo = upper[j] if state == 1 else lower[j]
        hi = lower[j] if state == 0 else upper[j]
        normals += [eye[j], -eye[j]]
        offsets += [hi, -lo]
        signs = ((-1.0,), (1.0,), (1.0, -1.0))[state] if lower[j] < upper[j] else ()
        for sign in signs:
            for M, q in ops:
                normals.append(sign * M[j])
                offsets.append(-sign * q[j])
    return CutStack(normals, offsets)


def reference_solution(instance: CsepInstance) -> np.ndarray:
    """Projection of x0 onto the solution set.

    Uses the analytic description when present.  Otherwise, for systems of
    affine variational inequalities over a box in dimension <= 3, the
    solution set is the union over the 3^d faces of the box of the
    polyhedra ``_face_cuts``: x0 is projected onto each with the exact
    ``project_halfspace_intersection`` and the nearest result is returned,
    the first face on a tie.  A face whose cuts are contradictory or empty
    holds no solution; EmptyF is raised when no face holds one.
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
        raise OracleUnavailable("the face oracle needs a box feasible set")
    for f in instance.bifunctions:
        if not (isinstance(f, ViInducedBifunction)
                and isinstance(f.operator, AffineOperator)):
            raise OracleUnavailable(
                "the face oracle needs affine operator-induced bifunctions"
            )

    ops = [(f.operator.M, f.operator.q) for f in instance.bifunctions]
    lower, upper, x0 = instance.set.lower, instance.set.upper, instance.x0
    best, best_dist = None, np.inf
    for face in itertools.product(range(3), repeat=instance.dimension):
        try:
            x = project_halfspace_intersection(_face_cuts(ops, lower, upper, face), x0)
        except (DegenerateCut, EmptyIntersection):
            continue
        dist = norm(x - x0)
        if dist < best_dist:
            best, best_dist = x, dist
    if best is None:
        raise EmptyF("no face of the box holds a common solution")
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
    the bound ``lam_bound``, k at twice the floor ``k_floor`` there."""
    c1, c2 = instance.lipschitz_max()
    lam = lam_bound(rule, c1, c2) / 2.0
    return lam, 2.0 * k_floor(rule, lam, c1, c2)


def extragradient_default_lam(instance: CsepInstance) -> float:
    """lam at 0.9 times the extragradient baseline's ``extragradient_lam_cap``."""
    return 0.9 * extragradient_lam_cap(*instance.lipschitz_max())


def run(spec: RunSpec) -> SolverOutcome:
    """Load the problem, execute the selected algorithm, write outputs.

    The reference projection (analytic or the face oracle) is attached when
    available so the trace carries distances and the per-iteration checks
    run against a known solution.
    """
    return _execute(spec, *_load(spec.problem_path))


def _load(path: str) -> tuple[CsepInstance, np.ndarray | None]:
    """The problem at ``path`` and its reference projection (None when no
    oracle applies): the part of ``run`` that does not depend on the spec."""
    instance = load_problem(path)
    try:
        known = reference_solution(instance)
    except (OracleUnavailable, EmptyF):
        known = None
    return instance, known


def _execute(spec: RunSpec, instance: CsepInstance, known: np.ndarray | None
             ) -> SolverOutcome:
    """``run`` of ``spec`` on its loaded problem and reference projection.

    Derived defaults go into the spec, so the summary records them.  Each
    runner checks that the instance suits it (N = 1 for ``single`` and the
    baselines)."""
    if spec.algorithm in HYBRID_RUNNERS:
        lam, k = derive_default_params(instance, spec.rule)
        spec = replace(spec, lam=lam if spec.lam is None else spec.lam,
                       k=k if spec.k is None else spec.k)
        solve = partial(HYBRID_RUNNERS[spec.algorithm], instance,
                        HybridParams(lam=spec.lam, k=spec.k, tol=spec.tol,
                                     max_outer=spec.max_outer, rule=spec.rule),
                        workers=spec.workers)
    elif spec.algorithm == "extragradient":
        if spec.lam is None:
            spec = replace(spec, lam=extragradient_default_lam(instance))
        solve = partial(run_hybrid_extragradient, instance, spec.lam, spec.tol, spec.max_outer)
    else:
        if spec.lam is None:
            spec = replace(spec, lam=derive_default_params(instance)[0])
        solve = partial(run_armijo_hybrid, instance, ArmijoParams(eta=spec.eta, lam=spec.lam),
                        spec.tol, spec.max_outer)
    t0 = time.perf_counter()
    outcome = solve(known_point=known, certify_probes=spec.certify_probes, seed=spec.seed)
    wall_ms = (time.perf_counter() - t0) * 1e3

    if spec.trace_path:
        write_trace(spec.trace_path, outcome.trace)
    if spec.summary_path:
        with create_file(spec.summary_path) as fh:
            json.dump(summarize(spec, outcome, wall_ms), fh, indent=2)
            fh.write("\n")
    return outcome


def summarize(spec: RunSpec, outcome: SolverOutcome, wall_ms: float) -> dict:
    """The run record: outcome, the count of each check's violations and
    the first iteration at which it fired (null when it never did), work
    counters, the parameters in ``spec`` (``k`` and ``rule`` for the hybrid
    variants, ``eta`` for armijo), the versions of csepsolve, numpy and
    Python, and the first unconverged inner solve when there was one.  A
    ``RunSpec`` built from these fields reproduces ``final_x`` bit for bit
    on the same versions."""
    summary = {
        "problem": spec.problem_path,
        "algorithm": spec.algorithm,
        "lam": spec.lam,
        "final_x": [float(v) for v in outcome.final_x],
        "stop_reason": outcome.stop_reason,
        "iterations": outcome.iterations,
        "invariant_violations": dict(outcome.invariant_violations),
        "first_violation": dict(outcome.first_violation),
        "counters": asdict(outcome.counters),
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
    if spec.algorithm in HYBRID_RUNNERS:
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
    invariant_violations: int


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
            f"{'prox/it':>9}{'proj_C':>8}{'wall_ms':>10}{'dist':>12}{'viol':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            dist = f"{r.final_dist_to_oracle:.2e}" if np.isfinite(r.final_dist_to_oracle) else "-"
            lines.append(
                f"{r.algorithm:<14}{r.stop_reason:<10}{r.iterations:>8d}"
                f"{r.prox_solves:>8d}{r.prox_per_iteration:>9.2f}"
                f"{r.set_projections:>8d}{r.wall_ms:>10.1f}{dist:>12}"
                f"{r.invariant_violations:>6d}"
            )
        return "\n".join(lines)


def compare(specs: list[RunSpec]) -> ComparisonReport:
    """Run each spec (at least one, all on one problem) and tabulate cost
    and accuracy.

    The problem is loaded and its reference projection computed once; each
    row's ``wall_ms`` times that spec's solve and the writing of its
    outputs.
    """
    if not specs:
        raise ParameterViolation("compare needs at least one algorithm")
    paths = {s.problem_path for s in specs}
    if len(paths) != 1:
        raise ParameterViolation("compare requires all specs to share one problem")
    instance, known = _load(specs[0].problem_path)
    report = ComparisonReport(problem_path=specs[0].problem_path)
    for spec in specs:
        t0 = time.perf_counter()
        outcome = _execute(spec, instance, known)
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
                invariant_violations=outcome.total_violations,
            )
        )
    return report
