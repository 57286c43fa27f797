"""Solvers for common solutions of equilibrium-problem systems.

Hybrid outer-approximation methods that avoid extragradient corrector
steps (each iteration solves one proximal subproblem per equilibrium
problem and projects a fixed anchor onto cutting halfspaces), two
classical baselines for comparison, and a harness that certifies the
per-iteration inequalities behind the convergence guarantees.
"""

# Set before the submodules load: the harness records it in run summaries.
__version__ = "0.1.0"

from .errors import (
    ConstantsMissing,
    DegenerateCut,
    DimensionMismatch,
    EmptyF,
    EmptyIntersection,
    InfeasibleSet,
    LinesearchFailed,
    MaxInnerIterationsExceeded,
    NonFiniteObjective,
    OracleUnavailable,
    ParameterViolation,
    ParseError,
    SchemaError,
    SolverError,
    UnknownConstants,
)
from .geometry import (
    Ball,
    Box,
    CutStack,
    FeasibleSet,
    HalfspaceCut,
    Polyhedron,
    WholeSpace,
    as_point,
    dykstra,
    dykstra_halfspaces,
    project,
    project_halfspace,
    project_halfspace_intersection,
    project_two_halfspaces,
)
from .outcome import (
    STOP_ERROR,
    STOP_MAX_OUTER,
    STOP_TOLERANCE,
    InnerNonconvergence,
    IterationRecord,
    RunCounters,
    SolverOutcome,
    write_trace,
)
from .problems import (
    AffineOperator,
    AffineQuadraticBifunction,
    Bifunction,
    BlackBoxBifunction,
    CallableOperator,
    CsepInstance,
    LipschitzData,
    SingletonSolution,
    ValidationReport,
    ViInducedBifunction,
    default_lipschitz,
    spectral_norm_estimate,
    validate,
)
from .prox import ProxRecord, ProxSystem, certify_prox, solve_prox
from .hybrid import (
    RULE_RELAXED,
    RULE_STRICT,
    HybridParams,
    build_c_cut,
    build_cuts,
    build_q_cut,
    cyclic_index,
    epsilon,
    run_maxsel_hybrid,
    run_parallel_hybrid,
    run_sequential,
    run_single,
    validate_params,
)
from .baselines import (
    ArmijoParams,
    armijo_linesearch,
    armijo_step_size,
    run_armijo_hybrid,
    run_hybrid_extragradient,
)
from .harness import (
    ALGORITHMS,
    ComparisonReport,
    RunSpec,
    compare,
    derive_default_params,
    load_problem,
    reference_solution,
    register_blackbox,
    run,
)
