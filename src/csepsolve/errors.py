"""Exception types shared across the library."""


class SolverError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(SolverError):
    """Operands live in spaces of different dimension."""


class DegenerateCut(SolverError):
    """A halfspace cut with a numerically zero normal and a negative offset."""


class EmptyIntersection(SolverError):
    """The target intersection of halfspaces is empty."""


class InfeasibleSet(SolverError):
    """A polyhedral feasible set was detected to be empty by the projector."""


class MaxInnerIterationsExceeded(SolverError):
    """An inner iterative routine hit its cycle cap before reaching tolerance."""

    def __init__(self, message, violations=None, best=None):
        super().__init__(message)
        self.violations = violations
        self.best = best


class NonFiniteObjective(SolverError):
    """A subproblem produced NaN or infinite values."""


class UnknownConstants(SolverError):
    """Lipschitz-type constants are neither supplied nor derivable."""


class ParameterViolation(SolverError):
    """Solver parameters fall outside the admissible range."""


class LinesearchFailed(SolverError):
    """The backtracking linesearch exhausted its trial budget."""


class OracleUnavailable(SolverError):
    """No reference solution can be computed for this instance."""


class EmptyF(SolverError):
    """The reference oracle found no common solution."""


class ParseError(SolverError):
    """A problem file is not syntactically valid."""


class SchemaError(SolverError):
    """A problem file does not match the expected schema."""


class ConstantsMissing(SchemaError):
    """A problem file omits required Lipschitz-type constants."""
