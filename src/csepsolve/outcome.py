"""Run outcomes, per-iteration trace records, and counters."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

STOP_TOLERANCE = "tolerance"
STOP_MAX_OUTER = "max_outer"
STOP_ERROR = "error"

@dataclass
class IterationRecord:
    """One outer iteration: displacement, residual, correction-term range,
    distance to the known limit (NaN when no oracle), wall time, the number
    of cuts that collapsed to the whole space, and the subproblem that
    defined the C-cut (None for the parallel variant and the baselines)."""

    n: int
    step_norm: float
    residual: float
    eps_min: float
    eps_max: float
    dist_to_known: float
    wall_ms: float
    degenerate_cuts: int
    selected_index: int | None

    def csv_row(self) -> str:
        dist = "" if math.isnan(self.dist_to_known) else f"{self.dist_to_known:.17g}"
        selected = "" if self.selected_index is None else self.selected_index
        return (
            f"{self.n},{self.step_norm:.17g},{self.residual:.17g},"
            f"{self.eps_min:.17g},{self.eps_max:.17g},{dist},{self.wall_ms:.6g},"
            f"{self.degenerate_cuts},{selected}"
        )


TRACE_HEADER = tuple(f.name for f in fields(IterationRecord))


@dataclass
class RunCounters:
    """Work counters: subproblem solves, projections onto the feasible set,
    and inner solves that stopped at their iteration cap unconverged."""

    prox_solves: int = 0
    set_projections: int = 0
    prox_nonconverged: int = 0


@dataclass(frozen=True)
class InnerNonconvergence:
    """An inner solve that stopped at its iteration cap: outer iteration
    ``n``, subproblem index, and the inner solver's diagnostic text."""

    n: int
    subproblem: int
    diagnostic: str | None


@dataclass
class SolverOutcome:
    """Result of one solver run.

    ``invariant_violations`` counts failed per-iteration checks (all zero on
    an accepted run); ``min_prox_certificate`` is the worst sampled
    optimality gap over all inner solves (NaN when certification was off);
    ``first_nonconverged`` is the first inner solve that stopped unconverged
    (None when every one converged).
    """

    algorithm: str
    final_x: np.ndarray
    stop_reason: str
    iterations: int
    trace: list[IterationRecord]
    invariant_violations: dict[str, int]
    counters: RunCounters
    min_prox_certificate: float
    error: str | None
    first_nonconverged: InnerNonconvergence | None

    @property
    def total_violations(self) -> int:
        return sum(self.invariant_violations.values())

    def final_dist_to_known(self) -> float:
        if not self.trace:
            return float("nan")
        return self.trace[-1].dist_to_known


def create_file(path: str):
    """``path`` opened for writing UTF-8 text, its parent directory created
    first when missing."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8")


_CSV_ROW = "%s,%.17g,%.17g,%s,%s,%s,%.6g,%s,%s\n"


def write_trace(path: str, trace: list[IterationRecord]) -> None:
    """Write the fixed-header comma-separated trace: the header line, then
    ``csv_row()`` of each record on its own line, in one write.

    Each row is one ``%`` format; ``eps_min`` is formatted once when
    ``eps_max`` is the same object, as in the two-cut iterations.
    """
    lines = [",".join(TRACE_HEADER) + "\n"]
    append = lines.append
    for r in trace:
        eps = "%.17g" % r.eps_min
        dist, selected = r.dist_to_known, r.selected_index
        append(_CSV_ROW % (
            r.n, r.step_norm, r.residual, eps,
            eps if r.eps_max is r.eps_min else "%.17g" % r.eps_max,
            "" if dist != dist else "%.17g" % dist,  # NaN, as csv_row
            r.wall_ms, r.degenerate_cuts, "" if selected is None else selected))
    with create_file(path) as fh:
        fh.write("".join(lines))
