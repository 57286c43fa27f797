"""Command-line interface.

Exit codes: 0 when a solve stops by tolerance, 1 on the outer-iteration
cap, 2 for validation errors (bad files, bad parameters) and for an
output file that cannot be written (``error: <message>``), 3 for runtime
failures inside a run, 4 when a solve ran without error but some inner
solve stopped at its iteration cap, 5 when some invariant check fired
(both ``solve`` only).  A solve exits 3 first, then 5, then 4, then 0 or
1.  Every output file's missing parent directory is created.

``compare`` loads the problem and computes its reference projection once;
each row's ``wall_ms`` times that algorithm's solve and the writing of
its outputs, not the loading.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import (
    DimensionMismatch,
    EmptyF,
    OracleUnavailable,
    ParameterViolation,
    ParseError,
    SchemaError,
    SolverError,
)
from .harness import ALGORITHMS, RunSpec, compare, load_problem, reference_solution, run
from .hybrid import RULE_RELAXED, RULE_STRICT
from .outcome import STOP_MAX_OUTER, STOP_TOLERANCE, create_file
from .problems import validate

EXIT_OK = 0
EXIT_MAX_OUTER = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_INNER_NONCONVERGED = 4
EXIT_INVARIANT_VIOLATED = 5

SOLVE_EXIT_CODES = (
    "exit codes: 0 stopped by tolerance, 1 hit --max-outer, 2 validation error or "
    "unwritable output, 3 runtime failure, 4 an inner solve stopped at its iteration cap, "
    "5 an invariant check fired; a run takes 3, else 5, else 4, else 0 or 1"
)

_VALIDATION_ERRORS = (
    ParameterViolation,
    ParseError,
    SchemaError,
    DimensionMismatch,
    ValueError,
    OSError,
)


def _solver_options() -> argparse.ArgumentParser:
    """The parent parser of the solver options: each stores under its
    ``RunSpec`` field name, and one that is not given stores nothing, so
    that the field keeps ``RunSpec``'s default."""
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--lambda", dest="lam", type=float,
                   help="prox step size (default: derived from the constants)")
    p.add_argument("--k", type=float, help="cut-inflation constant (default: derived)")
    p.add_argument("--eta", type=float, help="linesearch backtracking ratio (armijo only)")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-outer", type=int)
    p.add_argument("--rule", choices=(RULE_STRICT, RULE_RELAXED))
    p.add_argument("--seed", type=int)
    p.add_argument("--certify", dest="certify_probes", type=int, metavar="PROBES",
                   help="probes per inner solve for optimality certificates")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csepsolve",
        description="Solvers for common solutions of equilibrium-problem systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solver_options = _solver_options()

    p_solve = sub.add_parser("solve", help="run one algorithm on a problem file",
                             epilog=SOLVE_EXIT_CODES, parents=[solver_options])
    p_solve.add_argument("problem")
    p_solve.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p_solve.add_argument("--trace", dest="trace_path", default=None)
    p_solve.add_argument("--summary", dest="summary_path", default=None)

    p_oracle = sub.add_parser("oracle", help="print the reference projection of x0")
    p_oracle.add_argument("problem")

    p_cmp = sub.add_parser("compare", help="run several algorithms on one problem",
                           parents=[solver_options])
    p_cmp.add_argument("problem")
    p_cmp.add_argument("--algorithms", required=True,
                       help="comma-separated subset of " + ",".join(ALGORITHMS))
    p_cmp.add_argument("--output", default=None, help="write the table as JSON")

    p_val = sub.add_parser("validate", help="spot-check the standing assumptions")
    p_val.add_argument("problem")
    p_val.add_argument("--samples", type=int, default=200)
    p_val.add_argument("--seed", type=int, default=0)

    return parser


def _spec_from_args(args, algorithm: str) -> RunSpec:
    """The ``RunSpec`` of ``algorithm`` on the problem, with the options given."""
    fields = {f.name for f in dataclasses.fields(RunSpec)}
    given = {name: value for name, value in vars(args).items() if name in fields}
    return RunSpec(**{**given, "problem_path": args.problem, "algorithm": algorithm})


def _cmd_solve(args) -> int:
    outcome = run(_spec_from_args(args, args.algorithm))
    final = ", ".join(f"{v:.10g}" for v in outcome.final_x)
    print(f"algorithm: {outcome.algorithm}")
    print(f"stop_reason: {outcome.stop_reason}")
    print(f"iterations: {outcome.iterations}")
    print(f"final_x: [{final}]")
    dist = outcome.final_dist_to_known()
    if not math.isnan(dist):
        print(f"dist_to_oracle: {dist:.6e}")
    print(f"invariant_violations: {outcome.total_violations}")
    if outcome.error:
        print(f"error: {outcome.error}", file=sys.stderr)
        return EXIT_RUNTIME
    if outcome.total_violations:
        fired = ", ".join(f"{name} {count}"
                          for name, count in outcome.invariant_violations.items() if count)
        print(f"invariant checks fired: {fired}", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATED
    if outcome.first_nonconverged is not None:
        first = outcome.first_nonconverged
        print(f"inner solve stopped at its iteration cap (iteration {first.n}, "
              f"subproblem {first.subproblem}): {first.diagnostic}", file=sys.stderr)
        return EXIT_INNER_NONCONVERGED
    if outcome.stop_reason == STOP_TOLERANCE:
        return EXIT_OK
    if outcome.stop_reason == STOP_MAX_OUTER:
        return EXIT_MAX_OUTER
    return EXIT_RUNTIME


def _cmd_oracle(args) -> int:
    instance = load_problem(args.problem)
    try:
        point = reference_solution(instance)
    except (OracleUnavailable, EmptyF) as exc:
        print(f"oracle unavailable: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps({"reference": [float(v) for v in point]}))
    return EXIT_OK


def _cmd_compare(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    specs = [_spec_from_args(args, a) for a in algorithms]
    report = compare(specs)
    print(report.to_text())
    if args.output:
        with create_file(args.output) as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    bad = [r for r in report.rows if r.stop_reason not in (STOP_TOLERANCE, STOP_MAX_OUTER)]
    return EXIT_RUNTIME if bad else EXIT_OK


def _cmd_validate(args) -> int:
    instance = load_problem(args.problem)
    report = validate(instance, samples=args.samples, seed=args.seed)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "compare": _cmd_compare,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
