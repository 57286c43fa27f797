"""Bitwise parity of two source trees over a fixed list of solves.

    python3 tools/parity.py dump SRC OUT [--only NAME[,NAME...]]
    python3 tools/parity.py compare A B

``dump`` imports csepsolve from ``SRC/src`` and runs every solve of the
list below through ``harness.run``: the bundled problem files of ``SRC``
under every applicable algorithm with 0 and 3 certificate probes, seeded
``vi_system``/``aq_system`` files from ``SRC/bench/gen.py`` at N = 1, 3, 4
and 8, a ball instance, and a polygon, two whole-space instances and a box
instance with no known solution (so its reference comes from the oracle).
A problem with N = 1 runs under ``single`` and the two baselines only:
there ``parallel``, ``maxsel`` and ``sequential`` repeat ``single`` bit for
bit but for ``selected_index`` (``tests/test_n1_equivalence.py``).  It writes, per run, the stop reason, iterations,
``final_x`` as hex bytes, every trace field except ``wall_ms``, the
counters, the invariant violations and the first iteration at which each
check fired, ``min_prox_certificate``, the first unconverged inner solve
and the error, with every float as its ``repr``
(so NaN equals NaN), and the sha256 of the trace CSV as ``write_trace``
wrote it with the ``wall_ms`` column blanked (``trace_csv``, so that the
file's bytes are compared too).  ``--only`` restricts the dump to the
named runs.

``compare`` prints how many runs of A are identical in B, then the same
count per algorithm on one line (``algorithm_line``), and, for every
other run, its first differing field (``final_x`` last, and by name
only), the first outer iteration n whose trace record differs, and each
side's stop reason, iterations and last ``dist_to_known``; it exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

TOL = 1e-8
BUNDLED_BUDGET = 2000
SEEDED_BUDGET = 300
BALL_BUDGET = 100
POLYGON_BUDGET = 2000
CORNER_BUDGET = 2000
WHOLE_SPACE_BUDGET = 3000
PROBES = (0, 3)
SEEDED = [(family, seed, 10, n) for family in ("vi_system", "aq_system")
          for seed, n in ((1, 1), (2, 3), (3, 4), (4, 8))]
ALL_ALGORITHMS = ("parallel", "maxsel", "single", "sequential", "extragradient", "armijo")
SINGLE_ALGORITHMS = ("single", "extragradient", "armijo")
MULTI_ALGORITHMS = ("parallel", "maxsel", "sequential")


def _vi_document(set_doc, M, q, x0, point=None):
    doc = {
        "dimension": len(x0),
        "set": set_doc,
        "bifunctions": [{"type": "vi_affine", "M": M, "q": q}],
        "x0": x0,
    }
    if point is not None:
        doc["known_solution"] = {"type": "singleton", "point": point}
    return doc


# A(x) = x - (2, 0) on the unit ball: the solution sits on the boundary at (1, 0).
BALL = _vi_document({"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
                    [[1.0, 0.0], [0.0, 1.0]], [-2.0, 0.0], [0.2, 0.6], [1.0, 0.0])
# A(x) = x - (2, 2) on the hexagon [-1, 1]^2 cut by |x1 + x2| <= 1.5: the
# solution is the projection of (2, 2), the midpoint (0.75, 0.75) of the
# edge x1 + x2 = 1.5.
POLYGON = _vi_document(
    {"type": "polyhedron", "cuts": [
        {"normal": normal, "offset": offset}
        for normal, offset in (([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0), ([0.0, 1.0], 1.0),
                               ([0.0, -1.0], 1.0), ([1.0, 1.0], 1.5), ([-1.0, -1.0], 1.5))]},
    [[1.0, 0.0], [0.0, 1.0]], [-2.0, -2.0], [-0.5, 0.25], [0.75, 0.75])
# A(x) = (x2 - 0.5, -x1 + x2 + 0.5) on [-1, 1]^2 with no known solution, so
# the runs check against the reference oracle's point, the unique solution
# (1, 0.5) on the face x1 = 1.
CORNER = _vi_document({"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                      [[0.0, 1.0], [-1.0, 1.0]], [-0.5, 0.5], [0.0, 0.0])
# Monotone operators on R^2 with a skew part (zero at (0.5, 0)) and with a
# line of zeros (x0 projects onto it at (0, 0.3)).
WHOLE_SPACE = {
    "whole_skew": _vi_document({"type": "whole_space"}, [[2.0, 1.0], [-1.0, 1.0]],
                               [-1.0, 0.5], [0.4, -0.7], [0.5, 0.0]),
    "whole_line": _vi_document({"type": "whole_space"}, [[1.0, 0.0], [0.0, 0.0]],
                               [0.0, 0.0], [0.5, 0.3], [0.0, 0.3]),
}


def run_list(src: Path, scratch: Path):
    """(name, problem path, algorithm, certify_probes, max_outer) per run."""
    spec = importlib.util.spec_from_file_location("parity_gen", src / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    runs = []
    for path in sorted((src / "problems").glob("*.json")):
        n = len(json.loads(path.read_text())["bifunctions"])
        for algorithm in SINGLE_ALGORITHMS if n == 1 else MULTI_ALGORITHMS:
            for probes in PROBES:
                runs.append((f"{path.stem}/{algorithm}/probes{probes}", path, algorithm,
                             probes, BUNDLED_BUDGET))
    for family, seed, d, n in SEEDED:
        path = scratch / f"{family}_s{seed}_d{d}_n{n}.json"
        gen.write(str(path), getattr(gen, family)(seed, d, n))
        for algorithm in SINGLE_ALGORITHMS if n == 1 else MULTI_ALGORITHMS:
            runs.append((f"{path.stem}/{algorithm}", path, algorithm, 0, SEEDED_BUDGET))
    documents = [("ball", BALL, BALL_BUDGET), ("polygon", POLYGON, POLYGON_BUDGET),
                 ("corner", CORNER, CORNER_BUDGET)]
    documents += [(name, doc, WHOLE_SPACE_BUDGET) for name, doc in WHOLE_SPACE.items()]
    for name, doc, budget in documents:
        path = scratch / f"{name}.json"
        path.write_text(json.dumps(doc))
        runs.extend((f"{name}/{algorithm}", path, algorithm, 0, budget)
                    for algorithm in SINGLE_ALGORITHMS)
    return runs


def _text(v) -> str:
    """``repr``, with numpy floats written as plain floats."""
    return repr(float(v)) if isinstance(v, float) else repr(v)


def csv_digest(text: str) -> str:
    """The sha256 of a trace CSV with every ``wall_ms`` entry below the
    header blanked."""
    header, *lines = text.split("\n")
    column = header.split(",").index("wall_ms")
    blanked = [header]
    for line in lines:
        cells = line.split(",")
        if len(cells) > column:
            cells[column] = ""
        blanked.append(",".join(cells))
    return hashlib.sha256("\n".join(blanked).encode("utf-8")).hexdigest()


def record(outcome, trace_fields, trace_csv: str) -> dict:
    """Every compared field of one outcome, as strings and lists of strings;
    ``trace_csv`` is the text of the trace file its run wrote."""
    fields = {
        "stop_reason": outcome.stop_reason,
        "iterations": _text(outcome.iterations),
        "final_x": outcome.final_x.tobytes().hex(),
    }
    for name in trace_fields:
        fields[f"trace.{name}"] = [_text(getattr(r, name)) for r in outcome.trace]
    for name, value in vars(outcome.counters).items():
        fields[f"counters.{name}"] = _text(value)
    for name, count in sorted(outcome.invariant_violations.items()):
        fields[f"violations.{name}"] = _text(count)
    for name, n in sorted(outcome.first_violation.items()):
        fields[f"first_violation.{name}"] = _text(n)
    fields["min_prox_certificate"] = _text(outcome.min_prox_certificate)
    fields["first_nonconverged"] = _text(outcome.first_nonconverged)
    fields["error"] = _text(outcome.error)
    fields["trace_csv"] = csv_digest(trace_csv)
    return fields


def dump(src: Path, out: Path, only: set[str] | None = None) -> dict:
    src = src.resolve()
    sys.path.insert(0, str(src / "src"))
    import csepsolve
    from csepsolve import harness
    from csepsolve.outcome import IterationRecord

    if not Path(csepsolve.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"csepsolve was imported from {csepsolve.__file__}, not from {src}")
    trace_fields = [f.name for f in dataclasses.fields(IterationRecord) if f.name != "wall_ms"]
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        trace_path = Path(scratch) / "trace.csv"
        for name, path, algorithm, probes, budget in run_list(src, Path(scratch)):
            if only is not None and name not in only:
                continue
            spec = harness.RunSpec(problem_path=str(path), algorithm=algorithm, tol=TOL,
                                   max_outer=budget, certify_probes=probes,
                                   trace_path=str(trace_path))
            try:
                outcome = harness.run(spec)
                results[name] = record(outcome, trace_fields,
                                       trace_path.read_text(encoding="utf-8"))
            except Exception as exc:  # a run that raises is compared by its exception
                results[name] = {"raised": f"{type(exc).__name__}: {exc}"}
    if only is not None and set(results) != only:
        raise SystemExit(f"no such runs: {sorted(only - set(results))}")
    out.write_text(json.dumps(results, indent=1) + "\n")
    return results


def _union(a, b) -> list:
    """The keys of ``a``, then those only in ``b``."""
    return list(a) + [k for k in b if k not in a]


def _first_index(va: list, vb: list) -> int | None:
    """The first index at which two lists differ, a missing entry included."""
    if va == vb:
        return None
    return next((i for i, pair in enumerate(zip(va, vb)) if pair[0] != pair[1]),
                min(len(va), len(vb)))


def first_difference(a: dict, b: dict) -> str | None:
    """The first field of run ``a`` whose value differs in ``b``, or None;
    a differing list is named with its first differing index, and
    ``final_x``, searched last, by name only."""
    fields = [f for f in _union(a, b) if f != "final_x"] + ["final_x"]
    for field in fields:
        va, vb = a.get(field), b.get(field)
        if va == vb:
            continue
        if field == "final_x":
            return "final_x differs"
        if isinstance(va, list) and isinstance(vb, list):
            i = _first_index(va, vb)
            va, vb = va[i] if i < len(va) else "-", vb[i] if i < len(vb) else "-"
            field = f"{field}[{i}]"
        return f"{field}: {va} != {vb}"
    return None


def first_trace_difference(a: dict, b: dict) -> str | None:
    """The n of the first outer iteration whose trace record differs
    between runs ``a`` and ``b`` ("-" past both traces), or None."""
    indices = [_first_index(a.get(f, []), b.get(f, []))
               for f in _union(a, b) if f.startswith("trace.")]
    indices = [i for i in indices if i is not None]
    if not indices:
        return None
    i = min(indices)
    ns = max(a.get("trace.n", []), b.get("trace.n", []), key=len)
    return ns[i] if i < len(ns) else "-"


def outcome_line(run: dict) -> str:
    """A run's stop reason, iterations and last ``dist_to_known``."""
    if "raised" in run:
        return f"raised {run['raised']}"
    dist = run.get("trace.dist_to_known") or ["-"]
    return (f"{run['stop_reason']} after {run['iterations']} iterations, "
            f"last dist_to_known {dist[-1]}")


def algorithm_line(names: list[str], differing: set[str]) -> str:
    """The identical runs of each algorithm among the runs ``names``
    (``problem/algorithm[/probes]``), e.g. ``parallel 24/24, armijo 2/13``,
    in the order of ``ALL_ALGORITHMS``, any other algorithm after them."""
    runs: dict[str, list[str]] = {}
    for name in names:
        runs.setdefault(name.split("/")[1], []).append(name)
    order = sorted(runs, key=lambda a: ALL_ALGORITHMS.index(a) if a in ALL_ALGORITHMS
                   else len(ALL_ALGORITHMS))
    return ", ".join(f"{a} {sum(n not in differing for n in runs[a])}/{len(runs[a])}"
                     for a in order)


def compare(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    differing = []
    for name in _union(a, b):
        if name not in a or name not in b:
            differing.append((name, f"only in {a_path if name in a else b_path}"))
        elif (diff := first_difference(a[name], b[name])) is not None:
            n = first_trace_difference(a[name], b[name])
            where = "traces identical" if n is None else f"first differing outer iteration: n = {n}"
            differing.append((name, "\n  ".join(
                [diff, where, f"A: {outcome_line(a[name])}", f"B: {outcome_line(b[name])}"])))
    names = _union(a, b)
    print(f"{len(names) - len(differing)} of {len(names)} runs identical")
    print(algorithm_line(names, {name for name, _ in differing}))
    for name, diff in differing:
        print(f"{name}: {diff}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run the list from source tree SRC into OUT")
    p_dump.add_argument("src", type=Path)
    p_dump.add_argument("out", type=Path)
    p_dump.add_argument("--only", help="comma-separated run names")
    p_compare = sub.add_parser("compare", help="compare two dumps; exit 1 on any difference")
    p_compare.add_argument("a", type=Path)
    p_compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        results = dump(args.src, args.out, set(args.only.split(",")) if args.only else None)
        print(f"{len(results)} runs written to {args.out}")
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
