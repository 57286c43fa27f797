"""Alternated parent/change pairs of the benchmark, summarized per metric.

    python3 tools/pairs.py PARENT CHANGE --label NAME --workload W [--workload W ...]
        [--seeds 101-110] [--seconds 30]

PARENT and CHANGE are two source trees, each with its own ``bench/run.py``.
For every workload and seed the pair runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, the parent first at the 1st, 3rd, ... seed and the
change first at the others, and reads the JSON object on the last line of
its output.  ``BENCH_<label>.json`` in the current directory then gets,
per workload: the seeds, the side that ran first in each pair, whether
every run was correct, the failed counts seen, and for every end-to-end
metric of CHANGE's ``BENCHMARK.json`` the runs of both sides, their
medians and quartiles, the change of the median in percent, the parent's
interquartile range, and the number of pairs in which the change was
better and worse.  Other keys of an existing file are kept.  After each
workload it prints one verdict line per metric (``verdict_lines``, which
also tells whether a gain meets the claim rule) and, when a run was not
correct or had failed operations, one ``CHECK FAILED`` line naming each
such run (``check_line``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"101,103,107"`` as a list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def first_side(index: int) -> str:
    """The side that runs first in pair ``index`` (0-based)."""
    return SIDES[index % 2]


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that ``bench/run.py`` of ``tree`` prints last."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _r(v: float) -> float:
    return round(v, 6)


def metric_summary(parent: list[float], change: list[float], better: str) -> dict:
    """The record of one metric over pairs (parent[i], change[i])."""
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = statistics.quantiles(parent, n=4, method="inclusive")
    cq = statistics.quantiles(change, n=4, method="inclusive")
    sign = 1.0 if better == "lower" else -1.0
    return {
        "parent_median": _r(pm),
        "change_median": _r(cm),
        "change_pct": round(100.0 * (cm / pm - 1.0), 1) if pm else None,
        "parent_quartiles": [_r(pq[0]), _r(pq[2])],
        "change_quartiles": [_r(cq[0]), _r(cq[2])],
        "parent_iqr": _r(pq[2] - pq[0]),
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "change_worse_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent_runs": [_r(v) for v in parent],
        "change_runs": [_r(v) for v in change],
    }


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """The record of one workload from its ``pairs``, each a dict with
    ``seed``, ``first`` and the result objects ``parent`` and ``change``;
    ``directions`` maps each end-to-end metric to "lower" or "higher"."""
    results = [p[side] for p in pairs for side in SIDES]
    return {
        "seeds": [p["seed"] for p in pairs],
        "first_in_pair": [p["first"] for p in pairs],
        "correct_every_run": all(r["correct"] for r in results),
        "failed_every_run": sorted({r["failed"] for r in results}),
        "end_to_end": {
            name: metric_summary([p["parent"]["metrics"][name]["value"] for p in pairs],
                                 [p["change"]["metrics"][name]["value"] for p in pairs],
                                 better)
            for name, better in directions.items()
            if all(name in p[side]["metrics"] for p in pairs for side in SIDES)
        },
    }


def verdict_lines(workload: str, summary: dict, metrics: dict[str, dict]) -> list[str]:
    """One line per end-to-end metric of a workload's ``summary``: both
    medians and the change in percent, the pairs in which the change was
    better and worse, the parent's IQR, ``OVER BOUND`` when the change's
    median is worse than the parent's by more than the metric's ``bound``
    (a fraction of the parent's median) in ``metrics``, the end-to-end
    entries of ``BENCHMARK.json`` by name, and ``MEETS CLAIM RULE`` when a
    gain could be claimed: the change was better in at least 9 of every 10
    pairs (a tie counts for neither side) and its median is better than
    the parent's by more than the parent's IQR."""
    lines = []
    for name, m in summary["end_to_end"].items():
        pm, cm = m["parent_median"], m["change_median"]
        worse = cm - pm if metrics[name]["better"] == "lower" else pm - cm
        bound = metrics[name].get("bound")
        pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
        pairs = len(m["parent_runs"])
        line = (f"{workload} {name}: parent {pm:g} change {cm:g} ({pct}), better in "
                f"{m['change_better_pairs']} and worse in {m['change_worse_pairs']} of "
                f"{pairs} pairs, parent IQR {m['parent_iqr']:g}")
        if bound is not None and worse > bound * abs(pm):
            line += f"  OVER BOUND {100.0 * bound:g}%"
        if 10 * m["change_better_pairs"] >= 9 * pairs and -worse > m["parent_iqr"]:
            line += "  MEETS CLAIM RULE"
        lines.append(line)
    return lines


def check_line(workload: str, pairs: list[dict]) -> str | None:
    """``CHECK FAILED`` with the side and seed of every run in ``pairs`` that
    was not correct or had failed operations; None when every run passed."""
    bad = [f"{side} seed {p['seed']} (correct {str(p[side]['correct']).lower()}, "
           f"failed {p[side]['failed']})"
           for p in pairs for side in SIDES if not p[side]["correct"] or p[side]["failed"]]
    return f"{workload} CHECK FAILED: {', '.join(bad)}" if bad else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("101-110"))
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "bench" / "run.py").is_file():
            ap.error(f"no bench/run.py under {tree}")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}

    out = Path(f"BENCH_{args.label}.json")
    record = json.loads(out.read_text()) if out.is_file() else {}
    record["method"] = (
        f"tools/pairs.py: python3 bench/run.py --workload W --seed S --seconds "
        f"{args.seconds:g} --trace 0 in the parent's tree and the change's, "
        "alternating which runs first (parent first at the 1st, 3rd, ... seed)")
    workloads = record.setdefault("workloads", {})
    trees = dict(zip(SIDES, (args.parent, args.change)))
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            first = first_side(i)
            pair = {"seed": seed, "first": first}
            for side in (SIDES if first == "parent" else SIDES[::-1]):
                pair[side] = run_bench(trees[side], workload, seed, args.seconds)
            pairs.append(pair)
            p50 = [pair[side]["metrics"].get("iter_us.p50", {}).get("value") for side in SIDES]
            print(f"{workload} seed {seed}: iter_us.p50 parent {p50[0]} change {p50[1]}",
                  flush=True)
        workloads[workload] = summary = summarize(
            pairs, {name: m["better"] for name, m in metrics.items()})
        out.write_text(json.dumps(record, indent=1) + "\n")
        print("\n".join(verdict_lines(workload, summary, metrics)), flush=True)
        if (line := check_line(workload, pairs)) is not None:
            print(line, flush=True)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
