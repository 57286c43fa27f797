"""``tools/pairs.py``: alternated parent/change benchmark pairs and their
per-metric summary."""

import importlib.util
import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(iter_us, rate, failed=0, correct=True):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"iter_us.p50": {"value": iter_us, "unit": "us"},
                        "iters_per_s": {"value": rate, "unit": "1/s"}}}


def test_summary_of_synthetic_pairs():
    pairs_tool = load_pairs()
    parent = [70.0, 72.0, 68.0, 71.0, 69.0]
    change = [63.0, 73.0, 61.0, 64.0, 69.0]
    pairs = [{"seed": 101 + i, "first": pairs_tool.first_side(i),
              "parent": result(p, 1e6 / p), "change": result(c, 1e6 / c, correct=i != 3)}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = pairs_tool.summarize(pairs, {"iter_us.p50": "lower", "iters_per_s": "higher",
                                           "peak_rss_mb": "lower"})
    assert summary["seeds"] == [101, 102, 103, 104, 105]
    assert summary["first_in_pair"] == ["parent", "change", "parent", "change", "parent"]
    assert summary["correct_every_run"] is False
    assert summary["failed_every_run"] == [0]
    assert set(summary["end_to_end"]) == {"iter_us.p50", "iters_per_s"}  # no peak_rss_mb
    p50 = summary["end_to_end"]["iter_us.p50"]
    assert (p50["parent_median"], p50["change_median"]) == (70.0, 64.0)
    assert p50["change_pct"] == pytest.approx(-8.6)
    # inclusive quartiles: the parent's sorted runs 68 69 70 71 72
    assert p50["parent_quartiles"] == [69.0, 71.0]
    assert p50["parent_iqr"] == 2.0
    assert (p50["change_better_pairs"], p50["change_worse_pairs"]) == (3, 1)
    assert p50["parent_runs"] == parent and p50["change_runs"] == change
    rate = summary["end_to_end"]["iters_per_s"]
    assert (rate["change_better_pairs"], rate["change_worse_pairs"]) == (3, 1)


@pytest.mark.parametrize("better, shift, ties, meets", [
    ("lower", -10.0, 1, True),    # better in 9 of 10, the tie for neither side
    ("lower", -10.0, 2, False),   # better in 8 of 10
    ("lower", -4.0, 0, False),    # better in 10 of 10, medians 4 apart, parent IQR 4.5
    ("lower", -5.0, 0, True),     # medians 5 apart
    ("lower", 10.0, 0, False),    # worse in every pair
    ("higher", 10.0, 1, True),
    ("higher", -10.0, 0, False),
])
def test_the_claim_rule_needs_nine_in_ten_pairs_and_medians_apart_by_the_iqr(
        better, shift, ties, meets):
    pairs_tool = load_pairs()
    parent = [100.0 + i for i in range(10)]  # inclusive quartiles 102.25 and 106.75
    change = [p if i < ties else p + shift for i, p in enumerate(parent)]
    summary = {"end_to_end": {"m": pairs_tool.metric_summary(parent, change, better)}}
    assert summary["end_to_end"]["m"]["parent_iqr"] == 4.5
    (line,) = pairs_tool.verdict_lines("w", summary, {"m": {"better": better}})
    assert line.endswith("  MEETS CLAIM RULE") is meets


FAKE_RUN = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = Path(__file__).resolve().parent.parent.name
with open(Path(__file__).resolve().parent.parent.parent / "order.txt", "a") as fh:
    fh.write(f"{side} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
value = (70.0 if side == "parent" else 63.0) + int(args["--seed"]) % 3
rss = 100.0 if side == "parent" else 111.0
# workload "bad": the change's run at seed 5 is incorrect, the parent's at 6 fails one
bad = args["--workload"] == "bad"
correct = not (bad and side == "change" and args["--seed"] == "5")
failed = int(bad and side == "parent" and args["--seed"] == "6")
print("# a comment line first")
print(json.dumps({"correct": correct, "attempted": 6, "failed": failed,
                  "metrics": {"iter_us.p50": {"value": value, "unit": "us"},
                              "peak_rss_mb": {"value": rss, "unit": "MB"}}}))
"""


def test_runs_alternate_and_write_the_record(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(FAKE_RUN)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "iter_us.p50", "better": "lower", "bound": 0.2},
                        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    (tmp_path / "BENCH_t.json").write_text(json.dumps({"what": "kept"}))
    done = subprocess.run([sys.executable, str(TOOL), "parent", "change", "--label", "t",
                           "--workload", "w", "--seeds", "4-6", "--seconds", "0.5"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "order.txt").read_text().split("\n")[:-1] == [
        "parent 4 0.5 0", "change 4 0.5 0", "change 5 0.5 0", "parent 5 0.5 0",
        "parent 6 0.5 0", "change 6 0.5 0"]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["what"] == "kept"
    w = record["workloads"]["w"]
    assert w["seeds"] == [4, 5, 6] and w["correct_every_run"] is True
    p50 = w["end_to_end"]["iter_us.p50"]
    assert p50["parent_runs"] == [71.0, 72.0, 70.0]
    assert p50["change_better_pairs"] == 3 and p50["change_median"] == 64.0
    # one verdict line per metric after the workload; peak_rss_mb is 11%
    # worse, beyond its 10% bound
    assert done.stdout.splitlines()[-3:] == [
        "w iter_us.p50: parent 71 change 64 (-9.9%), better in 3 and worse in 0 of 3 pairs, "
        "parent IQR 1  MEETS CLAIM RULE",
        "w peak_rss_mb: parent 100 change 111 (+11.0%), better in 0 and worse in 3 of 3 pairs, "
        "parent IQR 0  OVER BOUND 10%",
        "wrote BENCH_t.json"]
    assert "CHECK FAILED" not in done.stdout
    # an incorrect or failing run is named after its workload's verdict lines
    done = subprocess.run([sys.executable, str(TOOL), "parent", "change", "--label", "t",
                           "--workload", "bad", "--seeds", "4-6", "--seconds", "0.5"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "bad CHECK FAILED: change seed 5 (correct false, failed 0), "
        "parent seed 6 (correct true, failed 1)",
        "wrote BENCH_t.json"]
    bad = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["bad"]
    assert (bad["correct_every_run"], bad["failed_every_run"]) == (False, [0, 1])
