"""``tools/parity.py``: a dump is reproducible, and ``compare`` names the
first field of a run that differs."""

import importlib.util
import json
import subprocess
import sys

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "parity.py"
RUNS = "vi_scalar_1d/single/probes3,whole_line/armijo"


def load_tool():
    spec = importlib.util.spec_from_file_location("parity_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def parity(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_dumps_agree_and_a_planted_difference_is_named(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        done = parity("dump", REPO_ROOT, out, "--only", RUNS)
        assert done.returncode == 0, done.stderr
    same = parity("compare", a, b)
    assert (same.returncode, same.stdout) == (
        0, "2 of 2 runs identical\nsingle 1/1, armijo 1/1\n")

    runs = json.loads(b.read_text())
    run = runs["whole_line/armijo"]
    assert run["stop_reason"] == "tolerance"
    # a trajectory that parts at trace index 3 and ends elsewhere
    run["trace.step_norm"][3] = "0.5"
    run["trace.dist_to_known"][-1] = "0.25"
    run["final_x"] = "00" * (len(run["final_x"]) // 2)
    b.write_text(json.dumps(runs))
    planted = parity("compare", a, b)
    assert planted.returncode == 1
    lines = planted.stdout.splitlines()
    assert lines[:2] == ["1 of 2 runs identical", "single 1/1, armijo 0/1"]
    assert lines[2].startswith("whole_line/armijo: trace.step_norm[3]: ")
    assert lines[2].endswith(" != 0.5")
    original = json.loads(a.read_text())["whole_line/armijo"]
    iterations = original["iterations"]
    assert lines[3:] == [
        f"  first differing outer iteration: n = {original['trace.n'][3]}",
        f"  A: tolerance after {iterations} iterations, "
        f"last dist_to_known {original['trace.dist_to_known'][-1]}",
        f"  B: tolerance after {iterations} iterations, last dist_to_known 0.25",
    ]
    assert all(original["final_x"] not in line for line in lines)


def test_the_first_iteration_of_each_check_is_compared(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    name = "vi_scalar_1d/single/probes3"
    done = parity("dump", REPO_ROOT, a, "--only", name)
    assert done.returncode == 0, done.stderr
    runs = json.loads(a.read_text())
    run = runs[name]
    checks = [f.split(".", 1)[1] for f in run if f.startswith("violations.")]
    assert checks
    assert all(run[f"first_violation.{check}"] == "None" for check in checks)

    run[f"first_violation.{checks[0]}"] = "7"
    b.write_text(json.dumps(runs))
    planted = parity("compare", a, b)
    assert planted.returncode == 1
    assert planted.stdout.splitlines()[:4] == [
        "0 of 1 runs identical", "single 0/1",
        f"{name}: first_violation.{checks[0]}: None != 7", "  traces identical"]


def test_a_run_that_differs_only_in_final_x_is_named_without_its_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    done = parity("dump", REPO_ROOT, a, "--only", "vi_scalar_1d/single/probes3")
    assert done.returncode == 0, done.stderr
    runs = json.loads(a.read_text())
    run = runs["vi_scalar_1d/single/probes3"]
    run["final_x"] = "ff" + run["final_x"][2:]
    b.write_text(json.dumps(runs))
    planted = parity("compare", a, b)
    assert planted.returncode == 1
    lines = planted.stdout.splitlines()
    assert lines[:4] == ["0 of 1 runs identical",
                         "single 0/1",
                         "vi_scalar_1d/single/probes3: final_x differs",
                         "  traces identical"]
    assert lines[4].startswith(f"  A: {run['stop_reason']} after {run['iterations']} ")
    assert len(lines) == 6


def test_the_algorithm_line_counts_identical_runs_per_algorithm():
    tool = load_tool()
    names = ["p/armijo", "p/parallel/probes0", "p/parallel/probes3", "q/extragradient",
             "q/armijo", "q/custom", "r/maxsel"]
    differing = {"p/armijo", "p/parallel/probes3", "q/custom"}
    assert tool.algorithm_line(names, differing) == (
        "parallel 1/2, maxsel 1/1, extragradient 1/1, armijo 1/2, custom 0/1")


def test_the_trace_csv_is_compared_by_its_bytes_with_wall_ms_blanked(tmp_path):
    import csv
    import hashlib
    import io

    from csepsolve import RunSpec, run

    tool = load_tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    name = "vi_scalar_1d/single/probes3"
    done = parity("dump", REPO_ROOT, a, "--only", name)
    assert done.returncode == 0, done.stderr
    runs = json.loads(a.read_text())
    run_a = runs[name]

    # the same solve here, its trace file's wall_ms column blanked by csv
    trace = tmp_path / "trace.csv"
    run(RunSpec(problem_path=str(REPO_ROOT / "problems" / "vi_scalar_1d.json"),
                algorithm="single", tol=tool.TOL, max_outer=tool.BUNDLED_BUDGET,
                certify_probes=3, trace_path=str(trace)))
    rows = list(csv.reader(io.StringIO(trace.read_text(encoding="utf-8"))))
    column = rows[0].index("wall_ms")
    assert all(row[column] for row in rows[1:])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        row[:column] + [""] + row[column + 1:] if i else row for i, row in enumerate(rows))
    assert run_a["trace_csv"] == hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()

    # only wall_ms is blanked: any other byte of the file changes the digest
    text = "n,step_norm,wall_ms,selected_index\n1,0.5,0.25,\n2,0.125,0.0625,0\n"
    assert tool.csv_digest(text) == tool.csv_digest(text.replace("0.0625", "9"))
    assert tool.csv_digest(text) != tool.csv_digest(text.replace("0.125", "0.12500"))
    assert tool.csv_digest(text) != tool.csv_digest(text.replace(",0\n", ",\n"))

    run_a["trace_csv"] = tool.csv_digest(text)
    b.write_text(json.dumps(runs))
    planted = parity("compare", a, b)
    assert planted.returncode == 1
    lines = planted.stdout.splitlines()
    assert lines[:4] == ["0 of 1 runs identical", "single 0/1",
                         f"{name}: trace_csv: {json.loads(a.read_text())[name]['trace_csv']}"
                         f" != {tool.csv_digest(text)}",
                         "  traces identical"]
