"""``tools/parity.py``: a dump is reproducible, and ``compare`` names the
first field of a run that differs."""

import json
import subprocess
import sys

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "parity.py"
RUNS = "vi_scalar_1d/single/probes3,whole_line/armijo"


def parity(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_dumps_agree_and_a_planted_difference_is_named(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        done = parity("dump", REPO_ROOT, out, "--only", RUNS)
        assert done.returncode == 0, done.stderr
    same = parity("compare", a, b)
    assert (same.returncode, same.stdout) == (0, "2 of 2 runs identical\n")

    runs = json.loads(b.read_text())
    assert runs["whole_line/armijo"]["stop_reason"] == "tolerance"
    runs["whole_line/armijo"]["trace.step_norm"][3] = "0.5"
    b.write_text(json.dumps(runs))
    planted = parity("compare", a, b)
    assert planted.returncode == 1
    lines = planted.stdout.splitlines()
    assert lines[0] == "1 of 2 runs identical"
    assert lines[1].startswith("whole_line/armijo: trace.step_norm[3]: ")
    assert lines[1].endswith(" != 0.5")
