"""``tools/size.py``: lines, their kinds and settable values of a synthetic
package."""

import subprocess
import sys

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "size.py"

MODULE = '''\
"""A module docstring."""
from dataclasses import dataclass, field


def solve(x, tol=1e-8, *, max_iter=10, verbose):
    """A docstring of three lines

    with a blank line inside."""
    # a comment line
    return (lambda y, scale=2.0: y * scale)(x)  # an inline comment


class Plain:
    """One line."""

    rows: tuple = ()
    size: int
    note = """a string that is no docstring
# nor a comment"""


@dataclass
class Params:
    step: float = 0.5
    cache: dict = field(default_factory=dict)
    derived: float = field(init=False, repr=False)
    hidden: float = field(default=0.0, init=False)
'''


def test_counts_lines_and_settable_values(tmp_path):
    package = tmp_path / "src" / "csepsolve"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # Docstring lines: the module's, solve's three and Plain's one; blank lines:
    # the seven outside a docstring; other lines: the 14 left of the 27.
    # Settable values: tol, max_iter, scale; rows, step, cache (derived and
    # hidden are init=False).  Then one line per module, in path order, the
    # empty __init__.py first.
    assert MODULE.count(chr(10)) == 27
    assert done.stdout == ("lines 27\ndocstring lines 5\ncomment lines 1\n"
                           "blank lines 7\nother lines 14\nsettable values 6\n"
                           "__init__.py lines 0 other lines 0 settable values 0\n"
                           "mod.py lines 27 other lines 14 settable values 6\n")


def test_missing_package_is_an_error(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "no package" in done.stderr
