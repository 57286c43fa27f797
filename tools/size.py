"""Size of the csepsolve package: lines and settable values.

    python3 tools/size.py SRC

prints, for the ``.py`` files under ``SRC/src/csepsolve``, the number of
lines (as ``wc -l`` counts them) and the number of settable values: every
default of a function or lambda parameter, plus every annotated class
attribute given a value, except dataclass fields declared
``field(..., init=False)``, which no caller can set.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def _is_init_false(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def settable_values(source: str) -> int:
    """Parameter defaults plus settable annotated class attributes in ``source``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         and not _is_init_false(s.value) for s in node.body)
    return count


def measure(package: Path) -> tuple[int, int]:
    """(lines, settable values) over the ``.py`` files under ``package``."""
    lines = values = 0
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        values += settable_values(text)
    return lines, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="source tree holding src/csepsolve")
    args = parser.parse_args(argv)
    package = args.src / "src" / "csepsolve"
    if not package.is_dir():
        parser.error(f"no package at {package}")
    lines, values = measure(package)
    print(f"lines {lines}")
    print(f"settable values {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
