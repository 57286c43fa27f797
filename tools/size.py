"""Size of the csepsolve package: lines and settable values.

    python3 tools/size.py SRC

prints, for the ``.py`` files under ``SRC/src/csepsolve``, the number of
lines (as ``wc -l`` counts them); how many of them are docstring lines
(every line of a module, class or function docstring), comment lines
(holding only a comment) and blank lines (holding only whitespace, outside
a docstring), so that a change can show which kind of line it removed; the
other lines, of none of these kinds; and the number of settable values: every default of a function or lambda
parameter, plus every annotated class attribute given a value, except
dataclass fields declared ``field(..., init=False)``, which no caller can
set.  After these totals it prints one line per module, its path under
``src/csepsolve`` with its lines, other lines and settable values, so that
a change can show which module it shrank.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("docstring", "comment", "blank")


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


def line_kinds(source: str) -> tuple[int, int, int]:
    """The docstring, comment and blank lines of ``source``, as ``KINDS``."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    comment = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()}
    blank = {i for i, line in enumerate(source.splitlines(), 1) if not line.strip()}
    return len(docstring), len(comment), len(blank - docstring)


def measure(path: Path) -> tuple[int, tuple[int, int, int], int]:
    """(lines, their counts by ``KINDS``, settable values) of one ``.py``
    file."""
    text = path.read_text()
    return text.count("\n"), line_kinds(text), settable_values(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="source tree holding src/csepsolve")
    args = parser.parse_args(argv)
    package = args.src / "src" / "csepsolve"
    if not package.is_dir():
        parser.error(f"no package at {package}")
    modules = [(path.relative_to(package).as_posix(), *measure(path))
               for path in sorted(package.rglob("*.py"))]
    print(f"lines {sum(lines for _, lines, _, _ in modules)}")
    for i, kind in enumerate(KINDS):
        print(f"{kind} lines {sum(kinds[i] for _, _, kinds, _ in modules)}")
    print(f"other lines {sum(lines - sum(kinds) for _, lines, kinds, _ in modules)}")
    print(f"settable values {sum(values for _, _, _, values in modules)}")
    for name, lines, kinds, values in modules:
        print(f"{name} lines {lines} other lines {lines - sum(kinds)} settable values {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
