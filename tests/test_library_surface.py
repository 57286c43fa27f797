"""Every module-level function and class of the library has a caller
outside the tests.

A name defined at the top level of a module M under ``src/csepsolve`` is
referred to when some code outside the tests reads it as M's: it is
imported from M (``from csepsolve.M import name`` or ``from .M import
name``), read as ``M.name``, passed as ``M, "name"`` (as ``getattr`` and
the benchmark's span table do), or, inside M, loaded by a top-level
statement other than its own definition.  The code read is the library,
the Python files of ``bench/`` (without ``bench/tests``) and ``tools/``,
and README's Python: its fenced ``python`` blocks and each inline
backtick span that parses as Python.  A method's or a prose word's name
refers to nothing, so a function named like a method needs a caller of
its own.  A name that only the tests use belongs in the tests
(``tests/oracles.py`` for references).
"""

import ast
import re

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "csepsolve"
MODULES = {path.stem for path in SRC.glob("*.py")}


def defined(tree):
    """The top-level functions and classes of a module, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def references(tree):
    """The (module, name) pairs that ``tree`` reads from library modules."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            if module in MODULES:
                found.update((module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            found.add((node.value.id, node.attr))
        elif isinstance(node, (ast.Tuple, ast.List, ast.Call)):
            items = node.args if isinstance(node, ast.Call) else node.elts
            found.update((a.id, b.value) for a, b in zip(items, items[1:])
                         if isinstance(a, ast.Name) and a.id in MODULES
                         and isinstance(b, ast.Constant) and isinstance(b.value, str))
    return found


def own_references(module, tree):
    """(module, name) for each name a top-level statement of ``module`` loads,
    other than the one it defines."""
    return {(module, node.id) for statement in tree.body for node in ast.walk(statement)
            if isinstance(node, ast.Name) and node.id != getattr(statement, "name", None)}


def python_in_markdown(text):
    """The fenced ``python`` blocks and the inline spans that parse as Python."""
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))
    trees = []
    for source in [*blocks, *spans]:
        try:
            trees.append(ast.parse(source))
        except SyntaxError:
            pass
    return trees


def unreferenced(library, outside):
    """``module:name`` for each top-level name of ``library`` (module name to
    source) that neither the library nor the ``outside`` trees refer to."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    found = set().union(*(references(tree) | own_references(module, tree)
                          for module, tree in trees.items()),
                        *map(references, outside))
    return [f"{module}:{name}" for module, tree in sorted(trees.items())
            for name in defined(tree) if (module, name) not in found]


def test_every_top_level_name_has_a_caller_outside_the_tests():
    library = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    scripts = [path for folder in ("bench", "tools")
               for path in sorted((REPO_ROOT / folder).glob("*.py"))]
    outside = [*(ast.parse(path.read_text()) for path in scripts),
               *python_in_markdown((REPO_ROOT / "README.md").read_text())]
    assert unreferenced(library, outside) == []


def test_a_function_named_like_a_method_or_a_word_needs_a_caller():
    # a module function that only the tests call, with a namesake method that
    # the library, the span table and README's prose use
    library = {
        "geometry": "class Box:\n    def project(self, x):\n        return x\n\n"
                    "def project(set_, x):\n    return set_.project(x)\n\n"
                    "def clip(x):\n    return project(Box(), x)\n",
        "hybrid": "from .geometry import clip\n",
    }
    outside = [ast.parse('targets = [(geometry.Box, "project", "span")]'),
               *python_in_markdown("Each set's `project` takes a point;\n"
                                   "`project(cuts, x0)` is the projector.\n")]
    assert unreferenced(library, outside) == []  # clip's caller counts for project
    library["geometry"] = library["geometry"].replace("project(Box(), x)", "x")
    assert unreferenced(library, outside) == ["geometry:project"]
    for reference in ("`geometry.project(box, x)`", "`from csepsolve.geometry import project`"):
        assert unreferenced(library, [*outside, *python_in_markdown(reference)]) == []
    assert unreferenced(library, [*outside, ast.parse('getattr(geometry, "project")')]) == []
