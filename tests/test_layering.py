"""The package's layering rules, read from the source with `ast`.

The verifier takes nothing from the code it certifies: verify.py imports
only graphs.py from the package. Outside input is validated once: io.py,
which reads it, is the only module that calls `make_graph`; every other
module builds its graphs from values the program made itself. Process-wide
collector state belongs to the command line: cli.py is the only module that
imports `gc`, so library callers keep the collector as they set it.
Construction invariants survive `python -O`: no module of the package uses
an `assert` statement, which -O strips; they raise errors instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "antimagic"


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by their name within the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "antimagic":
                found.add(node.module.partition(".")[2] or "__init__")
            elif node.level > 0:
                found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                a.name.partition(".")[2] or "__init__"
                for a in node.names
                if a.name.split(".")[0] == "antimagic"
            )
    return found


def _absolute_imports(tree: ast.Module) -> set[str]:
    """The top-level names of the absolute imports of a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module or "").split(".")[0])
    return found


def _calls(tree: ast.Module, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                return True
    return False


def test_verify_imports_only_graphs():
    assert _package_imports(_tree("verify.py")) == {"graphs"}


def test_only_io_calls_make_graph():
    callers = [path.name for path in sorted(PACKAGE.glob("*.py")) if _calls(_tree(path.name), "make_graph")]
    assert callers == ["io.py"]


def test_only_cli_imports_gc():
    importers = [path.name for path in sorted(PACKAGE.glob("*.py")) if "gc" in _absolute_imports(_tree(path.name))]
    assert importers == ["cli.py"]


def test_no_assert_statements():
    asserting = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Assert)
    ]
    assert asserting == []
