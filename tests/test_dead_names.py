"""No dead top-level names in the package.

A top-level function, class or constant of src/antimagic/ must be exported
in `__all__`, named in bench/ (the benchmark patches functions by name), or
referenced somewhere in src/ other than where it is defined. Anything else
is dead code.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "antimagic"


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _references(tree: ast.Module) -> set[str]:
    """Every name read and every attribute taken."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def dead_names() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
    }
    referenced = set().union(*map(_references, trees.values()))
    exported = set().union(*map(_exported, trees.values()))
    bench_words = set()
    for path in (ROOT / "bench").glob("*.py"):
        bench_words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return [
        f"{path.name}:{name}"
        for path, tree in trees.items()
        for name in _definitions(tree)
        if name not in exported and name not in bench_words and name not in referenced
    ]


def test_no_dead_top_level_names():
    assert dead_names() == []
