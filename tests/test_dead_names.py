"""No dead top-level names and no unused imports in the package.

A top-level function, class or constant of src/antimagic/ must be exported
in `__all__`, reached on its module by bench/, or referenced somewhere in
src/ other than where it is defined. bench/ reaches a name on a module by a
patch row `("antimagic.<module>", "<name>", ...)` or by an access
`prog.<module>.<name>`. A name a module imports must be read in that module,
listed in its `__all__`, or patched on that module by bench/. Anything else
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


def _imports(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, `from __future__` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).partition(".")[0] for a in node.names]
    return names


def _reads(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _trees() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
    }


PATCH_ROW = r'"antimagic\.(\w+)", "(\w+)"'
PROG_ACCESS = r"\bprog\.(\w+)\.(\w+)"


def _bench_reaches(pattern: str) -> set[tuple[str, str]]:
    """The (module, name) pairs that pattern matches in bench/*.py."""
    found = set()
    for path in (ROOT / "bench").glob("*.py"):
        found.update(re.findall(pattern, path.read_text(encoding="utf-8")))
    return found


def dead_names() -> list[str]:
    trees = _trees()
    referenced = set().union(*map(_references, trees.values()))
    exported = set().union(*map(_exported, trees.values()))
    reached = _bench_reaches(PATCH_ROW) | _bench_reaches(PROG_ACCESS)
    return [
        f"{path.name}:{name}"
        for path, tree in trees.items()
        for name in _definitions(tree)
        if name not in exported and (path.stem, name) not in reached and name not in referenced
    ]


def test_no_dead_top_level_names():
    assert dead_names() == []


def unused_imports() -> list[str]:
    patched = _bench_reaches(PATCH_ROW)
    return [
        f"{path.name}:{name}"
        for path, tree in _trees().items()
        for name in _imports(tree)
        if name not in _reads(tree)
        and name not in _exported(tree)
        and (path.stem, name) not in patched
    ]


def test_no_unused_imports():
    assert unused_imports() == []
