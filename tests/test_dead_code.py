"""Static dead-code checks over the package source, with the standard
library's ``ast`` only.

Two kinds of leftovers fail the suite: an imported name that its module
never uses (names listed in ``__all__`` count as used), and a private
name (``_x``, not a dunder) defined as a function, method, class or
module constant that nothing else in the package references.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repeaterlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name.strip("_") != ""


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def _private_definitions(tree: ast.Module):
    """Private functions, methods and classes anywhere in the module, and
    private module-level constants."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name):
            yield node.name
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and _is_private(target.id):
                yield target.id


def _references(tree: ast.Module):
    """Every name the module reads, as a bare name, an attribute or an
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


def unreferenced_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each private definition that no module
    references."""
    referenced = {name for tree in trees.values() for name in _references(tree)}
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in referenced
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_no_unreferenced_private_names():
    assert len(MODULES) > 1, f"no modules under {PACKAGE}"
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert unreferenced_private_names(trees) == []


def test_checks_flag_planted_leftovers():
    # A module with one leftover of each kind, next to the used and
    # exported names that must not be flagged.
    planted = ast.parse(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import NamedTuple, Optional\n"
        "from .core import exported\n"
        "__all__ = ['exported']\n"
        "_USED = 1\n"
        "_STALE = 2\n"
        "def _helper(x: Optional[int]) -> int:\n"
        "    return math.floor(_USED)\n"
        "def _orphan():\n"
        "    return _helper(1)\n"
        "class _Box:\n"
        "    def _kept(self):\n"
        "        return self._kept\n"
        "    def _dropped(self):\n"
        "        return 0\n"
    )
    assert unused_imports(planted) == ["os", "NamedTuple"]
    assert unreferenced_private_names({"planted": planted}) == [
        "planted._orphan",
        "planted._Box",
        "planted._dropped",
        "planted._STALE",
    ]
