"""Static checks over the library modules, standing in for a linter.

Every module-level import of a module in ``src/permpat`` (``__init__.py``
aside, which imports to re-export) is used in that module, and every
module-level ``_private`` function is referenced somewhere in the package.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "permpat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            while isinstance(node, ast.Attribute):
                node = node.value
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text())
    used = _names_used(tree)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports {unused} without using them"


def test_private_functions_are_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    used = set().union(*(_names_used(t) for t in trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    unreferenced = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not unreferenced, f"private functions never referenced: {unreferenced}"
