"""Static checks over the library modules, standing in for a linter.

Every module-level import of a module in ``src/permpat`` (``__init__.py``
aside, which imports to re-export) is used in that module, every
module-level ``_private`` function is referenced somewhere in the package,
and every public function, class, method and property is referenced by
another part of the library or named in ``PUBLIC_ENTRY_POINTS``.
Imports sit at module level only and follow the layer order ``LAYERS``, and
a ``PermGroup`` is constructed directly only where its element set is
produced or checked by the closure, or is all of S_n.  Module state lives
only in ``functools`` caches: no function declares a name ``global`` or
assigns through a subscript of a module-level name.  The level-degree
refusal and the degree range are each worded once, and every law suite in
``verify`` has a docstring.
"""
import ast
from pathlib import Path
from typing import Iterator

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "permpat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

#: Each module imports only from the modules before it.
LAYERS = ("perms", "partitions", "groups", "galois", "classify", "verify", "cli", "__main__")

#: The only functions that call ``PermGroup(...)``, or ``cls(...)`` in a
#: ``PermGroup`` method: the closure, the group check ``from_words``, S_n
#: (all words by definition) and the subgroup enumeration, whose element sets
#: come from ``_extend``.
DIRECT_CONSTRUCTORS = {
    "PermGroup.closure",
    "PermGroup.from_words",
    "symmetric_group",
    "enumerate_subgroups",
}


#: Public functions, classes, methods and properties (``module.name`` or
#: ``module.Class.name``) kept although nothing in the library references
#: them, each with the reason it stays.  Only the library counts: the
#: re-exports in ``__init__.py``, the tests and the benchmark's name strings
#: do not keep a name alive.
PUBLIC_ENTRY_POINTS: dict[str, str] = {}


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


def _references(
    node: ast.AST, scope: tuple[str, ...] = ()
) -> Iterator[tuple[tuple[str, ...], str]]:
    """Each name a module refers to (a ``Name``, an attribute or an imported
    name), with the chain of class and function definitions it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _references(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Name):
            yield scope, child.id
        elif isinstance(child, ast.Attribute):
            yield scope, child.attr
        elif isinstance(child, ast.ImportFrom):
            for alias in child.names:
                yield scope, alias.name
        yield from _references(child, scope)


def _public_definitions(tree: ast.Module) -> Iterator[tuple[str, ...]]:
    """Public module-level functions and classes, and the public non-dunder
    methods and properties of those classes, as chains of names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield (node.name,)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield (node.name, item.name)


def test_public_names_are_referenced():
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    refs = [(m, scope, name) for m, tree in trees.items() for scope, name in _references(tree)]
    unreferenced = [
        ".".join((m,) + chain)
        for m, tree in trees.items()
        for chain in _public_definitions(tree)
        if ".".join((m,) + chain) not in PUBLIC_ENTRY_POINTS
        # a reference from inside the definition itself does not count
        and not any(
            name == chain[-1] and (rm, scope[: len(chain)]) != (m, chain)
            for rm, scope, name in refs
        )
    ]
    assert not unreferenced, f"public names never referenced in the library: {unreferenced}"


def _functions(tree: ast.AST, prefix: str = "") -> Iterator[tuple[str, ast.AST]]:
    """Every function definition, with its dotted name, outermost first."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text())
    inside = [
        f"{name}:{node.lineno}"
        for name, fn in _functions(tree)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not inside, f"{path.name} imports inside functions at {inside}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_earlier_layers(path):
    layer = LAYERS.index(path.stem)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [a.name for a in node.names]
            for target in targets:
                assert LAYERS.index(target) < layer, f"{path.name} imports .{target}"


def test_permgroup_is_constructed_directly_only_by_the_closure():
    found = set()
    for path in SRC.glob("*.py"):
        for name, fn in _functions(ast.parse(path.read_text())):
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                callee = node.func.id
                if callee == "PermGroup" or (callee == "cls" and name.startswith("PermGroup.")):
                    found.add(name)
    assert found <= DIRECT_CONSTRUCTORS, (
        f"PermGroup built directly in {sorted(found - DIRECT_CONSTRUCTORS)}"
    )


def test_one_right_multiplication():
    # r -> r·s is built by groups._times alone, not by an itemgetter over a
    # generator expression
    found = [p.name for p in SRC.glob("*.py") if "x - 1 for x in" in p.read_text()]
    assert not found, f"right multiplication written out in {found}"


@pytest.mark.parametrize(
    "wording",
    ["level degree {MAX_DEGREE + 1} exceeds the cap {MAX_DEGREE}", "1..{MAX_DEGREE}, got"],
)
def test_one_degree_refusal(wording):
    # the level-degree refusal (perms._check_level_degree) and the degree
    # range (perms._check_degree) are each written once
    found = [p.name for p in SRC.glob("*.py") for _ in range(p.read_text().count(wording))]
    assert found == ["perms.py"], f"{wording!r} written in {found}"


def _module_names(tree: ast.Module) -> set[str]:
    """The names a module binds by assignment at module level."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _local_names(fn: ast.AST) -> set[str]:
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    stored = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return stored | {a.arg for a in params if a is not None}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_state_lives_only_in_functools_caches(path):
    # a hand-rolled memo (a module dict filled by a function) would be a
    # second kind of cache beside the lru_caches
    tree = ast.parse(path.read_text())
    module_names = _module_names(tree)
    found = []
    for name, fn in _functions(tree):
        shared = module_names - _local_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append(f"{name}: global {', '.join(node.names)}")
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                base = node.value
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in shared:
                    found.append(f"{name}: {base.id}[...] assigned")
    assert not found, f"{path.name} keeps module state by hand: {found}"


def test_every_law_suite_has_a_docstring():
    # each names its statement and the independent side it is checked against
    tree = ast.parse((SRC / "verify.py").read_text())
    (suites,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "_LAW_SUITES"
    ]
    names = [row.elts[2].id for row in suites.elts]
    docs = {
        node.name: ast.get_docstring(node)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    missing = [name for name in names if not docs[name]]
    assert names and not missing, f"law suites without a docstring: {missing}"
