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
assigns through a subscript of a module-level name, and every cached
function returns an immutable value (the package's own such classes refuse
attribute assignment), while S_n, A_n and the Young and
block-automorphism groups are not cached.  The level-degree
refusal, the element-cap refusal, the degree range, the depth refusal and
the member refusals are each worded once, every exception message is
written at one site, the classifier builds each eventual family in one place,
every law suite in ``verify`` has a docstring, a product of words is built
in one place, and ``Word`` is defined once, with no word converted between
tuples and bytes.
"""
import ast
import builtins
import inspect
import re
from pathlib import Path
from typing import Iterator

import pytest

import permpat as pp
from permpat import groups as groups_mod

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


#: Text forms of a product of words written beside ``perms._times``: an
#: itemgetter over positions, a generator over positions, and a word built by
#: reading one word at the values of another, ``bytes(f[x - 1] for x in g)``.
_SECOND_PRODUCTS = ("itemgetter", "x - 1 for x in", r"bytes\([\w.]+\[(\w+) - 1\] for \1 in")


def test_one_multiplication():
    # a product of words is one translate by the table perms._times builds:
    # _times is defined once, in perms, no module writes a product another
    # way, and no function in groups builds a 256-byte table
    assert re.search(_SECOND_PRODUCTS[-1], "bytes(f[x - 1] for x in g)")
    found = [
        f"{p.name}: {text}"
        for p in SRC.glob("*.py")
        for text in _SECOND_PRODUCTS
        if re.search(text, p.read_text())
    ]
    defined = [
        p.name
        for p in SRC.glob("*.py")
        for name, _ in _functions(ast.parse(p.read_text()))
        if name == "_times"
    ]
    tables = [
        name
        for name, fn in _functions(ast.parse((SRC / "groups.py").read_text()))
        if any(
            (isinstance(n, ast.Constant) and n.value == 256)
            or (isinstance(n, ast.Name) and n.id == "_IDENTITY_TABLE")
            for n in ast.walk(fn)
        )
    ]
    assert not found and defined == ["perms.py"] and not tables, (found, defined, tables)


#: Each refusal's wording and the one module that writes it.
_REFUSALS = {
    "level degree {MAX_DEGREE + 1} exceeds the cap {MAX_DEGREE}": "perms.py",
    "1..{MAX_DEGREE}, got": "perms.py",
    '"depth must be >= 1"': "perms.py",
    "words exceed the element cap": "perms.py",
    "is not a bytes word": "groups.py",
    "member degree": "groups.py",
}


@pytest.mark.parametrize("wording", list(_REFUSALS))
def test_one_degree_refusal(wording):
    # the level-degree refusal (perms._check_level_degree), the degree range
    # (perms._check_degree), the depth refusal (perms._check_depth), the
    # element-cap refusal (perms._cap_exceeded) and the two member refusals
    # (groups._check_word) are each written once
    found = [p.name for p in SRC.glob("*.py") for _ in range(p.read_text().count(wording))]
    assert found == [_REFUSALS[wording]], f"{wording!r} written in {found}"


def _calls_to(name: str, tree: ast.AST) -> set[int]:
    return {
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
    }


def test_one_element_cap_refusal():
    # every element-cap refusal (S_n, A_n, Young, automorphism group,
    # closure, level step) is built by perms._cap_exceeded; the only other
    # CapExceeded is the level-degree refusal, a cap on degree, not elements
    found = []
    for p in SRC.glob("*.py"):
        tree = ast.parse(p.read_text())
        owner = {}
        for name, fn in _functions(tree):  # outermost first: the innermost owner wins
            owner.update(dict.fromkeys(_calls_to("CapExceeded", fn), f"{p.stem}.{name}"))
        found += [owner.get(line, f"{p.name}:{line}") for line in _calls_to("CapExceeded", tree)]
    assert sorted(found) == ["perms._cap_exceeded", "perms._check_level_degree"], found


def _is_exception(name: str) -> bool:
    cls = getattr(builtins, name, getattr(pp, name, None))
    return isinstance(cls, type) and issubclass(cls, BaseException)


def _message_template(node: ast.expr) -> str | None:
    """A literal message, each interpolation written ``{}``; None if not literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def test_each_message_is_written_at_one_site():
    # every exception the package builds with a literal message: no two
    # sites word one refusal, which a shared check then states once
    sites: dict[str, list[str]] = {}
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and _is_exception(node.func.id)
                and node.args
                and (template := _message_template(node.args[0])) is not None
            ):
                sites.setdefault(template, []).append(f"{p.name}:{node.lineno}")
    assert "degree mismatch: {} vs {}" in sites  # the collector sees the refusals
    twice = {t: s for t, s in sites.items() if len(s) > 1}
    assert not twice, twice


def test_classify_states_each_eventual_family_once():
    # the family is read off G before the class dispatch, one construction
    # per kind; verify._family_candidates builds its own, as the other side
    built = [
        node.args[0].value
        for node in ast.walk(ast.parse((SRC / "classify.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "EventualFamily"
    ]
    assert sorted(built) == ["cyclic", "sab", "symmetric"], built


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


#: The types a memo may return: one value then serves every caller, so it
#: must be one no caller can change.  ``Word`` is ``bytes``.
_IMMUTABLE_RETURNS = {
    "tuple", "frozenset", "bytes", "Word", "Perm", "PermGroup", "Partition", "None"
}

#: Named groups that are not memoized: kept per process, the S_n, A_n, Young,
#: Sab and block-automorphism groups cost more memory than their closures
#: cost time.
_UNCACHED_GROUPS = (
    "symmetric_group",
    "alternating_group",
    "young_subgroup",
    "young_with_reversal",
    "sab_group",
    "partition_automorphisms",
)


def _last_name(node: ast.expr) -> str | None:
    """``x`` for the expression ``x`` or ``a.b.x``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return _last_name(target) in ("lru_cache", "cache")


def _unlisted_types(annotation: ast.expr | None) -> list[str]:
    """The types in a return annotation that ``_IMMUTABLE_RETURNS`` does not
    list; a missing annotation counts as one."""
    if annotation is None:
        return ["no annotation"]
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _unlisted_types(annotation.left) + _unlisted_types(annotation.right)
    if isinstance(annotation, ast.Subscript):
        args = annotation.slice
        elts = args.elts if isinstance(args, ast.Tuple) else [args]
        return _unlisted_types(annotation.value) + [t for e in elts for t in _unlisted_types(e)]
    if isinstance(annotation, ast.Constant) and annotation.value in (None, Ellipsis):
        return []
    return [] if _last_name(annotation) in _IMMUTABLE_RETURNS else [ast.unparse(annotation)]


def test_memos_return_immutable_values():
    # a memo hands the same value to every caller, so a list, set or dict
    # it returned could be changed by one caller under the others
    cached, found = [], []
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            if any(_is_cache(d) for d in fn.decorator_list):
                cached.append(f"{path.stem}.{name}")
                bad = _unlisted_types(fn.returns)
                if bad:
                    found.append(f"{path.stem}.{name}: {bad}")
    assert {"perms.ascending", "groups.natural_dihedral_group"} <= set(cached), cached
    assert not found, f"memos returning a mutable value: {found}"
    assert _unlisted_types(ast.parse("tuple[list[Word], ...] | dict", mode="eval").body) == [
        "list", "dict"
    ]


def test_package_classes_a_memo_may_return_refuse_assignment():
    # the names above are immutable in fact, not only by name: every field
    # of a sample value of each of the package's own classes is read-only
    samples = {
        "Perm": pp.ascending(3),
        "PermGroup": pp.natural_dihedral_group(3),
        "Partition": pp.parse_partition("1,2|3"),
    }
    builtin = {"tuple", "frozenset", "bytes", "Word", "None"}
    assert set(samples) == _IMMUTABLE_RETURNS - builtin
    for name, value in samples.items():
        assert type(value).__name__ == name
        fields = getattr(value, "_fields", None) or [
            f for cls in type(value).__mro__ for f in getattr(cls, "__slots__", ())
        ]
        assert fields, name
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)


@pytest.mark.parametrize("name", _UNCACHED_GROUPS)
def test_large_named_groups_are_not_memoized(name):
    fn = getattr(groups_mod, name)
    assert inspect.isfunction(fn) and not hasattr(fn, "cache_info"), f"{name} is memoized"


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


def test_one_word_type():
    # Word is bytes, defined in perms alone; the kernels convert no word
    # between tuples and bytes: bytes(...) is mapped only over the int
    # tuples itertools generates, to build words
    defined = [
        p.name
        for p in SRC.glob("*.py")
        for node in ast.parse(p.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "Word" for t in node.targets)
    ]
    assert defined == ["perms.py"], defined
    found = []
    for name in ("galois.py", "groups.py", "perms.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "map"
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in ("tuple", "bytes")
            ):
                continue
            source = node.args[1]
            from_itertools = (
                node.args[0].id == "bytes"
                and isinstance(source, ast.Call)
                and isinstance(source.func, ast.Attribute)
                and isinstance(source.func.value, ast.Name)
                and source.func.value.id == "itertools"
            )
            if not from_itertools:
                found.append(f"{name}:{node.lineno}")
    assert not found, f"words converted between tuples and bytes at {found}"
