"""Static checks over the package source, with the standard library's ``ast``.

Two kinds of leftover fail here: an import that its module never uses, and
a private module-level name (``_x``) that nothing in the package refers
to.  Names listed in a module's ``__all__`` count as used, so a package
re-export is not an unused import.  A third check keeps the package free of
third-party dependencies: every import is relative or from the standard
library.  A fourth keeps each module's private names its own: a table that
another module reads is public.  A fifth keeps every ``functools`` cache keyed
on protocol vocabulary (labels, gates, Bell outcomes and pairs, ints, and
tuples of these), so that no cache can memoise a whole result keyed on a
state, a trace, an announcement list or a seed, and no cache is applied by
a call, where the check could not read its key; a sixth keeps what a cache
returns immutable, since every caller gets the one object the cache holds.
Four more keep the records cheap and checked: no module imports
``dataclasses`` (with ``inspect``, it costs a cold start milliseconds); no
module calls a record's ``_make`` or ``_replace``, since the package builds
each record through its constructor alone; no module calls ``__new__`` but
a record's own ``__new__``, as ``tuple.__new__(cls, ...)`` once its checks
pass; and every record that checks its fields in ``__new__`` defines its own
``_make``, which ``_replace`` calls, so that neither builds a record past the
checks.
Another keeps lookups on the protocol's vocabulary in C: every ``Enum``
subclass sets ``__hash__ = object.__hash__``, since ``Enum``'s own hash is a
Python function that each cache and dict lookup on a member would call.
Another keeps bulk rejections small: an exception class that defines
``__init__`` declares ``__slots__``, so that no instance grows a ``__dict__``.
The last keeps the package free of functions only its tests call: every
public module-level function is read by the package's own code, not only
imported or listed in ``__all__``.
"""

import ast
import builtins
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ghzshare"
SOURCES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _annotation_strings(tree: ast.AST):
    """Parsed string annotations, such as ``"PipelineTrace | None"``."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                yield ast.parse(annotation.value, mode="eval")


def read_names(tree: ast.AST) -> set[str]:
    """Names a module's code reads: bare names and attribute names."""
    read = set()
    for root in (tree, *_annotation_strings(tree)):
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def used_names(tree: ast.AST) -> set[str]:
    """Names a module reads: the names its code reads and its ``__all__`` entries."""
    used = read_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def package_references() -> set[str]:
    """Every name read anywhere in the package, or imported by one module from another."""
    refs = set()
    for tree in SOURCES.values():
        refs |= used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                refs.update(a.name for a in node.names)
    return refs


def uncalled_functions(sources: dict[str, ast.Module]) -> list[str]:
    """Public module-level functions that no module's code reads, as ``module.name``."""
    read = set().union(*(read_names(tree) for tree in sources.values()))
    return [
        f"{module.removesuffix('.py')}.{node.name}"
        for module, tree in sources.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def absolute_imports(tree: ast.Module) -> list[str]:
    """Top-level modules imported by absolute name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module.split(".")[0])
    return names


def foreign_imports(tree: ast.Module) -> list[str]:
    """Top-level modules imported from neither the package nor the standard library."""
    return [n for n in absolute_imports(tree) if n not in sys.stdlib_module_names]


def record_rebuilds(tree: ast.Module) -> list[str]:
    """Calls of ``_make`` or ``_replace``, on any receiver.

    Which record a call reaches is not known statically, so every such call
    counts: on a validated record it would skip the checks in ``__new__``.
    """
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_make", "_replace")
    ]


def forged_records(tree: ast.Module) -> list[str]:
    """Calls of ``__new__``, on any receiver, but ``x.__new__(cls, ...)`` in a ``__new__``.

    A record's own ``__new__`` builds itself that way once its checks pass;
    any other call builds a record of a type it names past those checks.
    """
    own = {
        id(call)
        for method in ast.walk(tree)
        if isinstance(method, ast.FunctionDef) and method.name == "__new__"
        for call in ast.walk(method)
        if isinstance(call, ast.Call) and call.args and ast.unparse(call.args[0]) == "cls"
    }
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and id(node) not in own
    ]


def private_imports(tree: ast.Module) -> list[str]:
    """Private names (``_x``) imported from another module of the package."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names += [a.name for a in node.names if a.name.startswith("_")]
    return names


def enum_hash_violations(tree: ast.Module) -> list[str]:
    """``Enum`` subclasses whose body does not set ``__hash__ = object.__hash__``.

    A plain ``Enum`` member equals only itself, so hashing by identity agrees
    with its equality.  (A mixed-in ``IntEnum`` equals its value and keeps its
    value's hash; the package defines none.)
    """
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base) in ("Enum", "enum.Enum") for base in node.bases)
        and not any(ast.unparse(stmt) == "__hash__ = object.__hash__" for stmt in node.body)
    ]


def exceptions_with_init(sources: dict[str, ast.Module]) -> list[tuple[str, bool]]:
    """(name, declares ``__slots__``) of each exception class whose body defines ``__init__``.

    A class is an exception if a base, read by its last dotted name, is a
    built-in exception or an exception class of the sources.  Every
    ``BaseException`` can hold a ``__dict__``, but makes one only when an
    attribute outside ``__slots__`` is set, as an ``__init__`` that stores
    fields does on every raise.
    """
    classes = {
        node.name: node
        for tree in sources.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str, seen: frozenset = frozenset()) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        node = classes.get(name)
        if node is None or name in seen:
            return False
        bases = (ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases)
        return any(is_exception(base, seen | {name}) for base in bases)

    return [
        (name, defines(node, "__slots__"))
        for name, node in classes.items()
        if is_exception(name) and defines(node, "__init__")
    ]


def defines(node: ast.ClassDef, name: str) -> bool:
    """Whether a class body defines ``name``, by ``def`` or by assignment."""
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return True
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [getattr(stmt, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return True
    return False


# the types a cached function's parameters may have, and tuples of them
VOCABULARY = {"StateLabel", "PauliGate", "BellOutcome", "BellPair", "int"}


def _names_a_cache(node: ast.expr) -> bool:
    """``functools.cache``/``lru_cache``, or one of them imported by name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "functools" and node.attr in ("cache", "lru_cache")
    return isinstance(node, ast.Name) and node.id in ("cache", "lru_cache")


def _is_vocabulary(annotation: ast.expr | None) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in VOCABULARY
    if isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name):
        items = annotation.slice
        items = items.elts if isinstance(items, ast.Tuple) else [items]
        return annotation.value.id == "tuple" and all(
            _is_vocabulary(item) or (isinstance(item, ast.Constant) and item.value is ...)
            for item in items
        )
    return False


def _is_cache_decorator(decorator: ast.expr) -> bool:
    return _names_a_cache(decorator.func if isinstance(decorator, ast.Call) else decorator)


def cached_functions(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_cache_decorator(d) for d in node.decorator_list)
    ]


def cache_violations(tree: ast.Module) -> list[str]:
    """Cached functions with a parameter outside the vocabulary, and other cache calls."""
    violations, decorators = [], set()
    for node in cached_functions(tree):
        decorators.update(node.decorator_list)
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        if not all(_is_vocabulary(p.annotation) for p in params):
            violations.append(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _names_a_cache(node.func) and node not in decorators:
            violations.append(ast.unparse(node))
    return violations


def record_classes(trees) -> set[str]:
    """Classes that derive from ``NamedTuple``, directly or through another record."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    records = {"NamedTuple"}
    while True:
        found = {
            c.name for c in classes if any(getattr(b, "id", None) in records for b in c.bases)
        }
        if found <= records:
            return records - {"NamedTuple"}
        records |= found


def checking_records(sources: dict[str, ast.Module]) -> list[tuple[str, bool]]:
    """(name, defines ``_make``) of each record whose body defines ``__new__``.

    The generated ``_make``, which ``_replace`` calls, builds the tuple
    without ``__new__``, so a record that checks its fields there needs a
    ``_make`` of its own.
    """
    records = record_classes(sources.values())
    return [
        (node.name, defines(node, "_make"))
        for tree in sources.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in records and defines(node, "__new__")
    ]


# what a cached function may return, besides the package's records; a Mapping
# must be served as a MappingProxyType
IMMUTABLE = {"tuple", "frozenset", "Mapping", "str", "int", "Fraction"}
RECORDS = record_classes(SOURCES.values())


def _return_type(annotation: ast.expr | None) -> str | None:
    """The name of an annotation's outer type: ``tuple`` for ``tuple[int, ...]``."""
    if isinstance(annotation, ast.Constant) and annotation.value is None:
        return "None"
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return annotation.id if isinstance(annotation, ast.Name) else None


def cached_return_violations(tree: ast.Module) -> list[str]:
    """Cached functions whose return annotation is missing or names a mutable type."""
    violations = []
    for node in cached_functions(tree):
        kind = _return_type(node.returns)
        returned = [n.value for n in ast.walk(node) if isinstance(n, ast.Return)]
        proxied = all(
            isinstance(v, ast.Call) and ast.unparse(v.func) == "MappingProxyType"
            for v in returned
        )
        if kind not in IMMUTABLE | RECORDS or (kind == "Mapping" and not proxied):
            violations.append(node.name)
    return violations


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_caches_return_immutable_values(module):
    violations = cached_return_violations(SOURCES[module])
    assert not violations, f"{module}: caches that may return a mutable value {violations}"


def test_return_check_catches_planted_mutable_tables():
    assert {"Branch", "DenseState", "Decoder", "GateAction", "TamperReport"} <= RECORDS
    assert "NoMatch" not in RECORDS
    planted = ast.parse(
        "@functools.cache\ndef _branches(label: StateLabel) -> list[Branch]:\n    pass\n\n"
        "@functools.cache\ndef _index(pair: BellPair) -> dict:\n    pass\n\n"
        "@lru_cache(maxsize=None)\ndef _bare(q: int):\n    pass\n\n"
        "@functools.cache\ndef _view(q: int) -> Mapping[int, int]:\n    return {q: q}\n\n"
        "@functools.cache\ndef _proxy(q: int) -> Mapping[int, int]:\n"
        "    return MappingProxyType({q: q})\n\n"
        "@functools.cache\ndef _state(label: StateLabel) -> DenseState:\n    pass\n\n"
        "@functools.cache\ndef _rows(q: int) -> tuple[tuple[int, int], ...]:\n    pass\n\n"
        "@functools.cache\ndef _check(q: int) -> None:\n    pass\n"
    )
    # a cache of a check that returns None is no table
    assert cached_return_violations(planted) == [
        "_branches",
        "_index",
        "_bare",
        "_view",
        "_check",
    ]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_caches_are_keyed_on_protocol_vocabulary(module):
    violations = cache_violations(SOURCES[module])
    assert not violations, f"{module}: caches keyed outside the vocabulary {violations}"


def test_cache_check_catches_planted_result_caches():
    planted = ast.parse(
        "import functools\nfrom functools import lru_cache\n\n"
        "@functools.cache\ndef _table(label: StateLabel, pairs: tuple[BellPair, ...], q: int):\n"
        "    pass\n\n"
        "@functools.cache\ndef _runs(announcements: tuple[Announcement, ...]):\n    pass\n\n"
        "@lru_cache(maxsize=None)\ndef _collapse(state: SymbolicState, pair: BellPair):\n"
        "    pass\n\n"
        "@functools.cache\ndef _unannotated(label, *, seed: int):\n    pass\n\n"
        "_probability = functools.cache(Fraction)\n_replayed = functools.cache(replay)\n"
        "_held = functools.lru_cache(maxsize=8)(_table)\n"
    )
    assert cache_violations(planted) == [
        "_runs",
        "_collapse",
        "_unannotated",
        "functools.cache(Fraction)",
        "functools.cache(replay)",
        "functools.lru_cache(maxsize=8)",
    ]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_enums_hash_by_identity(module):
    violations = enum_hash_violations(SOURCES[module])
    assert not violations, f"{module}: enums that keep Enum's Python-level hash {violations}"


def test_enum_hash_check_catches_planted_enums():
    planted = ast.parse(
        "class Slow(Enum):\n    A = 'a'\n\n"
        "class Qualified(enum.Enum):\n    A = 'a'\n\n"
        "class Nested(Enum):\n    A = 'a'\n\n    def f(self):\n"
        "        __hash__ = object.__hash__\n\n"
        "class Fast(Enum):\n    A = 'a'\n    __hash__ = object.__hash__\n\n"
        "class Record(NamedTuple):\n    a: int\n"
    )
    assert enum_hash_violations(planted) == ["Slow", "Qualified", "Nested"]
    # the package's enums are the ones the check reads
    enums = [
        node.name
        for tree in SOURCES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and "Enum" in map(ast.unparse, node.bases)
    ]
    assert enums == ["PauliGate", "StateLabel", "BellOutcome"]


def test_exceptions_that_store_fields_declare_slots():
    unslotted = [name for name, slotted in exceptions_with_init(SOURCES) if not slotted]
    assert not unslotted, f"exceptions with __init__ and a per-instance dict: {unslotted}"


def test_exception_slot_check_catches_planted_exceptions():
    planted = {
        "a.py": ast.parse(
            "class Base(Exception):\n    def __init__(self, m):\n        self.m = m\n\n"
            "class Slotted(Base):\n    __slots__ = ('n',)\n\n"
            "    def __init__(self, m):\n        self.n = m\n\n"
            "class Inherited(Slotted):\n    def __init__(self, m):\n        self.k = m\n\n"
            "class Plain(Exception):\n    pass\n\n"
            "class Record(NamedTuple):\n    a: int\n\n    def __init__(self, a):\n        pass\n"
        ),
        "b.py": ast.parse(
            "from .a import Plain\n\n"
            "class Qualified(a.Plain):\n    def __init__(self):\n        pass\n\n"
            "class Annotated(ValueError):\n    __slots__: tuple = ()\n\n"
            "    def __init__(self):\n        pass\n\n"
            "class Builtin(KeyError):\n    def __init__(self):\n        pass\n"
        ),
    }
    assert exceptions_with_init(planted) == [
        ("Base", False),
        ("Slotted", True),
        ("Inherited", False),
        ("Qualified", False),
        ("Annotated", True),
        ("Builtin", False),
    ]
    # no exception of the package stores a field
    assert exceptions_with_init(SOURCES) == []


def test_records_that_check_their_fields_define_make():
    unchecked = [name for name, made in checking_records(SOURCES) if not made]
    assert not unchecked, f"records whose _make and _replace skip __new__: {unchecked}"


def test_make_check_catches_a_planted_record():
    planted = {
        "a.py": ast.parse(
            "class _Pair(NamedTuple):\n    a: int\n    b: int\n\n"
            "class Unmade(_Pair):\n    def __new__(cls, a, b):\n        pass\n\n"
            "class Made(_Pair):\n    _make = classmethod(_construct)\n\n"
            "    def __new__(cls, a, b):\n        pass\n\n"
            "class Unchecked(_Pair):\n    pass\n\n"
            "class Plain:\n    def __new__(cls):\n        pass\n"
        ),
        "b.py": ast.parse(
            "class Deeper(Made):\n    def __new__(cls, a, b):\n        pass\n\n"
            "class Defined(Made):\n    @classmethod\n    def _make(cls, it):\n        pass\n\n"
            "    def __new__(cls, a, b):\n        pass\n"
        ),
    }
    assert checking_records(planted) == [
        ("Unmade", False),
        ("Made", True),
        ("Deeper", False),
        ("Defined", True),
    ]
    # the package's checking records are the ones the check reads
    assert checking_records(SOURCES) == [
        ("GateAction", True),
        ("MeasurementAnnouncement", True),
        ("StateLabelAnnouncement", True),
        ("PositionAnnouncement", True),
        ("Announcements", True),
        ("Term", True),
    ]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_private_names_cross_modules(module):
    crossing = private_imports(SOURCES[module])
    assert not crossing, f"{module}: imports private names {crossing}"


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_imports_are_relative_or_standard_library(module):
    assert not foreign_imports(SOURCES[module]), f"{module}: imports outside the standard library"


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_module_imports_dataclasses(module):
    assert "dataclasses" not in absolute_imports(SOURCES[module])


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_record_is_built_past_its_constructor(module):
    rebuilds = record_rebuilds(SOURCES[module])
    assert not rebuilds, f"{module}: builds records without __new__: {rebuilds}"


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_record_is_built_past_its_own_new(module):
    forged = forged_records(SOURCES[module])
    assert not forged, f"{module}: builds records past their checks: {forged}"


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_imports(module):
    tree = SOURCES[module]
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert not unused, f"{module}: unused imports {unused}"


def test_every_private_module_name_is_referenced():
    refs = package_references()
    unreferenced = [
        f"{module}:{name}"
        for module, tree in SOURCES.items()
        for name in private_definitions(tree)
        if name not in refs
    ]
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


def test_every_public_function_is_called_from_the_package():
    assert uncalled_functions(SOURCES) == []


def test_uncalled_function_check_catches_a_planted_wrapper():
    planted = {
        "a.py": ast.parse(
            "def step(x):\n    return x\n\ndef wrapper(x):\n    return step(x)\n\n"
            "__all__ = ['wrapper']\n"
        ),
        "b.py": ast.parse("from .a import wrapper\n\ndef main():\n    pass\n\nmain()\n"),
    }
    assert uncalled_functions(planted) == ["a.wrapper"]


def test_checks_catch_planted_leftovers():
    planted = ast.parse(
        "import os\nfrom typing import Optional\n\n"
        "def _unit(v):\n    return v\n\nx: Optional[int] = 1\n"
    )
    assert [n for n in imported_names(planted) if n not in used_names(planted)] == ["os"]
    assert private_definitions(planted) == ["_unit"]
    assert "_unit" not in used_names(planted)


def test_import_check_catches_a_planted_third_party_import():
    planted = ast.parse(
        "from __future__ import annotations\nimport json, os.path\nimport numpy as np\n"
        "from fractions import Fraction\nfrom . import qcore\nfrom .qcore import DIM\n"
        "from numpy.linalg import norm\n"
    )
    assert foreign_imports(planted) == ["numpy", "numpy"]


def test_private_import_check_catches_a_planted_import():
    planted = ast.parse(
        "from os import _exit\nfrom . import qcore\n"
        "from .qcore import GATE_IMAGES, _bell_tables\nfrom .symexact import (Term, _shifts)\n"
    )
    assert private_imports(planted) == ["_bell_tables", "_shifts"]


def test_record_checks_catch_planted_imports_and_rebuilds():
    planted = ast.parse(
        "import dataclasses as dc\nfrom dataclasses import dataclass\nfrom . import protocol\n"
        "a = GateAction._make((gate, True))\nb = action._replace(position=1.0)\n"
        "c = state._fields\nd = replace(action, position=6)\n"
    )
    assert absolute_imports(planted) == ["dataclasses", "dataclasses"]
    assert record_rebuilds(planted) == [
        "GateAction._make((gate, True))",
        "action._replace(position=1.0)",
    ]


def test_new_check_catches_planted_forgeries():
    planted = ast.parse(
        "a = tuple.__new__(Announcements, records)\n\n"
        "def _made(cls, it):\n    return tuple.__new__(cls, it)\n\n"
        "class Pair(_Pair):\n    def __new__(cls, a, b):\n"
        "        other = tuple.__new__(Other, (a, b))\n"
        "        inner = _Pair.__new__(cls, a, b)\n"
        "        return tuple.__new__(cls, (a, b))\n\n"
        "    def _make(cls, it):\n        return super().__new__(cls, *it)\n\n"
        "b = _Pair.__new__(Pair, 1, 2)\nc = Pair(1, 2)\n"
    )
    assert forged_records(planted) == [
        "tuple.__new__(Announcements, records)",
        "_Pair.__new__(Pair, 1, 2)",
        "tuple.__new__(cls, it)",
        "tuple.__new__(Other, (a, b))",
        "super().__new__(cls, *it)",
    ]
    # the package's own calls are the checking records' __new__s
    calls = [
        ast.unparse(node)
        for tree in SOURCES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".__new__")
    ]
    assert len(calls) == 6 and all(call.startswith("tuple.__new__(cls, ") for call in calls)
