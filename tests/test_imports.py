"""Every name a `hypermatch` module or a test module imports is read somewhere
in that module, every parameter of a function is read in that function's
body, every other name a function binds is read in that function or a
function nested in it, and every public function, class, method and
property of a `hypermatch` module has a reader outside its own definition
and outside the unit tests.

`__init__.py` is skipped for imports: they are the package's exports. Dunder
protocol methods (`__setattr__`, `__exit__`) are skipped for parameters: the
protocol fixes their signature. `__init__` is not one of them. A local
declared `nonlocal` or `global` counts as read (the binding is the outer
scope's), and `_` is exempt: it is the name for a value thrown away.

A reader of a public name is a read of the same identifier (a name, an
attribute, an imported name or a string equal to it) in `src/` outside the
definition, in `perfbench/*.py` or in `tests/test_acceptance.py`; an export
in `__init__.py` is one. Identifiers are matched by name alone, so two
definitions that share a name count as reading each other. Methods of
private classes (such as `cli._Parser.error`, an argparse override) are not
checked.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hypermatch"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
READERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
READERS.append(ROOT / "tests" / "test_acceptance.py")
# ROADMAP item 7 gives case_split_demo a reader; until then it is the one
# public name kept without one
UNREAD_BY_DESIGN = {"harness.py": ["case_split_demo"]}


def _imported(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unread_parameters(tree: ast.AST) -> list[tuple[str, str]]:
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name != "__init__" and fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = set().union(*map(_read, fn.body))
        unread += [(fn.name, p.arg) for p in params if p.arg not in read]
    return unread


def _bound(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.ExceptHandler) and node.name:
        return [node.name]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    return []


def _unread_locals(tree: ast.AST) -> list[tuple[str, str]]:
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = [node for stmt in fn.body for node in ast.walk(stmt)]
        read = set().union(*map(_read, fn.body))
        read.update(*(n.names for n in inner if isinstance(n, (ast.Global, ast.Nonlocal))))
        bound = dict.fromkeys(name for node in inner for name in _bound(node))
        unread += [(fn.name, name) for name in bound if name != "_" and name not in read]
    return unread


def _identifier_reads(tree: ast.AST) -> Counter:
    reads = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads[n.attr] += 1
        elif isinstance(n, ast.alias):
            reads[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            reads[n.value] += 1
    return reads


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    """Public top-level functions and classes, then the public methods of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [n for n in tree.body if isinstance(n, (*kinds, ast.ClassDef)) and n.name[0] != "_"]
    classes = [n for n in defs if isinstance(n, ast.ClassDef)]
    return defs + [m for c in classes for m in c.body if isinstance(m, kinds) and m.name[0] != "_"]


def _unread_public(tree: ast.Module, reads: Counter) -> list[str]:
    """Public names defined in tree that reads holds no read of outside
    their own definitions; reads covers every reader, tree included."""
    return [
        d.name for d in _public_definitions(tree) if reads[d.name] <= _identifier_reads(d)[d.name]
    ]


@cache
def _reader_reads() -> Counter:
    trees = (ast.parse(p.read_text(encoding="utf-8")) for p in READERS)
    return sum(map(_identifier_reads, trees), Counter())


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_imported(tree) - _read(tree)) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import os.path\nfrom math import comb, ceil as c\nx = c(1.5)\n")
    assert sorted(_imported(tree) - _read(tree)) == ["comb", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert _unread_parameters(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unread_parameter_is_reported():
    tree = ast.parse(
        "def f(a, b, *, c=1, **kw):\n"
        "    def g():\n"
        "        return a + kw['x']\n"
        "    return g\n"
        "class C:\n"
        "    def __init__(self, x):\n"
        "        self.y = 1\n"
        "    def __exit__(self, exc_type, exc, tb):\n"
        "        return None\n"
    )
    assert _unread_parameters(tree) == [("f", "b"), ("f", "c"), ("__init__", "x")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert _unread_locals(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unread_local_is_reported():
    tree = ast.parse(
        "def f(xs):\n"
        "    import os.path\n"
        "    total, last, count = 0, None, 0\n"
        "    for x in xs:\n"
        "        total += x\n"
        "        count += 1\n"
        "    def g():\n"
        "        nonlocal last\n"
        "        last = total\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError as ex:\n"
        "        pass\n"
        "    a, _ = xs\n"
        "    return last\n"
    )
    assert _unread_locals(tree) == [("f", "os"), ("f", "count"), ("f", "ex"), ("f", "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_reader(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unread_public(tree, _reader_reads()) == UNREAD_BY_DESIGN.get(path.name, [])


def test_a_public_name_without_a_reader_is_reported():
    tree = ast.parse(
        "def walk(xs):\n"
        "    return walk(xs[1:]) if xs else 0\n"
        "def helper():\n"
        "    return 1\n"
        "def _private():\n"
        "    return helper()\n"
        "class Report:\n"
        "    def total(self):\n"
        "        return self.total()\n"
        "    def size(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def label(self):\n"
        "        return 'size'\n"
        "class _Parser:\n"
        "    def error(self):\n"
        "        return Report\n"
    )
    assert _unread_public(tree, _identifier_reads(tree)) == ["walk", "total", "label"]
