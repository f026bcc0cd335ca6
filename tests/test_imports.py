"""Every name a `hypermatch` module or a test module imports is read somewhere
in that module, every parameter of a function is read in that function's
body, every other name a function binds is read in that function or a
function nested in it, and every public function, class, method and
property of a `hypermatch` module has a reader outside its own definition
and outside the unit tests, and so has every option: every defaulted
parameter of a public function or method, and every defaulted field of a
public frozen dataclass, has a caller that passes it.

`__init__.py` is skipped for imports: they are the package's exports. Dunder
protocol methods (`__setattr__`, `__exit__`) are skipped for parameters: the
protocol fixes their signature. `__init__` is not one of them. A local
declared `nonlocal` or `global` counts as read (the binding is the outer
scope's), and `_` is exempt: it is the name for a value thrown away.

A reader of a public name is a read of the same identifier (a name, an
attribute, an imported name or a string equal to it) in `src/` outside the
definition, in `perfbench/*.py` or in `tests/test_acceptance.py`. An export
in `__init__.py` is not one: it is API surface, not a use. Identifiers are matched by name alone, so two
definitions that share a name count as reading each other. Methods of
private classes (such as `cli._Parser.error`, an argparse override) are not
checked.

A caller of an option is a call in those same readers, outside the
definition, whose callee has the definition's name and which passes the
option by keyword, by position, or through `*args` or `**kwargs`. Callees
are matched by name alone, as identifiers are. The first parameter of a
method (self or cls) is not an option.
"""

import ast
import math
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hypermatch"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
READERS.append(ROOT / "tests" / "test_acceptance.py")
# ROADMAP item 4's CLI `--timings` sets it; until then it is the one option
# kept without a caller
UNSET_BY_DESIGN = {"harness.py": ["emit_report.include_timings"]}


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


def _is_frozen_dataclass(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Call)
        and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
        for d in node.decorator_list
    )


def _options(tree: ast.Module) -> list[tuple[ast.AST, str, int | None]]:
    """(definition, option, position) for each defaulted parameter of a public
    function or method and each defaulted field of a public frozen dataclass;
    position is None for a keyword-only parameter."""
    options = []
    for d in _public_definitions(tree):
        if _is_frozen_dataclass(d):
            fields = [f for f in d.body if isinstance(f, ast.AnnAssign)]
            options += [(d, f.target.id, i) for i, f in enumerate(fields) if f.value is not None]
        elif not isinstance(d, ast.ClassDef):
            a = d.args
            positional = a.posonlyargs + a.args
            if d not in tree.body:  # a method: self or cls is bound, not passed
                positional = positional[1:]
            first = len(positional) - len(a.defaults)
            options += [(d, p.arg, i) for i, p in enumerate(positional) if i >= first]
            keyword_only = zip(a.kwonlyargs, a.kw_defaults)
            options += [(d, p.arg, None) for p, v in keyword_only if v is not None]
    return options


def _calls(tree: ast.AST) -> Counter:
    """(callee name, positional count, keyword names) of each call by name or
    attribute; a *args passes any number of positionals and **kwargs any keyword."""
    calls = Counter()
    for c in ast.walk(tree):
        if isinstance(c, ast.Call) and isinstance(c.func, (ast.Name, ast.Attribute)):
            name = c.func.id if isinstance(c.func, ast.Name) else c.func.attr
            starred = any(isinstance(a, ast.Starred) for a in c.args)
            keywords = frozenset(k.arg or "**" for k in c.keywords)
            calls[name, math.inf if starred else len(c.args), keywords] += 1
    return calls


def _unset_options(tree: ast.Module, calls: Counter) -> list[str]:
    """Options defined in tree, as "callee.option", that no call in calls
    passes outside their own definitions; calls covers every reader, tree
    included."""
    unset = []
    for d, option, position in _options(tree):
        shapes = [(npos, kws) for name, npos, kws in calls - _calls(d) if name == d.name]
        by_position = position is not None and any(npos > position for npos, _ in shapes)
        if not by_position and not any(option in kws or "**" in kws for _, kws in shapes):
            unset.append(f"{d.name}.{option}")
    return unset


@cache
def _reader_calls() -> Counter:
    trees = (ast.parse(p.read_text(encoding="utf-8")) for p in READERS)
    return sum(map(_calls, trees), Counter())


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
    assert _unread_public(tree, _reader_reads()) == []


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_option_has_a_caller(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unset_options(tree, _reader_calls()) == UNSET_BY_DESIGN.get(path.name, [])


def test_an_option_without_a_caller_is_reported():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def draw(n, tries=10, *, seed=0, p=None):\n"
        "    return draw(n, tries, seed=seed, p=p)\n"
        "def solve(n, budget=5, trace=False):\n"
        "    return n\n"
        "def _private(n, depth=0):\n"
        "    return draw(n, 3) + solve(*[n]) + _private(n, 1)\n"
        "class Runner:\n"
        "    def run(self, fast=True, **kw):\n"
        "        return Runner().run(**kw)\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    n: int\n"
        "    eta: int = 1\n"
        "    rho: int = 0\n"
        "@dataclass\n"
        "class Loose:\n"
        "    x: int = 0\n"
        "Config(1, rho=2)\n"
    )
    # solve(*[n]) may pass any number of positionals, so it sets both of solve's options
    assert _unset_options(tree, _calls(tree)) == ["draw.seed", "draw.p", "Config.eta", "run.fast"]
