"""The benchmark tracer (perfbench/tracing.py) finds hypermatch functions
and KGraph indexes by name; a rename or deletion here would otherwise only
show when `perfbench/run.py --trace 1` runs."""

import functools
import importlib
from pathlib import Path

import pytest

from hypermatch.core import KGraph


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracing")


def test_traced_functions_resolve(tracing):
    for mod_name, fn_name, _ in tracing.TRACED:
        module = importlib.import_module(f"hypermatch.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"hypermatch.{mod_name}.{fn_name}"


def test_lazy_indexes_are_cached_properties(tracing):
    for attr in tracing.LAZY_INDEXES:
        assert isinstance(KGraph.__dict__.get(attr), functools.cached_property), attr
