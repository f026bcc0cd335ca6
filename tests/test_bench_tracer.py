"""The benchmark tracer (perfbench/tracing.py) finds hypermatch functions
and KGraph indexes by name, and the workloads (perfbench/workloads.py) look
functions up on hypermatch modules; a rename or deletion here would
otherwise only show when `perfbench/run.py` runs."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypermatch import complete
from hypermatch.core import KGraph
from hypermatch.pipeline import PipelineConfig, fractional_pm_pipeline, padded_clique_size


def _perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module(name)


@pytest.fixture
def tracing(monkeypatch):
    return _perfbench_module(monkeypatch, "tracing")


def test_traced_functions_resolve(tracing):
    for mod_name, fn_name, _ in tracing.TRACED:
        module = importlib.import_module(f"hypermatch.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"hypermatch.{mod_name}.{fn_name}"


def test_workload_lookups_resolve():
    # the workloads reach hypermatch only as `<module>.<name>` on modules
    # imported from the package, so a deleted name shows up here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "hypermatch"
        for alias in node.names
    }
    lookups = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert ("pipeline", "minimal_feasible_r") in lookups
    for mod_name, name in sorted(lookups):
        module = importlib.import_module(f"hypermatch.{mod_name}")
        assert hasattr(module, name), f"hypermatch.{mod_name}.{name}"


def test_lazy_indexes_are_cached_properties(tracing):
    for attr in tracing.LAZY_INDEXES:
        assert isinstance(KGraph.__dict__.get(attr), functools.cached_property), attr


def test_pipeline_steps_are_the_ones_the_worker_sums(monkeypatch):
    # the worker adds st.seconds per st.name over trace.steps, keyed on
    # PIPELINE_STEPS; the README pipeline example must fill those rows
    worker = _perfbench_module(monkeypatch, "worker")
    H, cfg = complete(12, 3), PipelineConfig(eta=Fraction(1, 12))
    _, trace = fractional_pm_pipeline(H, 3, padded_clique_size(12, 3, 3, cfg.eta), cfg)
    for st in trace.steps:
        assert st.name in worker.PIPELINE_STEPS, st.name
        assert isinstance(st.seconds, float) and st.seconds >= 0, st.name


NUMPY_FREE_PATHS = """
import sys
from fractions import Fraction
from hypermatch import KGraph, format_graph, random_kgraph
from hypermatch.harness import conjecture_search
from hypermatch.lp import solve_fractional
from hypermatch.matching import exact_nu
from hypermatch.pipeline import PipelineConfig, fractional_pm_pipeline, minimal_feasible_r

conjecture_search(9, 3, 2, trials=20)
format_graph(KGraph(5, 3, [(1, 2, 3), (2, 4, 5)]))
H = random_kgraph(9, 3, Fraction(17, 20), seed=1)
fractional_pm_pipeline(H, 2, minimal_feasible_r(9, 3, 2), PipelineConfig())
H = random_kgraph(12, 3, Fraction(7, 10), seed=0)  # c04-sized
solve_fractional(H)
exact_nu(H)
phi, _ = fractional_pm_pipeline(H, 2, minimal_feasible_r(12, 3, 2), PipelineConfig())
assert phi.is_perfect()
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_search_format_and_pipeline_do_not_import_numpy():
    # the pipeline, search and corpus workers measure peak RSS with numpy
    # never loaded; importing it alone adds about 27 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_PATHS],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


TRACED_PIPELINE = """
from fractions import Fraction
import tracing
from hypermatch import complete, harness, pipeline  # harness loads every traced module

tracer = tracing.Tracer()
tracing.instrument(tracer)
cfg = pipeline.PipelineConfig(eta=Fraction(1, 12))
pipeline.fractional_pm_pipeline(complete(12, 3), 3, pipeline.padded_clique_size(12, 3, 3, cfg.eta), cfg)
cover = [counts for name, *_, counts in tracer.spans if name == "lp.min_fractional_cover"]
assert len(cover) == 1 and cover[0]["cols"] > 0, cover
"""


def test_pipeline_cover_step_records_an_lp_span():
    # instrument rebinds module functions for the whole process, so the
    # traced run gets a process of its own
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_PIPELINE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
