"""Spans around calls into hypermatch's public functions, from outside.

``instrument`` replaces each traced function, wherever a hypermatch module
holds it, with a wrapper that records a span: name, start, end, parent span
and item id. The lazy ``KGraph`` indexes are wrapped too, so their first
access on a fresh graph is a span. Spans stay in memory; ``dump`` writes
them when the run ends and ``summarize`` turns them into per-layer metrics.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from math import comb

from hypermatch import core

MODULES = ("core", "constructions", "lp", "matching", "containment", "pipeline", "harness")


def _cols(args, kwargs, result) -> dict:
    return {"cols": args[0].num_edges}


def _ksets(args, kwargs, result) -> dict:
    n, k = args[0], args[1]
    return {"ksets": comb(n, k)}


def _subsets(args, kwargs, result) -> dict:
    H, m = args[0], args[1]
    return {"subsets": comb(H.n, m - 1)}


def _nibble(args, kwargs, result) -> dict:
    return {"rounds": len(result.rounds), "covered": result.covered_fraction}


def _search(args, kwargs, result) -> dict:
    return {"accepted": result.params["accepted"], "trials": result.params["trials"]}


def _containment_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "auto")
    return f"containment.eps_contains.{mode}"


# (module, function, counts taken from the call). Functions without a
# per-layer metric of their own are traced so that their time is not
# charged to the self time of their caller's layer.
TRACED = (
    ("core", "independence_number", None),
    ("core", "min_l_degree", None),
    ("core", "induced", None),
    ("core", "link", None),
    ("core", "is_stable", None),
    ("constructions", "random_kgraph", _ksets),
    ("constructions", "random_kgraph_conditioned", None),
    ("constructions", "complete", None),
    ("constructions", "join_clique", None),
    ("lp", "max_fractional_matching", _cols),
    ("lp", "min_fractional_cover", _cols),
    ("lp", "weight_closure", None),
    ("lp", "relabel_by_weights", None),
    ("matching", "exact_nu", None),
    ("matching", "nibble_matching_report", _nibble),
    ("containment", "eps_contains", _subsets),
    ("containment", "deficiency", None),
    ("pipeline", "fractional_pm_pipeline", None),
    ("pipeline", "check_pipeline_preconditions", None),
    ("harness", "conjecture_search", _search),
    ("harness", "graph_fingerprint", None),
    ("harness", "verify_tightness", None),
)
LAZY_INDEXES = ("edge_masks", "vertex_edges", "edge_array")


class Tracer:
    """Spans as lists [name, start, end, parent, item, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: int | None = None

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name(args, kwargs) if callable(name) else name,
                0.0,
                0.0,
                stack[-1] if stack else None,
                self.item,
                None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def run_item(self, item: int, fn, args, lap):
        """Call fn(args, lap) as the root span of one item."""
        self.item = item
        return self.wrap("bench.item", fn)(args, lap)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, item, counts) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "item": item}
                if counts:
                    rec["counts"] = {k: str(v) for k, v in counts.items()}
                fh.write(json.dumps(rec) + "\n")


def instrument(tracer: Tracer) -> None:
    """Route every call of the traced functions through tracer spans."""
    hm_modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hypermatch"]
    for mod_name, fn_name, counts in TRACED:
        original = getattr(sys.modules[f"hypermatch.{mod_name}"], fn_name)
        name = _containment_name if fn_name == "eps_contains" else f"{mod_name}.{fn_name}"
        wrapped = tracer.wrap(name, original, counts)
        for mod in hm_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    for attr in LAZY_INDEXES:
        prop = functools.cached_property(tracer.wrap(f"core.{attr}", core.KGraph.__dict__[attr].func))
        prop.__set_name__(core.KGraph, attr)
        setattr(core.KGraph, attr, prop)


def summarize(spans: list[list], items: int) -> dict:
    """Per-name totals (seconds, calls, counts) and per-layer self seconds per item."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, item, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    per_name: dict[str, dict] = {}
    layer_self = dict.fromkeys(MODULES, 0.0)
    for i, (name, start, end, parent, item, counts) in enumerate(spans):
        agg = per_name.setdefault(name, {"s": 0.0, "calls": 0, "counts": {}})
        agg["s"] += end - start
        agg["calls"] += 1
        for key, value in (counts or {}).items():
            agg["counts"].setdefault(key, []).append(value)
        module = name.split(".")[0]
        if module in layer_self:
            layer_self[module] += end - start - child_time[i]
    return {"per_name": per_name, "layer_self": {m: s / items for m, s in layer_self.items()}}


def median_count(agg: dict, key: str):
    values = agg["counts"].get(key) if agg else None
    return statistics.median(values) if values else 0
