"""Experiment orchestration: tightness verification of the degree threshold,
randomized counterexample search for the degree-threshold conjecture, and
deterministic report files.

Counterexamples are reported, never asserted absent: the conjecture is open
and the theorem behind the threshold needs large n, so small-n surprises
would be findings, not failures. Every reported counterexample is re-verified
from a re-parsed serialization of the instance.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import __version__
from .constructions import build_Hknm, random_kgraph, random_kgraph_conditioned, vertex_degree_threshold
from .core import KGraph, _integers, _unit_interval, format_graph, min_l_degree, parse_graph, verify_matching
from .errors import (
    BudgetExceededError,
    HypermatchError,
    InvalidQueryError,
    SamplingExhaustedError,
)
from .matching import exact_nu
from .pipeline import _plain

class TightnessFailure(HypermatchError, AssertionError):
    """An exact tightness assertion failed; carries the offending instance."""

    def __init__(self, message: str, record: dict, graph_text: str):
        super().__init__(f"{message}\ninstance: {json.dumps(record, sort_keys=True)}\n{graph_text}")
        self.record = record
        self.graph_text = graph_text


@dataclass
class ExperimentReport:
    """Structured record of a verification run.

    runtime_s is kept in memory for operators and serialized only on request
    (emit_report's include_timings), so that by default (inputs, seed,
    version) fully determine the emitted bytes.
    """

    experiment: str
    params: dict
    instances: list[dict] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)
    seed: int | None = None
    version: str = __version__
    incomplete: bool = False
    runtime_s: float = 0.0


def emit_report(report: ExperimentReport, fmt: str = "records", include_timings: bool = False) -> str:
    """Serialize a report deterministically.

    records: one JSON object per line (header, instances, counterexamples),
    parsed back by load_report. rows: a comma-separated table of the
    instances. Identical inputs yield byte-identical output. include_timings
    adds runtime_s to the records header.
    """
    if fmt == "records":
        head = {
            "record": "report",
            "experiment": report.experiment,
            "params": _plain(report.params),
            "seed": report.seed,
            "version": report.version,
            "incomplete": report.incomplete,
        }
        if include_timings:
            head["runtime_s"] = report.runtime_s
        tagged = [("instance", r) for r in report.instances]
        tagged += [("counterexample", r) for r in report.counterexamples]
        records = [head] + [{"record": kind, **_plain(r)} for kind, r in tagged]
        return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    if fmt == "rows":
        keys = sorted({k for inst in report.instances for k in inst})
        out = io.StringIO()
        out.write(",".join(keys) + "\n")
        for inst in map(_plain, report.instances):
            out.write(",".join(_csv_cell(inst.get(k)) for k in keys) + "\n")
        return out.getvalue()
    raise InvalidQueryError(f"unknown report format {fmt!r}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    s = str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def load_report(text: str) -> ExperimentReport:
    """Parse the records format back into an ExperimentReport."""
    header = None
    instances: list[dict] = []
    counterexamples: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as ex:
            raise InvalidQueryError(f"line {lineno}: not JSON ({ex.msg})") from None
        if not isinstance(obj, dict) or "record" not in obj:
            raise InvalidQueryError(f"line {lineno}: expected a JSON object with a 'record' key")
        kind = obj.pop("record")
        if kind == "report":
            header = obj
        elif kind == "instance":
            instances.append(obj)
        elif kind == "counterexample":
            counterexamples.append(obj)
        else:
            raise InvalidQueryError(f"line {lineno}: unknown record kind {kind!r}")
    if header is None:
        raise InvalidQueryError("missing report header record")
    try:
        return ExperimentReport(
            experiment=header["experiment"],
            params=header["params"],
            instances=instances,
            counterexamples=counterexamples,
            seed=header["seed"],
            version=header["version"],
            incomplete=header["incomplete"],
        )
    except KeyError as ex:
        raise InvalidQueryError(f"report header record lacks {ex.args[0]!r}") from None


def graph_fingerprint(H: KGraph) -> str:
    """SHA-256 of the canonical text serialization."""
    return hashlib.sha256(format_graph(H).encode("ascii")).hexdigest()


def tightness_grid(ks: Sequence[int] = (3, 4), n_max: int = 14) -> list[tuple[int, int, int]]:
    """Grid of (n, k, m) with k <= n <= n_max and 1 <= m <= n // k, once per
    distinct k in ks; k >= 2 and m >= 1 give k + m - 1 <= km <= n."""
    [n_max] = _integers(n_max=n_max)
    grid = []
    for k in dict.fromkeys(ks):
        [k] = _integers(k=k)
        if k < 2:
            raise InvalidQueryError(f"uniformity k must be >= 2, got {k}")
        for n in range(k, n_max + 1):
            grid.extend((n, k, m) for m in range(1, n // k + 1))
    return grid


def verify_tightness(grid: Iterable[tuple[int, int, int]]) -> ExperimentReport:
    """Exact equalities at every grid point; any failure aborts.

    For each (n, k, m): the extremal graph meets the degree threshold with
    equality and has matching number exactly m - 1; where it fits, the
    (m+1)-st extremal graph strictly exceeds the threshold for m and reaches
    matching number m, witnessing that the minimal structural step past the
    threshold buys one more edge.
    """
    t0 = time.perf_counter()
    report = ExperimentReport("tightness", params={"grid_size": 0})

    @lru_cache(maxsize=1)  # the next graph of (n, k, m) is the main graph of (n, k, m + 1)
    def measure(n: int, k: int, m: int) -> tuple[KGraph, int, int]:
        H, _ = build_Hknm(n, k, m)
        return H, min_l_degree(H, 1), exact_nu(H)[0]

    for (n, k, m) in grid:
        H, delta1, nu = measure(n, k, m)
        thr = vertex_degree_threshold(n, k, m)
        rec = {"n": n, "k": k, "m": m, "delta1": delta1, "threshold": thr, "nu": nu}
        if delta1 != thr:
            raise TightnessFailure("minimum degree differs from threshold", rec, format_graph(H))
        if nu != m - 1:
            raise TightnessFailure("matching number is not m - 1", rec, format_graph(H))
        if m + k <= n:
            H2, delta1_next, nu_next = measure(n, k, m + 1)
            rec.update({"next_delta1": delta1_next, "next_nu": nu_next, "next_checked": True})
            if not delta1_next > thr:
                raise TightnessFailure(
                    "next extremal graph does not exceed the threshold", rec, format_graph(H2)
                )
            if nu_next != m:
                raise TightnessFailure(
                    "next extremal graph has wrong matching number", rec, format_graph(H2)
                )
        else:
            rec.update({"next_delta1": None, "next_nu": None, "next_checked": False})
        report.instances.append(rec)
    report.params["grid_size"] = len(report.instances)
    report.runtime_s = time.perf_counter() - t0
    return report


def _model_sampler(model: str, n: int, k: int, m: int, p) -> Callable[[str], KGraph]:
    """The model's draw of one trial graph from its trial key.

    The model and p are checked, and any part shared by every trial is
    built, once per search, before the first draw.
    """
    if model == "uniform-p":
        p = _unit_interval("p", 0.5 if p is None else p)
        return lambda key: random_kgraph(n, k, p, seed=_trial_seed(key))
    if model == "conditioned":
        if p is not None:
            _unit_interval("p", p)
        return lambda key: random_kgraph_conditioned(n, k, m, tries=500, seed=_trial_seed(key), p=p)
    if model == "planted":
        # extremal core plus independent extras: concentrates sampling where
        # the threshold filter is tight
        base = list(build_Hknm(n, k, m)[0].edges)
        p = _unit_interval("p", 0.25 if p is None else p)
        return lambda key: KGraph(n, k, base + list(random_kgraph(n, k, p, seed=_trial_seed(key)).edges))
    raise InvalidQueryError(f"unknown model {model!r}")


def _trial_seed(key: str) -> int:
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def conjecture_search(
    n: int,
    k: int,
    m: int,
    model: str = "conditioned",
    trials: int = 100,
    seed: int = 0,
    p=None,
) -> ExperimentReport:
    """Sample graphs, keep those strictly above the threshold, check nu >= m.

    Any nu < m instance is re-verified from a re-parsed serialization
    before being reported as a counterexample, with its fingerprint.
    Budget exhaustion marks the report incomplete instead of aborting.
    """
    trials, n, k, m, seed = _integers(trials=trials, n=n, k=k, m=m, seed=seed)
    if trials < 0:
        raise InvalidQueryError(f"need trials >= 0, got {trials}")
    if k < 2 or not k * m < n:
        raise InvalidQueryError(f"need k >= 2 and m < n/k, got n={n}, k={k}, m={m}")
    t0 = time.perf_counter()
    thr = vertex_degree_threshold(n, k, m)
    sample = _model_sampler(model, n, k, m, p)
    report = ExperimentReport(
        "conjecture-search",
        params={"n": n, "k": k, "m": m, "model": model, "trials": trials, "p": _plain(p),
                "threshold": thr},
        seed=seed,
    )
    histogram: dict[int, int] = {}
    exhausted = 0
    for t in range(trials):
        try:
            H = sample(f"{seed}:{t}")
        except SamplingExhaustedError:
            exhausted += 1
            continue
        delta1 = min_l_degree(H, 1)
        histogram[delta1] = histogram.get(delta1, 0) + 1
        if not delta1 > thr:
            continue
        try:
            nu, _ = exact_nu(H)
        except BudgetExceededError:
            report.instances.append({"trial": t, "delta1": delta1, "nu": None, "status": "indeterminate"})
            report.incomplete = True
            continue
        report.instances.append({"trial": t, "delta1": delta1, "nu": nu, "status": "ok"})
        if nu < m and _reverify_counterexample(H, m, thr):
            report.counterexamples.append({"trial": t, "delta1": delta1, "nu": nu, "graph": format_graph(H),
                                           "fingerprint": graph_fingerprint(H)})
    report.params["accepted"] = len(report.instances)
    report.params["exhausted_trials"] = exhausted
    report.params["delta1_histogram"] = {str(d): c for d, c in sorted(histogram.items())}
    report.runtime_s = time.perf_counter() - t0
    return report


def _reverify_counterexample(H: KGraph, m: int, thr: int) -> bool:
    """Recompute everything from a re-parsed copy of the serialized graph."""
    G = parse_graph(format_graph(H))
    if min_l_degree(G, 1) <= thr:
        return False
    nu, M = exact_nu(G)
    return nu < m and verify_matching(G, M)

