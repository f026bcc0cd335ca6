"""Experiment orchestration: tightness verification of the degree threshold,
randomized counterexample search for the degree-threshold conjecture, the
containment case split, and deterministic report files.

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
from fractions import Fraction
from typing import Iterable, Sequence

from . import __version__
from .constructions import (
    build_Hknm,
    random_kgraph,
    random_kgraph_conditioned,
    vertex_degree_threshold,
)
from .containment import ContainmentReport, eps_contains
from .core import KGraph, Matching, format_graph, induced, min_l_degree, parse_graph, verify_matching
from .errors import (
    BudgetExceededError,
    HypermatchError,
    InvalidQueryError,
    SamplingExhaustedError,
    StepFailureError,
)
from .matching import exact_nu
from .pipeline import (
    PipelineConfig,
    PipelineTrace,
    _plain,
    build_augmented,
    fractional_pm_pipeline,
)

class TightnessFailure(HypermatchError, AssertionError):
    """An exact tightness assertion failed; carries the offending instance."""

    def __init__(self, message: str, record: dict, graph_text: str):
        super().__init__(f"{message}\ninstance: {json.dumps(record, sort_keys=True)}\n{graph_text}")
        self.record = record
        self.graph_text = graph_text


@dataclass
class ExperimentReport:
    """Structured record of a verification run.

    runtime_s is kept in memory for operators but excluded from serialized
    output by default so that (inputs, seed, version) fully determine the
    emitted bytes.
    """

    experiment: str
    params: dict
    instances: list[dict] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)
    seed: int | None = None
    version: str = __version__
    incomplete: bool = False
    runtime_s: float = 0.0


_TIMING_KEYS = ("runtime_s", "runtime")


def _clean(record: dict, include_timings: bool) -> dict:
    return {
        k: _plain(v)
        for k, v in record.items()
        if include_timings or k not in _TIMING_KEYS
    }


def emit_report(report: ExperimentReport, fmt: str = "records", include_timings: bool = False) -> str:
    """Serialize a report deterministically.

    records: one JSON object per line (header, instances, counterexamples),
    parsed back by load_report. rows: a comma-separated table of the
    instances. Identical inputs yield byte-identical output.
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
        tagged = [("instance", r) for r in report.instances]
        tagged += [("counterexample", r) for r in report.counterexamples]
        records = [head] + [{"record": kind, **_clean(r, include_timings)} for kind, r in tagged]
        return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    if fmt == "rows":
        keys = sorted({k for inst in report.instances for k in _clean(inst, include_timings)})
        out = io.StringIO()
        out.write(",".join(keys) + "\n")
        for inst in report.instances:
            c = _clean(inst, include_timings)
            out.write(",".join(_csv_cell(c.get(k)) for k in keys) + "\n")
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
    """Grid of (n, k, m) with k + m - 1 <= n <= n_max and 1 <= m <= n // k."""
    grid = []
    for k in ks:
        for n in range(k, n_max + 1):
            for m in range(1, n // k + 1):
                if k + m - 1 <= n:
                    grid.append((n, k, m))
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
    count = 0
    for (n, k, m) in grid:
        count += 1
        H, _ = build_Hknm(n, k, m)
        thr = vertex_degree_threshold(n, k, m)
        delta1 = min_l_degree(H, 1)
        nu, _ = exact_nu(H)
        rec = {
            "n": n,
            "k": k,
            "m": m,
            "delta1": delta1,
            "threshold": thr,
            "nu": nu,
            "nu_prime": None,
        }
        if delta1 != thr:
            raise TightnessFailure("minimum degree differs from threshold", rec, format_graph(H))
        if nu != m - 1:
            raise TightnessFailure("matching number is not m - 1", rec, format_graph(H))
        if m + k <= n:
            H2, _ = build_Hknm(n, k, m + 1)
            delta1_next = min_l_degree(H2, 1)
            nu_next, _ = exact_nu(H2)
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
    report.params["grid_size"] = count
    report.runtime_s = time.perf_counter() - t0
    return report


def meets_degree_hypothesis(H: KGraph, m: int) -> bool:
    """Strict inequality filter of the conjecture: delta_1 above the threshold."""
    return min_l_degree(H, 1) > vertex_degree_threshold(H.n, H.k, m)


def _sample_for_model(model: str, n: int, k: int, m: int, p, trial_seed: str) -> KGraph:
    seed = int.from_bytes(hashlib.sha256(trial_seed.encode()).digest()[:8], "big")
    if model == "uniform-p":
        return random_kgraph(n, k, 0.5 if p is None else p, seed=seed)
    if model == "conditioned":
        return random_kgraph_conditioned(n, k, m, tries=500, seed=seed, p=p)
    if model == "planted":
        # extremal core plus independent extras: concentrates sampling where
        # the threshold filter is tight
        base, part = build_Hknm(n, k, m)
        extra_p = 0.25 if p is None else p
        noise = random_kgraph(n, k, extra_p, seed=seed)
        return KGraph(n, k, list(base.edges) + list(noise.edges))
    raise InvalidQueryError(f"unknown model {model!r}")


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
    if not k * m < n:
        raise InvalidQueryError(f"need m < n/k, got n={n}, k={k}, m={m}")
    t0 = time.perf_counter()
    thr = vertex_degree_threshold(n, k, m)
    report = ExperimentReport(
        "conjecture-search",
        params={"n": n, "k": k, "m": m, "model": model, "trials": trials, "p": _plain(p),
                "threshold": thr},
        seed=seed,
    )
    histogram: dict[int, int] = {}
    accepted = 0
    exhausted = 0
    for t in range(trials):
        trial_seed = f"{seed}:{t}"
        try:
            H = _sample_for_model(model, n, k, m, p, trial_seed)
        except SamplingExhaustedError:
            exhausted += 1
            continue
        delta1 = min_l_degree(H, 1)
        histogram[delta1] = histogram.get(delta1, 0) + 1
        if not delta1 > thr:
            continue
        accepted += 1
        try:
            nu, _ = exact_nu(H)
        except BudgetExceededError:
            report.instances.append(
                {"trial": t, "delta1": delta1, "nu": None, "status": "indeterminate"}
            )
            report.incomplete = True
            continue
        report.instances.append({"trial": t, "delta1": delta1, "nu": nu, "status": "ok"})
        if nu < m:
            confirmed = _reverify_counterexample(H, m, thr)
            if confirmed:
                report.counterexamples.append(
                    {
                        "trial": t,
                        "delta1": delta1,
                        "nu": nu,
                        "graph": format_graph(H),
                        "fingerprint": graph_fingerprint(H),
                    }
                )
    report.params["accepted"] = accepted
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


@dataclass
class CaseSplitReport:
    """Outcome of the containment case split for one instance."""

    branch: str  # "contains" | "non-contains"
    containment: ContainmentReport
    matching_size: int | None = None
    concludes: bool | None = None  # whether nu(H) >= m was certified
    pipeline_value: Fraction | None = None
    pipeline_error: str | None = None
    pipeline_trace: PipelineTrace | None = None
    augmented_r: int | None = None
    augmented_nu: int | None = None
    notes: tuple[str, ...] = ()


def case_split_demo(
    H: KGraph,
    m: int,
    eps,
    rho,
    eta=Fraction(1, 10),
    route: str = "auto",
) -> CaseSplitReport:
    """Route an instance through the containment split and report what follows.

    Contains branch: an exact matching restricted to template edges (capped
    at m - 1 by the template structure) is extended by an exact matching on
    the untouched remainder; the close case is handled by the exact solver
    at this scale. Non-contains branch: pad with a clique, run the
    fractional pipeline for the fractional certificate, and look for an
    integral matching of size m + r in the augmented graph, which yields
    nu(H) >= m by stripping the at-most-r clique-touching edges.
    """
    containment = eps_contains(H, m, eps)
    notes: list[str] = []
    if containment.satisfied:
        w_set = set(containment.partition.W)
        l = H.k - 1
        template_edges = [
            e for e in H.edges if 1 <= sum(1 for v in e if v in w_set) <= l
        ]
        sub = KGraph(H.n, H.k, template_edges)
        nu_t, M_t = exact_nu(sub)
        used = M_t.vertices()
        rest = sorted(v for v in H.vertices() if v not in used)
        back = {i + 1: v for i, v in enumerate(rest)}
        nu_r, M_r = exact_nu(induced(H, rest))
        extended = [tuple(sorted(back[x] for x in e)) for e in M_r.edges]
        combined = Matching.from_edges(list(M_t.edges) + extended)
        if not verify_matching(H, combined):
            raise HypermatchError("case split assembled an invalid matching")
        notes.append(f"template part {nu_t}, remainder part {nu_r}")
        return CaseSplitReport(
            branch="contains",
            containment=containment,
            matching_size=len(combined),
            concludes=len(combined) >= m,
            notes=tuple(notes),
        )

    cfg = PipelineConfig(eta=Fraction(eta), rho=Fraction(rho), eps=Fraction(eps))
    aug, r = build_augmented(H, m, cfg.eta)
    value = None
    error = None
    trace = None
    try:
        phi, trace = fractional_pm_pipeline(H, m, r, cfg, route=route)
        value = trace.value
    except StepFailureError as ex:
        error = str(ex)
        trace = ex.trace
    aug_nu = None
    size = None
    concludes = None
    try:
        aug_nu, M_aug = exact_nu(aug)
        if aug_nu >= m + r:
            inside = [e for e in M_aug.edges if all(v <= H.n for v in e)]
            size = len(inside)
            concludes = size >= m
            if concludes and not verify_matching(H, Matching.from_edges(inside)):
                raise HypermatchError("stripped matching is invalid in the base graph")
        else:
            concludes = None
            notes.append(
                f"augmented matching {aug_nu} below m+r={m + r}; no integral conclusion"
            )
    except BudgetExceededError:
        notes.append("augmented matching search is indeterminate")
    return CaseSplitReport(
        branch="non-contains",
        containment=containment,
        matching_size=size,
        concludes=concludes,
        pipeline_value=value,
        pipeline_error=error,
        pipeline_trace=trace,
        augmented_r=r,
        augmented_nu=aug_nu,
        notes=tuple(notes),
    )
