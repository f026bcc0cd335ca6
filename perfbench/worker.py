"""Measure one workload in this process and print the result as one JSON line.

run.py starts this file in a fresh process per workload (and once more per
extra set-up sample, with --setup-only), with PYTHONPATH pointing at the
checkout's src/ and single-threaded numeric libraries. --t0 is the parent's
time.monotonic() just before the process was started, so set-up time counts
interpreter start, imports and input generation.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# pipeline steps as recorded in PipelineTrace; any other step name is summed
# into pipeline.step.other.s
PIPELINE_STEPS = (
    "preconditions",
    "cover",
    "relabel",
    "closure",
    "link_stability",
    "complete_block",
    "neighborhood_transfer",
    "find_matching",
    "matching_verify",
    "clique_completion",
    "assemble",
    "residue_splice",
    "verify",
)


# Reference speed. The shared 2-vCPU host this benchmark was written on
# changes speed by up to 2x within tens of seconds (a fixed pure-Python loop
# measured 4.8-8.4 ms in consecutive 12 s windows), far more than the bounds
# the benchmark sets. Every time it reports is therefore scaled to the speed
# at which reference_kernel takes REF_KERNEL_S, using the median of its last
# REF_WINDOW timings, taken between items at least every REF_INTERVAL_S.
# Items that take seconds (nibble) call lap() between their calls, so the
# speed is re-read inside them too (see ItemClock). The kernel's median
# timing and the unscaled set-up time are reported too.
REF_KERNEL_S = 0.008  # the kernel's time on an unloaded 2.0 GHz Xeon core
REF_INTERVAL_S = 0.25
REF_WINDOW = 5
_HALF = Fraction(1, 2)


def reference_kernel():
    """Fixed work in the mix the workloads use: Fractions, k-set tuples,
    set inserts and bit masks."""
    below, seen, mask = 0, set(), 0
    for e in combinations(range(1, 25), 3):
        if Fraction(e[0], e[1] + e[2]) + Fraction(1, e[2]) < _HALF:
            below += 1
        seen.add(e)
        mask ^= (1 << e[0]) | (1 << e[1]) | (1 << e[2])
    return below, len(seen), mask


class RefClock:
    """Timings of the reference kernel, and the factor that scales a time
    measured now to reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(REF_WINDOW):
            self.sample()

    def sample(self) -> None:
        # with the collector off, the size of the program's live heap (a host
        # graph, the span list) does not leak into the kernel's time
        gc.disable()
        try:
            t = time.perf_counter()
            reference_kernel()
            self.at = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(self.at - t)

    def due(self) -> None:
        if time.perf_counter() - self.at >= REF_INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        return REF_KERNEL_S / statistics.median(self.samples[-REF_WINDOW:])


class ItemClock:
    """Reference-speed seconds of one item. The item is timed in segments
    that lap() separates; the kernel runs (untimed) before a segment when it
    is due, and each segment is scaled by the speed read just before it."""

    def __init__(self, ref: RefClock):
        self.ref = ref
        self.seconds = 0.0
        self._start()

    def _start(self) -> None:
        self.ref.due()
        self.t = time.perf_counter()

    def _end(self) -> None:
        self.seconds += (time.perf_counter() - self.t) * self.ref.scale()

    def lap(self) -> None:
        self._end()
        self._start()

    def stop(self) -> float:
        self._end()
        return self.seconds


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def load_digests(workload: str, seed: int) -> list:
    path = Path(__file__).with_name("digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


class Loop:
    """Closed loop over the pool: one caller, the next item starts when the
    previous one has returned and been checked."""

    def __init__(self, wl, pool, digests, ref):
        self.wl, self.pool, self.digests, self.ref = wl, pool, digests, ref
        self.attempted = 0
        self.failed = 0

    def one(self, i: int, call):
        """Run item i through call(run, args, i, lap); return its
        reference-speed seconds and output, or None when the item raised or
        failed its check."""
        slot = i % len(self.pool)
        spec = self.pool[slot]
        args = self.wl.prepare(spec)
        self.attempted += 1
        try:
            clock = ItemClock(self.ref)
            out = call(self.wl.run, args, i, clock.lap)
            dt = clock.stop()
            ok = self.wl.check(spec, args, out)
            if ok and slot < len(self.digests) and self.digests[slot] is not None:
                ok = self.wl.digest(spec, args, out) == self.digests[slot]
        except Exception:  # an item that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"item {i} (pool slot {slot}) failed its check", file=sys.stderr)
            return None
        return dt, out


def per_layer_metrics(summary: dict, items: int, outputs: list, workload: str, scale: float) -> dict:
    """Seconds are per item and at reference speed (multiplied by scale)."""
    from tracing import median_count

    names = summary["per_name"]

    def s(name):
        return names[name]["s"] * scale / items if name in names else 0.0

    def calls(name):
        return names[name]["calls"] / items if name in names else 0.0

    def mean_count(name, key):
        vals = names.get(name, {}).get("counts", {}).get(key)
        return sum(vals) / len(vals) if vals else 0.0

    m = {}
    for fn in ("max_fractional_matching", "min_fractional_cover"):
        name = f"lp.{fn}"
        m[f"{name}.s"] = (s(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.cols"] = (mean_count(name, "cols"), "count")

    pipe_s = s("pipeline.fractional_pm_pipeline")
    m["pipeline.fractional_pm_pipeline.s"] = (pipe_s, "s")
    steps = dict.fromkeys(PIPELINE_STEPS + ("other",), 0.0)
    if workload == "pipeline":
        for assignment, trace in outputs:
            for st in trace.steps:
                steps[st.name if st.name in steps else "other"] += st.seconds * scale
    for name, total in steps.items():
        m[f"pipeline.step.{name}.s"] = (total / items, "s")
    lp_steps = (steps["cover"] + steps["verify"]) / items
    m["pipeline.step.lp_share"] = (lp_steps / pipe_s if pipe_s else 0.0, "ratio")
    m["pipeline.check_pipeline_preconditions.s"] = (s("pipeline.check_pipeline_preconditions"), "s")
    m["core.independence_number.s"] = (s("core.independence_number"), "s")
    m["core.independence_number.calls"] = (calls("core.independence_number"), "count")

    rk = names.get("constructions.random_kgraph")
    m["constructions.random_kgraph.s"] = (s("constructions.random_kgraph"), "s")
    m["constructions.random_kgraph.ksets_per_s"] = (
        sum(rk["counts"]["ksets"]) / (rk["s"] * scale) if rk else 0.0,
        "1/s",
    )
    m["constructions.random_kgraph_conditioned.s"] = (s("constructions.random_kgraph_conditioned"), "s")
    cs = names.get("harness.conjecture_search")
    m["harness.conjecture_search.s"] = (s("harness.conjecture_search"), "s")
    m["harness.conjecture_search.accept_ratio"] = (
        sum(cs["counts"]["accepted"]) / sum(cs["counts"]["trials"]) if cs else 0.0,
        "ratio",
    )
    for name in ("constructions.complete", "core.edge_array", "core.edge_masks", "core.vertex_edges"):
        m[f"{name}.s"] = (s(name), "s")
    m["matching.exact_nu.s"] = (s("matching.exact_nu"), "s")
    m["matching.exact_nu.calls"] = (calls("matching.exact_nu"), "count")
    nib = names.get("matching.nibble_matching_report")
    m["matching.nibble_matching_report.s"] = (s("matching.nibble_matching_report"), "s")
    m["matching.nibble_matching_report.rounds"] = (mean_count("matching.nibble_matching_report", "rounds"), "count")
    m["matching.nibble_matching_report.covered_fraction.p50"] = (float(median_count(nib, "covered")), "ratio")
    for name in ("harness.graph_fingerprint", "core.min_l_degree", "harness.verify_tightness"):
        m[f"{name}.s"] = (s(name), "s")
    m["containment.eps_contains.exhaustive.s"] = (s("containment.eps_contains.exhaustive"), "s")
    m["containment.eps_contains.exhaustive.subsets"] = (
        mean_count("containment.eps_contains.exhaustive", "subsets"),
        "count",
    )
    m["containment.eps_contains.local.s"] = (s("containment.eps_contains.local"), "s")
    for module, self_s in summary["layer_self"].items():
        m[f"layer.{module}.self_s"] = (self_s * scale, "s")
    return m


def measure(loop, call, seconds: float, count: int | None = None, keep=False):
    """Run items 0, 1, ... for `seconds`, or until `count` items; return
    their reference-speed seconds, the outputs when kept, and the items
    started."""
    times, outputs = [], []
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end and (count is None or i < count):
        res = loop.one(i, call)
        if res is not None:
            times.append(res[0])
            if keep:
                outputs.append(res[1])
        i += 1
    return times, outputs, i


def main(argv=None) -> int:
    args = parse_args(argv)
    import hypermatch
    import hypermatch.cli  # noqa: F401  (set-up includes what the hypermatch command imports)

    if Path(hypermatch.__file__).resolve().parent != ROOT / "src" / "hypermatch":
        print(f"error: imported hypermatch from {hypermatch.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    pool = wl.setup(args.seed)
    setup_raw = time.monotonic() - args.t0
    ref = RefClock()
    result = {"setup_raw_s": setup_raw, "setup_s": setup_raw * ref.scale()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    loop = Loop(wl, pool, load_digests(args.workload, args.seed), ref)
    direct = lambda run, a, i, lap: run(a, lap)  # noqa: E731
    times, _, started = measure(loop, direct, args.seconds / 2 if args.trace else args.seconds)
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        items=len(times),
        items_per_s=len(times) / sum(times) if times else 0.0,
        item_s_p50=statistics.median(times) if times else 0.0,
        ref_kernel_s=statistics.median(ref.samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.trace:
        result["per_layer"] = traced_pass(args, loop, ref, started, times)
        result.update(attempted=loop.attempted, failed=loop.failed)
    print(json.dumps(result))
    return 0


def traced_pass(args, loop, ref, count: int, untraced: list) -> dict:
    """Run the same items again with spans on; report per-layer metrics and
    the tracing overhead against the untraced pass."""
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    first_sample = len(ref.samples)
    traced, outputs, _ = measure(
        loop,
        lambda run, a, i, lap: tracer.run_item(i, run, a, lap),
        args.seconds,
        count,
        keep=args.workload == "pipeline",  # the step seconds are read from its traces
    )
    kernel_s = statistics.median(ref.samples[first_sample:] or ref.samples)
    items = max(1, len(traced))
    summary = tracing.summarize(tracer.spans, items)
    m = per_layer_metrics(summary, items, outputs, args.workload, REF_KERNEL_S / kernel_s)
    n = min(len(traced), len(untraced))
    m["trace.overhead"] = (sum(traced[:n]) / sum(untraced[:n]) - 1 if n else 0.0, "ratio")
    m["bench.item_s.p90"] = (
        statistics.quantiles(untraced, n=10)[-1] if len(untraced) >= 2 else 0.0,
        "s",
    )
    m["bench.ref_kernel_s"] = (kernel_s, "s")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
