"""The four benchmark workloads: seeded inputs, the timed call, and an
independent check of every output.

Each workload makes a pool of item specs from its seed during set-up; the
measuring loop cycles through the pool. ``prepare`` builds a fresh
``KGraph`` for every item outside the timed region, so the timed call pays
for the lazy indexes (``edge_set``, ``edge_masks``, ``vertex_edges``,
``edge_array``) as a user's first call on a parsed graph does. ``check``
uses only the benchmark's own exact arithmetic (``fractions``, ``math.comb``,
sets), never the function under test. ``digest`` names the seeded output of
an item (a generated graph or a search report) so that a change to the
random streams is caught.

Functions of ``hypermatch`` are always looked up through their module at
call time, so the tracing wrappers installed by ``tracing.instrument`` see
every call made here.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable

from hypermatch import constructions, containment, core, harness, lp, matching, pipeline

K = 3  # every workload runs on 3-graphs, as the acceptance criteria do


@dataclass(frozen=True)
class Workload:
    setup: Callable  # seed -> list of item specs
    prepare: Callable  # spec -> args of the timed call
    run: Callable  # (args, lap) -> output (the timed region); lap() ends a segment
    check: Callable  # (spec, args, output) -> bool
    digest: Callable  # (spec, args, output) -> str | None


def _no_lap() -> None:
    pass


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _graph_digest(H) -> str:
    return _sha(core.format_graph(H))


def _fresh(n: int, edges) -> core.KGraph:
    return core.KGraph(n, K, edges)


def _is_matching(edges, host_edges: set, n: int) -> bool:
    """Pairwise disjoint k-sets of 1..n, each an edge of the host."""
    seen: set[int] = set()
    for e in edges:
        if e not in host_edges or len(set(e)) != K or not all(1 <= v <= n for v in e):
            return False
        if seen & set(e):
            return False
        seen.update(e)
    return True


# -- pipeline: fractional_pm_pipeline on c04-style instances -----------------
#
# n is kept to 12-14 (the acceptance suite goes to 18) so that a run holds
# about thirty items; at n = 18 one call takes up to 7 s. With r =
# minimal_feasible_r every shape below augments to 18 vertices, so items
# cost about the same and a run's median does not hinge on its shape mix.

PIPE_SHAPES = ((12, 2), (13, 3), (14, 4))  # (n, m) per pool slot
PIPE_POOL = 30
PIPE_MAX_TRIES = 200


def pipeline_setup(seed: int) -> list:
    rng = random.Random(f"pipeline:{seed}")
    cfg = pipeline.PipelineConfig()
    pool = []
    for slot in range(PIPE_POOL):
        n, m = PIPE_SHAPES[slot % len(PIPE_SHAPES)]
        p = Fraction(17, 20) if slot % 3 == 0 else Fraction(7, 10)
        r = pipeline.minimal_feasible_r(n, K, m)
        for _ in range(PIPE_MAX_TRIES):
            H = constructions.random_kgraph(n, K, p, seed=rng.getrandbits(32))
            pre = pipeline.check_pipeline_preconditions(H, m, r, cfg)
            if pre["alpha_ok"] and pre["degree_ok"] and pre["clique_ok"]:
                break
        else:
            raise RuntimeError(f"no precondition-clean instance for n={n}, m={m}")
        pool.append((n, m, r, H.edges))
    return pool


def pipeline_prepare(spec):
    n, m, r, edges = spec
    return _fresh(n, edges), m, r, pipeline.PipelineConfig()


def pipeline_run(args, lap=_no_lap):
    H, m, r, cfg = args
    return pipeline.fractional_pm_pipeline(H, m, r, cfg)


def pipeline_check(spec, args, out) -> bool:
    """Every load of phi is exactly 1, the support lies in the closure, the
    value is (n+r)/3, and the closure contains the relabeled augmented input.

    A perfect fractional matching is optimal by itself, so no LP is solved.
    """
    n, m, r, edges = spec
    assignment, trace = out
    closure = assignment.host
    total = n + r
    if closure.n != total or closure.k != K:
        return False
    closure_edges = set(closure.edges)
    loads = dict.fromkeys(range(1, total + 1), Fraction(0))
    for e, val in assignment.phi.items():
        if e not in closure_edges or not 0 < val <= 1:
            return False
        for v in e:
            loads[v] += val
    value = sum(assignment.phi.values(), Fraction(0))
    target = Fraction(total, K)
    if any(load != 1 for load in loads.values()) or value != target or trace.value != target:
        return False
    old_to_new = trace.relabel_old_to_new
    if sorted(old_to_new) != list(range(1, n + 1)):
        return False
    relabeled = (tuple(sorted(old_to_new[v - 1] for v in e)) for e in edges)
    clique_sets = (e for e in combinations(range(1, total + 1), K) if e[-1] > n)
    return all(e in closure_edges for e in relabeled) and all(e in closure_edges for e in clique_sets)


def pipeline_digest(spec, args, out) -> str:
    return _graph_digest(args[0])


# -- search: conjecture_search, the README's `hypermatch search` --------------

SEARCH_N, SEARCH_M = 9, 2
SEARCH_TRIALS = 200
SEARCH_POOL = 64


def search_setup(seed: int) -> list:
    rng = random.Random(f"search:{seed}")
    return [rng.getrandbits(32) for _ in range(SEARCH_POOL)]


def search_prepare(spec):
    return spec


def search_run(item_seed, lap=_no_lap):
    return harness.conjecture_search(
        SEARCH_N, K, SEARCH_M, model="conditioned", trials=SEARCH_TRIALS, seed=item_seed
    )


def _min_vertex_degree(n: int, edges) -> int:
    degs = dict.fromkeys(range(1, n + 1), 0)
    for e in edges:
        for v in e:
            degs[v] += 1
    return min(degs.values())


def search_check(spec, args, report) -> bool:
    """Every accepted instance is `ok` with delta_1 above the threshold; a
    reported counterexample is re-checked from its text by brute force."""
    thr = comb(SEARCH_N - 1, K - 1) - comb(SEARCH_N - SEARCH_M, K - 1)
    if report.incomplete or report.params["accepted"] != len(report.instances):
        return False
    if not all(i["status"] == "ok" and i["delta1"] > thr for i in report.instances):
        return False
    for ce in report.counterexamples:
        lines = [ln.split() for ln in ce["graph"].splitlines() if ln.strip()]
        edges = [tuple(int(x) for x in ln) for ln in lines[1:]]
        has_two_disjoint = any(not set(a) & set(b) for a, b in combinations(edges, 2))
        if _min_vertex_degree(SEARCH_N, edges) <= thr or has_two_disjoint:
            return False
    return True


def search_digest(spec, args, report) -> str:
    return _sha(harness.emit_report(report))


# -- nibble: one c06 case per item, hosts built from scratch ------------------
#
# n = 100 instead of the acceptance suite's 300: random_kgraph(300, 3, p)
# alone takes over 15 s, so a run would hold a single item, and at n = 100
# a run holds enough items (about 1 s each) for a steady median. The
# average degree of the random host stays at 200, as in c06.

NIB_N = 100
NIB_P = Fraction(NIB_N * 200 // K, comb(NIB_N, K))
NIB_SWEEP = 5
NIB_POOL = 12
NIB_MIN_COVERED = Fraction(17, 20)  # c06's bound on the median covered fraction


def nibble_setup(seed: int) -> list:
    rng = random.Random(f"nibble:{seed}")
    return [
        (rng.getrandbits(32), tuple(rng.getrandbits(32) for _ in range(NIB_SWEEP)))
        for _ in range(NIB_POOL)
    ]


def nibble_prepare(spec):
    return spec


def nibble_run(spec, lap=_no_lap):
    """An item takes seconds, so it calls lap() between its calls: the
    worker re-reads its reference speed there (see worker.ItemClock)."""
    host_seed, sweep = spec
    out = []
    for build in (
        lambda: constructions.complete(NIB_N, K),
        lambda: constructions.random_kgraph(NIB_N, K, NIB_P, seed=host_seed),
    ):
        lap()
        host = build()
        reports = []
        for s in sweep:
            lap()
            reports.append(matching.nibble_matching_report(host, matching.NibbleConfig(seed=s)))
        out.append((host, reports))
    return out


def nibble_check(spec, args, out) -> bool:
    """Each matching is disjoint and inside its host, k|M|/n equals
    covered_fraction, and the median over the sweep is at least 17/20."""
    (K_n, _), _ = out
    if K_n.num_edges != comb(NIB_N, K):
        return False
    for host, reports in out:
        host_edges = set(host.edges)
        for rep in reports:
            if not _is_matching(rep.matching.edges, host_edges, NIB_N):
                return False
            if rep.covered_fraction != Fraction(K * len(rep.matching.edges), NIB_N):
                return False
        if statistics.median_low(r.covered_fraction for r in reports) < NIB_MIN_COVERED:
            return False
    return True


def nibble_digest(spec, args, out) -> str:
    return _graph_digest(out[1][0])


# -- corpus: many small exact queries (c02 duality, c01 grid, c08 containment) --

DUAL_COUNT = 200
DUAL_PS = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
CONTAIN_COUNT = 50
CONTAIN_PS = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
CONTAIN_EPS = Fraction(1, 100)


def corpus_setup(seed: int) -> list:
    """The three query kinds interleaved evenly, so that any prefix of the
    pool holds them in the same proportions."""
    rng = random.Random(f"corpus:{seed}")
    keyed = []
    for i in range(DUAL_COUNT):
        k = 3 + i % 2
        n = 5 + i % 5
        H = constructions.random_kgraph(n, k, DUAL_PS[(i // 2) % 3], seed=rng.getrandbits(32))
        keyed.append((i / DUAL_COUNT, ("dual", n, k, H.edges)))
    grid = harness.tightness_grid(ks=(3, 4), n_max=14)
    keyed.extend((j / len(grid), ("tight", point)) for j, point in enumerate(grid))
    for i in range(CONTAIN_COUNT):
        n = 7 + i % 4
        m = 2 + i % 2
        H = constructions.random_kgraph(n, K, CONTAIN_PS[i % 3], seed=rng.getrandbits(32))
        keyed.append((i / CONTAIN_COUNT, ("contain", n, m, H.edges)))
    keyed.sort(key=lambda pair: pair[0])
    return [spec for _, spec in keyed]


def corpus_prepare(spec):
    if spec[0] == "dual":
        _, n, k, edges = spec
        return "dual", core.KGraph(n, k, edges)
    if spec[0] == "contain":
        _, n, m, edges = spec
        return "contain", _fresh(n, edges), m
    return spec


def corpus_run(args, lap=_no_lap):
    if args[0] == "dual":
        H = args[1]
        return (
            lp.max_fractional_matching(H),
            lp.min_fractional_cover(H),
            matching.exact_nu(H),
        )
    if args[0] == "tight":
        return harness.verify_tightness([args[1]])
    _, H, m = args
    return (
        containment.eps_contains(H, m, CONTAIN_EPS, mode="exhaustive"),
        containment.eps_contains(H, m, CONTAIN_EPS, mode="local"),
    )


def _dual_check(spec, out) -> bool:
    _, n, k, edges = spec
    (nu_f, phi), (tau_f, cover), (nu, M) = out
    if nu_f != tau_f or not nu <= nu_f or len(M.edges) != nu:
        return False
    edge_set = set(edges)
    loads = dict.fromkeys(range(1, n + 1), Fraction(0))
    for e, val in phi.phi.items():
        if e not in edge_set or not 0 <= val <= 1:
            return False
        for v in e:
            loads[v] += val
    if any(load > 1 for load in loads.values()) or sum(phi.phi.values(), Fraction(0)) != nu_f:
        return False
    w = cover.weights
    if len(w) != n or any(not 0 <= x <= 1 for x in w) or sum(w, Fraction(0)) != tau_f:
        return False
    if any(sum(w[v - 1] for v in e) < 1 for e in edges):
        return False
    seen: set[int] = set()
    for e in M.edges:
        if e not in edge_set or seen & set(e):
            return False
        seen.update(e)
    return True


def _tight_check(point, report) -> bool:
    n, k, m = point
    if len(report.instances) != 1:
        return False
    rec = report.instances[0]
    thr = comb(n - 1, k - 1) - comb(n - m, k - 1)
    if rec["delta1"] != thr or rec["nu"] != m - 1:
        return False
    if m + k <= n:
        return rec["next_checked"] and rec["next_delta1"] > thr and rec["next_nu"] == m
    return rec["next_checked"] is False


def _deficiency(n: int, edge_set: set, W) -> int:
    """Template k-sets (1 <= |e & W| <= k-1) missing from the graph."""
    ws = set(W)
    return sum(
        1
        for e in combinations(range(1, n + 1), K)
        if 1 <= len(ws.intersection(e)) <= K - 1 and e not in edge_set
    )


def _contain_check(spec, out) -> bool:
    _, n, m, edges = spec
    exh, loc = out
    edge_set = set(edges)
    brute = min(_deficiency(n, edge_set, W) for W in combinations(range(1, n + 1), m - 1))
    return (
        exh.deficiency == brute
        and _deficiency(n, edge_set, exh.partition.W) == exh.deficiency
        and _deficiency(n, edge_set, loc.partition.W) == loc.deficiency
        and loc.deficiency >= exh.deficiency
    )


def corpus_check(spec, args, out) -> bool:
    if spec[0] == "dual":
        return _dual_check(spec, out)
    if spec[0] == "tight":
        return _tight_check(spec[1], out)
    return _contain_check(spec, out)


def corpus_digest(spec, args, out) -> str | None:
    return None if spec[0] == "tight" else _graph_digest(args[1])


WORKLOADS = {
    "pipeline": Workload(pipeline_setup, pipeline_prepare, pipeline_run, pipeline_check, pipeline_digest),
    "search": Workload(search_setup, search_prepare, search_run, search_check, search_digest),
    "nibble": Workload(nibble_setup, nibble_prepare, nibble_run, nibble_check, nibble_digest),
    "corpus": Workload(corpus_setup, corpus_prepare, corpus_run, corpus_check, corpus_digest),
}
