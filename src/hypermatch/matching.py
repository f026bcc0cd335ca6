"""Exact maximum matching (also within a vertex subset), greedy matching and
the semi-random nibble.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Iterable

from .core import EdgeT, KGraph, Matching, _integers, induced, node_budget
from .errors import BudgetExceededError, InvalidQueryError


@dataclass(frozen=True)
class NibbleConfig:
    """Parameters of the semi-random nibble.

    bite_fraction is the expected fraction of surviving vertices covered per
    round; tau_check is the slack of the near-regularity gate, which is
    measured and reported, never enforced.
    """

    bite_fraction: Fraction = Fraction(1, 10)
    max_rounds: int = 40
    seed: int = 0
    tau_check: Fraction = Fraction(1, 20)

    def __post_init__(self):
        if not (isinstance(self.bite_fraction, Real) and 0 < self.bite_fraction < 1):
            raise InvalidQueryError(f"bite_fraction must be in (0,1), got {self.bite_fraction}")
        max_rounds, seed = _integers(max_rounds=self.max_rounds, seed=self.seed)
        if max_rounds < 0:
            raise InvalidQueryError("max_rounds must be nonnegative")
        if not (isinstance(self.tau_check, Real) and self.tau_check > 0):
            raise InvalidQueryError("tau_check must be positive")
        if seed < 0:
            raise InvalidQueryError(f"seed must be nonnegative, got {seed}")


def greedy_matching(H: KGraph) -> Matching:
    """Maximal matching from a single ascending lexicographic edge scan."""
    used = 0
    picked = []
    for e, m in zip(H.edges, H.edge_masks):
        if not m & used:
            picked.append(e)
            used |= m
    return Matching(tuple(picked))


def _greedy_cover_bound(edge_masks: list[int], cap: int) -> int:
    """Size of a greedy vertex cover of the given edges, stopped at cap.

    Any vertex cover bounds any matching (each matching edge consumes a
    distinct cover vertex). The result never exceeds cap: when edges remain,
    the greedy stopped at cap, which bounds the matching by itself.
    """
    live = edge_masks
    size = 0
    while live and size < cap:
        counts: dict[int, int] = {}
        for m in live:
            mm = m
            while mm:
                low = mm & -mm
                counts[low] = counts.get(low, 0) + 1
                mm ^= low
        best_bit = min(
            counts, key=lambda b: (-counts[b], b)
        )  # max degree, lowest vertex on ties
        size += 1
        live = [m for m in live if not m & best_bit]
    return size


def exact_nu(H: KGraph) -> tuple[int, Matching]:
    """Exact maximum matching by branch and bound, with a witness.

    Branches on the lowest-indexed vertex still covered by a live edge:
    either one of its live edges joins the matching, or the vertex is set
    aside uncovered. A node's whole state is the chosen edges and one mask
    of blocked vertices (covered by a chosen edge or set aside); an edge is
    live when it misses the mask. Every vertex tries its edges in one order:
    by the edge's total vertex degree, ties by index. Pruning uses the
    floor((free vertices)/k) bound and a greedy vertex-cover bound on the
    live edges, which stops at the first bound and so never exceeds it.
    The walk starts from two greedy seeds: greedy_matching's lexicographic
    scan, then, unless that one is perfect, a scan in the branching order
    above, kept only when strictly larger. A seed with floor(n/k) edges is
    returned at once.
    Worst case is exponential; intended for n up to about 30 at k = 3.
    Raises BudgetExceededError once the search passes node_budget() nodes.
    """
    budget = node_budget()
    n, k = H.n, H.k
    masks = H.edge_masks
    edges = H.edges

    seed_matching = greedy_matching(H)
    best = len(seed_matching)
    if best == n // k:
        return best, seed_matching
    best_edges = list(seed_matching.edges)

    # in v's list, other endpoints' degree w(e) - deg v orders like w(e)
    deg = H._vertex_degrees.__getitem__
    weight = [sum(map(deg, e)) for e in edges]
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    used = 0
    degree_seed = []
    for i in sorted(range(len(edges)), key=weight.__getitem__):
        for v in edges[i]:
            by_vertex[v - 1].append(i)
        if not masks[i] & used:
            degree_seed.append(edges[i])
            used |= masks[i]
    if len(degree_seed) > best:
        best, best_edges = len(degree_seed), degree_seed
        if best == n // k:
            return best, Matching.from_edges(best_edges)

    nodes = 0

    def walk(blocked: int, chosen: list[EdgeT]) -> None:
        nonlocal nodes, best, best_edges
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("exact_nu node budget exceeded", nodes=nodes)
        if len(chosen) > best:
            best = len(chosen)
            best_edges = list(chosen)
        for v in range(1, n + 1):
            if blocked & (1 << v):
                continue
            live = [i for i in by_vertex[v - 1] if not masks[i] & blocked]
            if live:
                break
        else:
            return
        cap = (n - bin(blocked).count("1")) // k
        if len(chosen) + cap <= best:
            return
        live_masks = [m for m in masks if not m & blocked]
        if len(chosen) + _greedy_cover_bound(live_masks, cap) <= best:
            return
        for i in live:
            chosen.append(edges[i])
            walk(blocked | masks[i], chosen)
            chosen.pop()
        walk(blocked | (1 << v), chosen)

    walk(0, [])
    return best, Matching.from_edges(best_edges)


def exact_nu_within(H: KGraph, S: Iterable[int]) -> tuple[int, Matching]:
    """exact_nu of the subgraph of H induced on S, with the witness in H's labels."""
    live = sorted(set(S))
    nu, M = exact_nu(induced(H, live))
    return nu, Matching.from_edges(tuple(live[x - 1] for x in e) for e in M.edges)


@dataclass(frozen=True)
class NibbleRound:
    index: int
    vertices_alive: int
    edges_alive: int
    average_degree: float
    sampled: int
    kept: int


@dataclass(frozen=True)
class NibbleReport:
    matching: Matching
    covered_fraction: Fraction
    rounds: tuple[NibbleRound, ...]
    degree_gate_ok: bool
    codegree_gate_ok: bool
    average_degree: float
    max_codegree: int


def _regularity_gate(H: KGraph, tau: Fraction) -> tuple[bool, bool, float, int]:
    lo, hi, D, max_cod = H.regularity_stats
    t = float(tau)
    degree_ok = (1 - t) * D < lo and hi < (1 + t) * D
    return degree_ok, max_cod < t * D, D, max_cod


def _rows_within(mask, rows):
    """For each row of an (e, k) vertex array, whether mask holds at all k vertices."""
    import numpy as np

    ok = np.take(mask, rows[:, 0])
    for j in range(1, rows.shape[1]):
        ok &= np.take(mask, rows[:, j])
    return ok


def nibble_matching_report(H: KGraph, cfg: NibbleConfig) -> NibbleReport:
    """Semi-random nibble with per-round statistics and the regularity gate.

    Whatever survives the rounds goes through greedy cleanup, and degenerate
    inputs (too sparse for any bite) fall straight through to it, so the
    matching is always a maximal matching of what remains.
    """
    import numpy as np

    n, k = H.n, H.k
    if not H.num_edges:
        return NibbleReport(Matching(()), Fraction(0), (), False, False, 0.0, 0)
    deg_ok, cod_ok, D0, max_cod = _regularity_gate(H, cfg.tau_check)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    arr = H.edge_array
    alive = np.ones(n + 1, dtype=bool)
    alive[0] = False
    matched: list[EdgeT] = []
    rounds: list[NibbleRound] = []
    bite = float(cfg.bite_fraction)

    for rnd in range(cfg.max_rounds):
        e_cur = len(arr)
        n_cur = int(alive.sum())
        if e_cur == 0 or n_cur < k:
            break
        d_cur = k * e_cur / n_cur
        if d_cur < 1:
            break
        p = bite / d_cur
        draws = rng.random(e_cur)
        cand = np.nonzero(draws < p)[0]
        kept = 0
        if len(cand):
            cand_rows = arr[cand]
            usage = np.bincount(cand_rows.ravel(), minlength=n + 1)
            kept_rows = cand_rows[_rows_within(usage == 1, cand_rows)]
            kept = len(kept_rows)
            if kept:
                matched.extend(map(tuple, kept_rows.tolist()))
                alive[kept_rows.ravel()] = False
                arr = np.compress(_rows_within(alive, arr), arr, axis=0)
        rounds.append(NibbleRound(rnd, n_cur, e_cur, d_cur, len(cand), kept))

    # greedy cleanup on whatever survived: every row lies on alive vertices,
    # still in the host's lexicographic order
    matched.extend(greedy_matching(KGraph._from_array(n, k, arr)).edges)
    matching = Matching.from_edges(matched)
    covered = Fraction(k * len(matching.edges), n)
    return NibbleReport(matching, covered, tuple(rounds), deg_ok, cod_ok, D0, max_cod)
