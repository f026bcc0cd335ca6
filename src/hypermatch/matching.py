"""Exact maximum matching (also within a vertex subset), greedy matching and
the semi-random nibble.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Iterable

from .core import EdgeT, KGraph, Matching, _depth_first, _integers, induced
from .errors import InvalidQueryError


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
    used: set[int] = set()
    picked = []
    for e in H.edges:
        if used.isdisjoint(e):
            picked.append(e)
            used.update(e)
    return Matching(tuple(picked))


def exact_nu(H: KGraph) -> tuple[int, Matching]:
    """Exact maximum matching by branch and bound, with a witness.

    Branches on the lowest-indexed vertex still covered by a live edge:
    either one of its live edges joins the matching, or the vertex is set
    aside uncovered. An edge is live when it misses every vertex covered by
    a chosen edge or set aside. A node's live edges are one bitset over edge
    indices: choosing an edge clears the stars (the bitsets of the edges
    through a vertex) of its k vertices, and setting a vertex aside clears
    its star. Every vertex tries its edges in one order: by the edge's total
    vertex degree, ties by index. Pruning uses the floor((free vertices)/k)
    bound and a greedy vertex cover of the live edges, which takes the
    vertex whose star holds the most live edges (counted with popcounts;
    lowest vertex on ties) until no edge is left or the cover exceeds what
    the matching could still gain.
    The walk starts from two greedy seeds: greedy_matching's lexicographic
    scan, then, unless that one is perfect, a scan in the branching order
    above, kept only when strictly larger. A seed with floor(n/k) edges is
    returned at once.
    Worst case is exponential; intended for n up to about 30 at k = 3.
    The walk runs on an explicit stack through core._depth_first, so the
    recursion limit does not cap n, and raises BudgetExceededError once it
    passes node_budget() nodes.
    """
    n, k = H.n, H.k
    edges = H.edges
    stack = [((1 << len(edges)) - 1, n, ())]
    walk = _depth_first(stack, "exact_nu")

    seed_matching = greedy_matching(H)
    best = len(seed_matching)
    if best == n // k:
        return best, seed_matching
    best_edges = list(seed_matching.edges)

    deg = H._vertex_degrees.__getitem__
    weight = [sum(map(deg, e)) for e in edges]
    order = sorted(range(len(edges)), key=weight.__getitem__)
    used: set[int] = set()
    degree_seed = []
    for e in map(edges.__getitem__, order):
        if used.isdisjoint(e):
            degree_seed.append(e)
            used.update(e)
    if len(degree_seed) > best:
        best, best_edges = len(degree_seed), degree_seed
        if best == n // k:
            return best, Matching.from_edges(best_edges)

    # by_vertex[v]: v's edges in branching order (in v's list, the other
    # endpoints' degree w(e) - deg v orders like w(e)); star[v]: the same
    # edges as a bitset over edge indices
    by_vertex: list[list[int]] = [[] for _ in range(n + 1)]
    star = [0] * (n + 1)
    for i in order:
        bit = 1 << i
        for v in edges[i]:
            by_vertex[v].append(i)
            star[v] |= bit
    for live, free, chosen in walk:
        if len(chosen) > best:
            best, best_edges = len(chosen), chosen
        if not live:
            continue
        # edges are in lexicographic order, so the lowest live edge starts
        # at the lowest vertex that any live edge covers
        v = edges[(live & -live).bit_length() - 1][0]
        slack = best - len(chosen)
        if free // k <= slack:
            continue
        # a cover of the live edges bounds their matchings; the greedy one
        # only has to be known up to slack + 1 vertices
        rest, size = live, 0
        while rest and size <= slack:
            counts = list(map(int.bit_count, map(rest.__and__, star)))
            rest &= ~star[counts.index(max(counts))]
            size += 1
        if size <= slack:
            continue
        # pushed in reverse: v's edges are walked first, in order, then v set aside
        stack.append((live & ~star[v], free - 1, chosen))
        for i in reversed(by_vertex[v]):
            if live >> i & 1:
                hit = 0
                for u in edges[i]:
                    hit |= star[u]
                stack.append((live & ~hit, free - k, chosen + (edges[i],)))
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
