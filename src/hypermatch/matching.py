"""Exact maximum matching, greedy matching, the semi-random nibble, and
sparsification of a host graph by per-copy perfect fractional matchings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import EdgeT, KGraph, Matching, node_budget
from .errors import BudgetExceededError, InvalidQueryError, PreconditionError
from .lp import FractionalAssignment


@dataclass(frozen=True)
class NibbleConfig:
    """Parameters of the semi-random nibble.

    bite_fraction is the expected fraction of surviving vertices covered per
    round; sigma_target is the leftover fraction the caller hopes for (it is
    reported against, not used as a stopping rule); tau_check is the slack of
    the near-regularity gate, which is measured and reported, never enforced.
    """

    bite_fraction: Fraction = Fraction(1, 10)
    max_rounds: int = 40
    sigma_target: Fraction = Fraction(1, 10)
    seed: int = 0
    tau_check: Fraction = Fraction(1, 20)

    def __post_init__(self):
        if not 0 < self.bite_fraction < 1:
            raise InvalidQueryError(f"bite_fraction must be in (0,1), got {self.bite_fraction}")
        if not 0 < self.sigma_target < 1:
            raise InvalidQueryError(f"sigma_target must be in (0,1), got {self.sigma_target}")
        if self.max_rounds < 0:
            raise InvalidQueryError("max_rounds must be nonnegative")
        if self.tau_check <= 0:
            raise InvalidQueryError("tau_check must be positive")


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
    distinct cover vertex), so min(cap, returned value) is a valid upper
    bound on the maximum matching among these edges.
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
    return size if not live else cap


def exact_nu(H: KGraph) -> tuple[int, Matching]:
    """Exact maximum matching by branch and bound, with a witness.

    Branches on the lowest-indexed vertex still covered by a live edge:
    either one of its live edges joins the matching, or the vertex is set
    aside uncovered. Pruning uses the floor((free vertices)/k) bound and a
    greedy vertex-cover bound on the live edges. Worst case is exponential;
    intended for n up to about 30 at k = 3. Raises BudgetExceededError once
    the search passes node_budget() nodes.
    """
    budget = node_budget()
    n, k = H.n, H.k
    masks = H.edge_masks
    edges = H.edges

    seed_matching = greedy_matching(H)
    best = len(seed_matching)
    best_edges = list(seed_matching.edges)

    # deterministic edge order per vertex: prefer edges whose other endpoints
    # have small total degree (they consume scarce vertices first)
    static_deg = [len(H.vertex_edges[v - 1]) for v in range(1, n + 1)]
    by_vertex: list[list[int]] = []
    for v in range(1, n + 1):
        idxs = sorted(
            H.vertex_edges[v - 1],
            key=lambda i: (sum(static_deg[u - 1] for u in edges[i] if u != v), i),
        )
        by_vertex.append(idxs)

    nodes = 0

    def walk(used: int, excluded: int, count: int, chosen: list[EdgeT]) -> None:
        nonlocal nodes, best, best_edges
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("exact_nu node budget exceeded", nodes=nodes)
        if count > best:
            best = count
            best_edges = list(chosen)
        blocked = used | excluded
        branch_v = None
        live_of_v: list[int] = []
        for v in range(1, n + 1):
            if blocked & (1 << v):
                continue
            live = [i for i in by_vertex[v - 1] if not masks[i] & blocked]
            if live:
                branch_v = v
                live_of_v = live
                break
        if branch_v is None:
            return
        free = n - bin(blocked).count("1")
        cap = free // k
        if count + cap <= best:
            return
        live_masks = [m for m in masks if not m & blocked]
        cover = _greedy_cover_bound(live_masks, cap)
        if count + min(cap, cover) <= best:
            return
        for i in live_of_v:
            chosen.append(edges[i])
            walk(used | masks[i], excluded, count + 1, chosen)
            chosen.pop()
        walk(used, excluded | (1 << branch_v), count, chosen)

    if edges:
        walk(0, 0, 0, [])
    return best, Matching.from_edges(best_edges)


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
    """Semi-random nibble with per-round statistics and the regularity gate."""
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
        p = min(1.0, bite / d_cur)
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


def nibble_matching(H: KGraph, cfg: NibbleConfig) -> tuple[Matching, Fraction]:
    """Nibble then greedy cleanup; returns the matching and k|M|/n exactly.

    Degenerate inputs (too sparse for any bite) fall through to the greedy
    cleanup, so the result is always a maximal matching of what remains.
    """
    rep = nibble_matching_report(H, cfg)
    return rep.matching, rep.covered_fraction


def sparsify_by_fractional(
    H: KGraph,
    copies: Sequence[tuple[Iterable[int], FractionalAssignment]],
    seed: int,
) -> KGraph:
    """Spanning subgraph keeping each edge of a copy with its fractional weight.

    Each copy is (vertex subset R, assignment phi) where phi must be a
    perfect fractional matching of the subgraph induced on R, keyed by edges
    of H in original labels; every edge of H may lie in at most one copy.
    The inclusion rule (keep edge e independently with probability phi(e))
    is a reconstruction: the source result is stated without its sampling
    rule, and this is the natural reading used here.
    """
    n, k = H.n, H.k
    copy_sets: list[frozenset[int]] = []
    assignments: list[FractionalAssignment] = []
    for R, phi in copies:
        rs = frozenset(R)
        if not rs <= set(H.vertices()):
            raise PreconditionError("copy subset contains vertices outside the host")
        if len(rs) % k != 0:
            raise PreconditionError(f"copy size {len(rs)} is not divisible by k={k}")
        loads = {v: Fraction(0) for v in rs}
        total = Fraction(0)
        for e, val in phi.phi.items():
            if not set(e) <= rs:
                raise PreconditionError(f"support edge {e} leaves its copy")
            if e not in H.edge_set:
                raise PreconditionError(f"support edge {e} is not a host edge")
            total += val
            for v in e:
                loads[v] += val
        if total != Fraction(len(rs), k) or any(l != 1 for l in loads.values()):
            raise PreconditionError("copy assignment is not a perfect fractional matching")
        copy_sets.append(rs)
        assignments.append(phi)

    # every host edge in at most one copy
    vertex_to_copies: dict[int, list[int]] = {}
    for i, rs in enumerate(copy_sets):
        for v in rs:
            vertex_to_copies.setdefault(v, []).append(i)
    for e in H.edges:
        hits = set(vertex_to_copies.get(e[0], []))
        for v in e[1:]:
            hits &= set(vertex_to_copies.get(v, []))
            if not hits:
                break
        if len(hits) > 1:
            raise PreconditionError(f"edge {e} lies in {len(hits)} copies; at most one allowed")

    rng = random.Random(seed)
    included = []
    for phi in assignments:
        for e in sorted(phi.phi):
            if rng.random() < phi.phi[e]:
                included.append(e)
    return KGraph._from_sorted(n, k, sorted(set(included)))
