"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates; nothing shares code paths with the package
implementations it is used to check. The exceptions are copies of code
the package replaced with faster equivalents (the Fraction simplex, under
Bland's rule and under the current pricing, the Fraction-compare
generators, the uncached nibble report, the tuple-built complete graph,
exact_nu with per-vertex edge sorts and a list of live edge masks at every
node, the independence search that scans edges at every node, the
line-by-line format_graph, the containment local search with nested swap
loops, the clique completion that pops clique vertices one at a time); the
fast versions must reproduce them exactly.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from hypermatch.constructions import vertex_degree_threshold
from hypermatch.core import EdgeT, KGraph, Matching, node_budget
from hypermatch.errors import (
    BudgetExceededError,
    InternalContradictionError,
    InvalidQueryError,
    SamplingExhaustedError,
)
from hypermatch.lp import DEGENERATE_RUN
from hypermatch.matching import (
    NibbleConfig,
    NibbleReport,
    NibbleRound,
    greedy_matching,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def brute_degree(edges, T):
    ts = set(T)
    return sum(1 for e in edges if ts <= set(e))


def brute_min_l_degree(n, edges, l):
    if l == 0:
        return len(edges)
    return min(brute_degree(edges, T) for T in combinations(range(1, n + 1), l))


def brute_independence(n, edges):
    """Largest subset containing no edge, by exhaustive subset search."""
    edge_sets = [frozenset(e) for e in edges]
    best = 0
    for size in range(n, -1, -1):
        for S in combinations(range(1, n + 1), size):
            ss = set(S)
            if not any(es <= ss for es in edge_sets):
                return size
    return best


def brute_is_stable(edges):
    """Pairwise comparison under the coordinatewise order on sorted tuples."""
    es = set(edges)
    for f in es:
        for e in combinations(range(1, max(f) + 1), len(f)):
            if all(e[i] <= f[i] for i in range(len(f))) and e not in es:
                return False
    return True


def brute_nu(edges):
    """Maximum matching size by exhaustive search over edge subsets."""
    edges = list(edges)

    def grow(start, used, count):
        best = count
        for i in range(start, len(edges)):
            ev = set(edges[i])
            if not ev & used:
                best = max(best, grow(i + 1, used | ev, count + 1))
        return best

    return grow(0, set(), 0)


def brute_template_edges(n, k, W, l):
    """All k-sets of 1..n meeting W in between 1 and l vertices."""
    ws = set(W)
    return {e for e in combinations(range(1, n + 1), k) if 1 <= len(ws & set(e)) <= l}


def brute_type_graph(sizes, profiles, k):
    """All k-sets of 1..sum(sizes) whose counts in the consecutive blocks of
    the given sizes form one of the profiles, in lexicographic order."""
    block = [i for i, a in enumerate(sizes) for _ in range(a)]  # block[v - 1] holds v
    allowed = {tuple(p) for p in profiles}
    return [
        e
        for e in combinations(range(1, sum(sizes) + 1), k)
        if tuple(sum(1 for v in e if block[v - 1] == i) for i in range(len(sizes))) in allowed
    ]


def brute_min_deficiency(H_edges, n, k, m):
    """Exhaustive minimum, over all W of size m-1, of |template - E(H)|."""
    es = set(H_edges)
    best = None
    best_W = None
    for W in combinations(range(1, n + 1), m - 1):
        missing = len(brute_template_edges(n, k, W, k - 1) - es)
        if best is None or missing < best:
            best, best_W = missing, W
    return best, best_W


def float_lp_matching_value(n, edges):
    """Fractional matching value via scipy's HiGHS solver (float cross-check)."""
    from scipy.optimize import linprog

    if not edges:
        return 0.0
    A = [[0] * len(edges) for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            A[v - 1][j] = 1
    res = linprog(c=[-1] * len(edges), A_ub=A, b_ub=[1] * n, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def vertex_loads(n, phi):
    loads = {v: Fraction(0) for v in range(1, n + 1)}
    for e, val in phi.items():
        for v in e:
            loads[v] += val
    return loads


def fraction_simplex(H, stats=None):
    """The Fraction simplex that lp._solve_incidence_lp must follow pivot for pivot.

    Maximize total edge weight subject to unit vertex loads.

    Revised simplex with an explicit basis inverse: the constraint matrix is
    a 0/1 incidence matrix with k ones per edge column, so reduced costs are
    priced in O(k) per column and only the m x m inverse is updated per
    pivot. The slack basis is feasible (all right-hand sides are 1), so no
    phase 1 is needed. Dantzig's rule enters the edge column of largest
    reduced cost (lowest index on ties), else the first slack with a
    negative dual; after lp.DEGENERATE_RUN degenerate pivots in a row,
    Bland's rule prices until the next nondegenerate pivot. Ratio ties go to
    the lowest basic variable.

    If stats is a dict, it receives "pivots" (all pivots) and "bland_pivots"
    (those priced by Bland's rule).
    """
    return _fraction_simplex(H, DEGENERATE_RUN, stats)


def bland_fraction_simplex(H, stats=None):
    """The Bland-rule Fraction simplex that lp._solve_incidence_lp replaced.

    Deterministic: Bland's rule (lowest eligible column; ratio ties broken
    by lowest basic variable) over the canonical edge order, edges first,
    then slacks. stats as for fraction_simplex.
    """
    return _fraction_simplex(H, 0, stats)


def _fraction_simplex(H, degenerate_run, stats):
    """Dantzig pricing until degenerate_run degenerate pivots in a row, then
    Bland's rule until the next nondegenerate pivot (degenerate_run=0: Bland
    throughout)."""
    m = H.n
    ncols = len(H.edges)
    # edge columns as 0-based row index tuples
    cols = [tuple(v - 1 for v in e) for e in H.edges]
    binv = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        binv[i][i] = ONE
    xb = [ONE] * m
    basis = list(range(ncols, ncols + m))  # slack of row i has index ncols + i
    edge_basic = [False] * m  # whether basis[i] is an edge column (cost 1)
    degenerate = pivots = bland_pivots = 0

    while True:
        # y = cB^T Binv, skipping zero-cost (slack) basis rows
        y = [ZERO] * m
        for i in range(m):
            if edge_basic[i]:
                row = binv[i]
                for t in range(m):
                    if row[t]:
                        y[t] += row[t]
        bland = degenerate >= degenerate_run
        # Dantzig: largest positive reduced cost, first on ties; Bland: first positive
        enter = None
        enter_rows: tuple[int, ...] = ()
        best_rc = ZERO
        for j in range(ncols):
            rc = ONE
            for t in cols[j]:
                rc -= y[t]
            if rc > best_rc:
                enter, enter_rows, best_rc = j, cols[j], rc
                if bland:
                    break
        if enter is None:
            for i in range(m):
                if -y[i] > 0:
                    enter, enter_rows = ncols + i, (i,)
                    break
        if enter is None:
            break
        # direction d = Binv A_enter
        d = [ZERO] * m
        for t in enter_rows:
            for i in range(m):
                if binv[i][t]:
                    d[i] += binv[i][t]
        leave = None
        best_ratio = None
        for i in range(m):
            if d[i] > 0:
                ratio = xb[i] / d[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise InternalContradictionError("packing LP reported unbounded", check="lp-bounded")
        pivots += 1
        bland_pivots += bland
        degenerate = degenerate + 1 if xb[leave] == 0 else 0
        piv = d[leave]
        if piv != 1:
            inv = ONE / piv
            binv[leave] = [x * inv for x in binv[leave]]
            xb[leave] *= inv
        prow = binv[leave]
        pval = xb[leave]
        for i in range(m):
            if i == leave:
                continue
            f = d[i]
            if f:
                row = binv[i]
                row[:] = [a if not b else a - f * b for a, b in zip(row, prow)]
                if pval:
                    xb[i] -= f * pval
        basis[leave] = enter
        edge_basic[leave] = enter < ncols

    value = sum((xb[i] for i in range(m) if edge_basic[i]), ZERO)
    phi = {H.edges[basis[i]]: xb[i] for i in range(m) if edge_basic[i]}
    if stats is not None:
        stats.update(pivots=pivots, bland_pivots=bland_pivots)
    # y was priced from the final basis, so it is the optimal dual vector
    return value, phi, tuple(y)


# -- the complete k-graph before it was built as an edge array ---------------


def complete(n: int, k: int) -> KGraph:
    """The complete k-graph on n vertices."""
    if n < k:
        raise InvalidQueryError(f"need n >= k, got n={n}, k={k}")
    return KGraph._from_sorted(n, k, combinations(range(1, n + 1), k))


# -- the generators and the nibble report before exact float thresholds ------
#
# Each k-set draw below compares rng.random() with a Fraction p directly, and
# the regularity gate is recomputed on every report. The package versions
# must keep the same k-sets and return equal NibbleReports.


def random_kgraph(n: int, k: int, p, seed: int) -> KGraph:
    """Each k-set included independently with probability p; seed-deterministic."""
    if not 0 <= p <= 1:
        raise InvalidQueryError(f"need 0 <= p <= 1, got {p}")
    rng = random.Random(seed)
    edges = [e for e in combinations(range(1, n + 1), k) if rng.random() < p]
    return KGraph._from_sorted(n, k, edges)


def random_kgraph_conditioned(
    n: int,
    k: int,
    m: int,
    tries: int = 1000,
    seed: int = 0,
    p=None,
) -> KGraph:
    """Rejection-sample random k-graphs until the minimum vertex degree
    strictly exceeds vertex_degree_threshold(n, k, m).

    p defaults to min(1, 3*floor / (2*C(n-1,k-1))), where floor is the
    threshold plus one, which keeps the acceptance rate workable near the
    threshold. Raises SamplingExhaustedError when tries run out.
    """
    floor = vertex_degree_threshold(n, k, m) + 1
    if p is None:
        full = comb(n - 1, k - 1)
        p = min(Fraction(1), Fraction(3 * floor, 2 * full)) if full else Fraction(1)
    rng = random.Random(seed)
    all_sets = list(combinations(range(1, n + 1), k))
    for _ in range(tries):
        edges = [e for e in all_sets if rng.random() < p]
        degs = [0] * (n + 1)
        for e in edges:
            for v in e:
                degs[v] += 1
        if min(degs[1:]) >= floor:
            return KGraph._from_sorted(n, k, edges)
    raise SamplingExhaustedError(
        f"no sample with min degree >= {floor} in {tries} tries (n={n}, k={k}, p={p})"
    )


def _regularity_gate(H: KGraph, tau: Fraction) -> tuple[bool, bool, float, int]:
    import numpy as np

    arr = H.edge_array
    n, k = H.n, H.k
    if len(H.edges) == 0 or n == 0:
        return False, False, 0.0, 0
    degs = np.bincount(arr.ravel(), minlength=n + 1)[1:]
    D = k * len(H.edges) / n
    t = float(tau)
    degree_ok = bool(((1 - t) * D < degs).all() and (degs < (1 + t) * D).all())
    pair_codes = []
    for a in range(k):
        for b in range(a + 1, k):
            pair_codes.append(arr[:, a].astype(np.int64) * (n + 1) + arr[:, b])
    codes = np.concatenate(pair_codes)
    _, counts = np.unique(codes, return_counts=True)
    max_cod = int(counts.max()) if len(counts) else 0
    codegree_ok = max_cod < t * D
    return degree_ok, codegree_ok, D, max_cod


def nibble_matching_report(H: KGraph, cfg: NibbleConfig) -> NibbleReport:
    """Semi-random nibble with per-round statistics and the regularity gate."""
    import numpy as np

    n, k = H.n, H.k
    if not H.edges:
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
            clean = (usage[cand_rows] == 1).all(axis=1)
            kept_rows = cand_rows[clean]
            kept = len(kept_rows)
            if kept:
                for row in kept_rows:
                    matched.append(tuple(int(x) for x in row))
                alive[kept_rows.ravel()] = False
                arr = arr[alive[arr].all(axis=1)]
        rounds.append(NibbleRound(rnd, n_cur, e_cur, d_cur, len(cand), kept))

    # greedy cleanup on whatever survived
    used = 0
    for v in range(1, n + 1):
        if not alive[v]:
            used |= 1 << v
    remainder = sorted(tuple(int(x) for x in row) for row in arr)
    for e in remainder:
        m = 0
        for v in e:
            m |= 1 << v
        if not m & used:
            matched.append(e)
            used |= m

    matching = Matching.from_edges(matched)
    covered = Fraction(k * len(matching.edges), n)
    return NibbleReport(matching, covered, tuple(rounds), deg_ok, cod_ok, D0, max_cod)


# -- exact_nu before its one global edge sort and its early exit -------------
#
# Each vertex sorts its own edges by the other endpoints' total degree, the
# walk runs even when a greedy seed is already perfect, and every node lists
# its live edges' vertex masks for a dict-counted greedy cover. The package
# version must return the same nu and the same witness.


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


def degree_order_greedy(H: KGraph) -> list[EdgeT]:
    """Maximal matching from one scan of the edges sorted by (sum of their
    vertices' degrees, lexicographic position)."""
    degree = {v: 0 for v in range(1, H.n + 1)}
    for e in H.edges:
        for v in e:
            degree[v] += 1
    ranked = sorted(enumerate(H.edges), key=lambda p: (sum(degree[v] for v in p[1]), p[0]))
    covered: set[int] = set()
    picked = []
    for _, e in ranked:
        if covered.isdisjoint(e):
            picked.append(e)
            covered.update(e)
    return picked


def exact_nu(H: KGraph) -> tuple[int, Matching]:
    """Exact maximum matching by branch and bound, with a witness.

    Branches on the lowest-indexed vertex still covered by a live edge:
    either one of its live edges joins the matching, or the vertex is set
    aside uncovered. Pruning uses the floor((free vertices)/k) bound and a
    greedy vertex-cover bound on the live edges. The walk starts from the
    lexicographic greedy seed, or from degree_order_greedy's seed when the
    first is not perfect and the second is strictly larger. Worst case is
    exponential; intended for n up to about 30 at k = 3. Raises
    BudgetExceededError once the search passes node_budget() nodes.
    """
    budget = node_budget()
    n, k = H.n, H.k
    masks = H.edge_masks
    edges = H.edges

    seed_matching = greedy_matching(H)
    best = len(seed_matching)
    best_edges = list(seed_matching.edges)
    if best < n // k:
        degree_seed = degree_order_greedy(H)
        if len(degree_seed) > best:
            best, best_edges = len(degree_seed), degree_seed

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


# -- the independence search before forbidden-vertex masks -------------------
#
# A vertex is live when no edge whose top vertex it is has the rest of its
# vertices among the chosen ones. Each node rescans every later vertex's
# edges to count the live ones, prunes when they cannot lift the count past
# the best, and scans the next vertex's edges again before choosing it. The
# package search must return the same alpha after the same number of nodes.


def independence_search(H: KGraph) -> tuple[int, int]:
    """(alpha, branch nodes visited); an edgeless graph visits no node."""
    n = H.n
    if not H.edges:
        return n, 0
    completing: list[list[int]] = [[] for _ in range(n + 1)]
    for e, m in zip(H.edges, H.edge_masks):
        top = e[-1]
        completing[top].append(m & ~(1 << top))

    def blocked(v: int, chosen_mask: int) -> bool:
        return any(m & chosen_mask == m for m in completing[v])

    best = 0
    nodes = 0

    def walk(idx: int, chosen_mask: int, count: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if count > best:
            best = count
        live = sum(1 for v in range(idx, n + 1) if not blocked(v, chosen_mask))
        if count + live <= best:
            return
        if not blocked(idx, chosen_mask):
            walk(idx + 1, chosen_mask | (1 << idx), count + 1)
        walk(idx + 1, chosen_mask, count)

    walk(1, 0, 0)
    return best, nodes


# -- format_graph before it wrote rows in blocks ------------------------------


def format_graph(H: KGraph) -> str:
    lines = [f"{H.k} {H.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in H.edges)
    return "\n".join(lines) + "\n"


# -- the containment local search with nested swap loops ----------------------
#
# Greedy seed (highest degree first, ties by lowest index), then the first
# improving swap in (outsider u ascending, member w ascending) order until no
# swap improves. The package search must end at the same W and deficiency.


def local_search_containment(H: KGraph, m: int) -> tuple[tuple[int, ...], int]:
    """(sorted W, deficiency) where the swap search from the greedy seed stops."""

    def score(W) -> int:
        return len(brute_template_edges(H.n, H.k, W, H.k - 1) - H.edge_set)

    vertices = range(1, H.n + 1)
    W = set(sorted(vertices, key=lambda v: (-brute_degree(H.edges, (v,)), v))[: m - 1])
    cur = score(W)
    improved = True
    while improved:
        improved = False
        for u in sorted(set(vertices) - W):
            for w in sorted(W):
                cand = (W - {w}) | {u}
                d = score(cand)
                if d < cur:
                    W, cur = cand, d
                    improved = True
                    break
            if improved:
                break
    return tuple(sorted(W)), cur


# -- clique completion by a manual index and one pop per clique vertex -------


def complete_through_clique(leftover: list[int], q_free: list[int], k: int) -> list[EdgeT] | None:
    edges: list[EdgeT] = []
    q = list(q_free)
    vl = sorted(leftover)
    i = 0
    while i < len(vl):
        take = vl[i : i + k - 1]
        i += len(take)
        need = k - len(take)
        if need > len(q):
            return None
        qs = [q.pop(0) for _ in range(need)]
        edges.append(tuple(sorted(take + qs)))
    for j in range(0, len(q), k):
        edges.append(tuple(q[j : j + k]))
    return edges
