"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates; nothing shares code paths with the package
implementations it is used to check.
"""

from fractions import Fraction
from itertools import combinations

from hypermatch.errors import InternalContradictionError

ZERO = Fraction(0)
ONE = Fraction(1)


def brute_degree(edges, T):
    ts = set(T)
    return sum(1 for e in edges if ts <= set(e))


def brute_min_l_degree(n, edges, l):
    if l == 0:
        return len(edges)
    return min(brute_degree(edges, T) for T in combinations(range(1, n + 1), l))


def brute_max_l_degree(n, edges, l):
    if l == 0:
        return len(edges)
    return max(brute_degree(edges, T) for T in combinations(range(1, n + 1), l))


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


def fraction_simplex(H):
    """The exact simplex over Fraction that lp._solve_incidence_lp replaced.

    Maximize total edge weight subject to unit vertex loads.

    Revised simplex with an explicit basis inverse: the constraint matrix is
    a 0/1 incidence matrix with k ones per edge column, so reduced costs are
    priced in O(k) per column and only the m x m inverse is updated per
    pivot. The slack basis is feasible (all right-hand sides are 1), so no
    phase 1 is needed. Deterministic: Bland's rule (lowest eligible column;
    ratio ties broken by lowest basic variable) over the canonical edge
    order, edges first, then slacks.
    """
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

    while True:
        # y = cB^T Binv, skipping zero-cost (slack) basis rows
        y = [ZERO] * m
        for i in range(m):
            if edge_basic[i]:
                row = binv[i]
                for t in range(m):
                    if row[t]:
                        y[t] += row[t]
        # Bland pricing: first column with positive reduced cost
        enter = None
        enter_rows: tuple[int, ...] = ()
        for j in range(ncols):
            rc = ONE
            for t in cols[j]:
                rc -= y[t]
            if rc > 0:
                enter, enter_rows = j, cols[j]
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
    # y was priced from the final basis, so it is the optimal dual vector
    return value, phi, tuple(y)
