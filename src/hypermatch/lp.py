"""Exact rational linear programming for fractional matchings and covers.

One simplex solve (revised simplex, Bland's anti-cycling rule) yields both
optima: the fractional matching from the primal basis and the fractional
vertex cover from the duals of the final basis. The pivot loop is
fraction-free: it runs on Python ints, keeping D = det B > 0 and the
integer adjugate A = adj B of the basis matrix B, so B^-1 = A / D; every
update divides exactly by the old D, and Fraction appears only in the
returned values. solve_fractional returns both witnesses after
re-verifying them by direct exact arithmetic, so their equal values certify
optimality of both via weak duality independently of the pivoting path.

Also: the cyclic-window perfect fractional matching of complete graphs, the
weight-closure hypergraph of a vertex weighting, and weight-sorted vertex
relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import itemgetter
from typing import Mapping

from .core import EdgeT, KGraph
from .errors import InternalContradictionError, InvalidQueryError

ZERO = Fraction(0)


@dataclass(frozen=True)
class FractionalAssignment:
    """Edge weights phi in [0,1] with every vertex load at most 1.

    Validated on construction: support must lie in the host's edge set and
    loads are checked exactly. "Perfect" means the total weight is n/k, which
    forces every vertex load to equal 1.
    """

    host: KGraph
    phi: Mapping[EdgeT, Fraction]

    def __post_init__(self):
        loads: dict[int, Fraction] = {}
        for e, val in self.phi.items():
            if e not in self.host.edge_set:
                raise InvalidQueryError(f"support edge {e} is not a host edge")
            if not 0 <= val <= 1:
                raise InvalidQueryError(f"phi({e}) = {val} outside [0, 1]")
            for v in e:
                loads[v] = loads.get(v, ZERO) + val
        bad = {v: l for v, l in loads.items() if l > 1}
        if bad:
            raise InvalidQueryError(f"vertex loads exceed 1: {bad}")

    def value(self) -> Fraction:
        return sum(self.phi.values(), ZERO)

    def loads(self) -> dict[int, Fraction]:
        out = {v: ZERO for v in self.host.vertices()}
        for e, val in self.phi.items():
            for v in e:
                out[v] += val
        return out

    def is_perfect(self) -> bool:
        return self.value() == Fraction(self.host.n, self.host.k)

    def support(self) -> tuple[EdgeT, ...]:
        return tuple(sorted(e for e, val in self.phi.items() if val > 0))


def _common_denominator(weights) -> tuple[int, list[int]]:
    """(D, nums) with D the lcm of the denominators and weights[v-1] = nums[v] / D.

    nums[0] is a 0 pad so that a k-set's weight is sum(nums[v] for v in e) / D.
    """
    den = lcm(*(w.denominator for w in weights))
    return den, [0] + [w.numerator * (den // w.denominator) for w in weights]


@dataclass(frozen=True)
class VertexWeights:
    """Vertex weights in [0,1]; weights[v-1] is the weight of vertex v."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if any(not 0 <= w <= 1 for w in self.weights):
            raise InvalidQueryError("vertex weights must lie in [0, 1]")

    def __getitem__(self, v: int) -> Fraction:
        return self.weights[v - 1]

    @property
    def n(self) -> int:
        return len(self.weights)

    def total(self) -> Fraction:
        return sum(self.weights, ZERO)

    def is_cover_of(self, H: KGraph) -> bool:
        den, nums = _common_denominator(self.weights)
        return all(sum(map(nums.__getitem__, e)) >= den for e in H.edges)


def _solve_incidence_lp(H: KGraph) -> tuple[Fraction, dict[EdgeT, Fraction], tuple[Fraction, ...]]:
    """Maximize total edge weight subject to unit vertex loads.

    Revised simplex with an explicit basis inverse: the constraint matrix is
    a 0/1 incidence matrix with k ones per edge column, so reduced costs are
    priced in O(k) per column and only the m x m inverse is updated per
    pivot. The slack basis is feasible (all right-hand sides are 1), so no
    phase 1 is needed. Deterministic: Bland's rule (lowest eligible column;
    ratio ties broken by lowest basic variable) over the canonical edge
    order, edges first, then slacks.

    Fraction-free: the loop runs on ints. For the basis matrix B it keeps
    det = D = det B > 0 and adj = A = adj B, so B^-1 = A / D, plus the
    numerators xb = A 1 of the basic values and y = c_B A of the duals, both
    over D. A pivot on d = A a_enter with p = d[leave] > 0 keeps the leaving
    row, maps every other row to (p row - d[i] prow) // D and sets D := p;
    the division is exact because the result is adj B' with det B' = p.
    Signs and ratios are compared over the positive common denominators, so
    every pivot is the one Bland's rule picks over Fraction, and the witness
    is the same. Fraction appears only in the returned values.
    """
    m = H.n
    ncols = len(H.edges)
    # edge columns as 0-based row index tuples; k >= 2, so each getter returns a tuple
    cols = [tuple(v - 1 for v in e) for e in H.edges]
    col_getters = [itemgetter(*c) for c in cols]
    adj = [[int(i == t) for t in range(m)] for i in range(m)]
    xb = [1] * m
    det = 1
    basis = list(range(ncols, ncols + m))  # slack of row i has index ncols + i
    edge_basic = [False] * m  # whether basis[i] is an edge column (cost 1)

    while True:
        # y = cB^T adj, summing only edge (cost 1) basis rows
        y = list(map(sum, zip([0] * m, *(adj[i] for i in range(m) if edge_basic[i]))))
        # Bland pricing: first column with positive reduced cost (det - y a_j) / det
        enter = next((j for j, col in enumerate(col_getters) if sum(col(y)) < det), None)
        if enter is None:
            enter = next((ncols + i for i in range(m) if y[i] < 0), None)
            if enter is None:
                break
        enter_rows = cols[enter] if enter < ncols else (enter - ncols,)
        # direction d = adj a_enter, so B^-1 a_enter = d / det
        d = [sum(map(row.__getitem__, enter_rows)) for row in adj]
        leave = None
        for i in range(m):
            if d[i] > 0:
                if leave is None:
                    leave = i
                    continue
                lhs, rhs = xb[i] * d[leave], xb[leave] * d[i]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InternalContradictionError("packing LP reported unbounded", check="lp-bounded")
        p, prow, pval = d[leave], adj[leave], xb[leave]
        for i in range(m):
            f = d[i]
            if i != leave and (f or p != det):
                adj[i] = [(a * p - f * b) // det for a, b in zip(adj[i], prow)]
                xb[i] = (xb[i] * p - f * pval) // det
        det = p
        basis[leave] = enter
        edge_basic[leave] = enter < ncols

    value = Fraction(sum(xb[i] for i in range(m) if edge_basic[i]), det)
    phi = {H.edges[basis[i]]: Fraction(xb[i], det) for i in range(m) if edge_basic[i]}
    # y was priced from the final basis, so y / det is the optimal dual vector
    return value, phi, tuple(Fraction(t, det) for t in y)


def solve_fractional(H: KGraph) -> tuple[Fraction, FractionalAssignment, VertexWeights]:
    """Exact optimum fractional matching and cover from one solve, both verified.

    The matching is validated as a FractionalAssignment (loads at most 1),
    the cover as a fractional cover of H with weights in [0,1], and both
    totals must equal the simplex objective, which certifies optimality of
    both by weak duality.
    """
    value, phi, duals = _solve_incidence_lp(H)
    assignment = FractionalAssignment(H, phi)  # validates loads <= 1 exactly
    if assignment.value() != value:
        raise InternalContradictionError(
            "primal witness value disagrees with simplex objective", check="lp-primal-value"
        )
    cover = VertexWeights(duals)
    if not cover.is_cover_of(H):
        raise InternalContradictionError(
            "extracted dual vector is not a fractional cover", check="lp-dual-feasible"
        )
    if cover.total() != value:
        raise InternalContradictionError(
            "cover value disagrees with simplex objective", check="lp-dual-value"
        )
    return value, assignment, cover


def max_fractional_matching(H: KGraph) -> tuple[Fraction, FractionalAssignment]:
    """Exact optimum fractional matching with a verified witness."""
    value, assignment, _ = solve_fractional(H)
    return value, assignment


def min_fractional_cover(H: KGraph) -> tuple[Fraction, VertexWeights]:
    """Exact optimum fractional vertex cover with a verified witness (the LP dual)."""
    value, _, cover = solve_fractional(H)
    return value, cover


def clique_window_matching(n: int, k: int) -> FractionalAssignment:
    """Weight 1/k on the n cyclic windows {i, ..., i+k-1} (mod n) of K_n^k.

    Every vertex lies in exactly k windows, so all loads are 1 and the value
    is n/k: a perfect fractional matching of the complete k-graph.
    """
    if n <= k:
        raise InvalidQueryError(f"need n > k, got n={n}, k={k}")
    from .constructions import complete

    host = complete(n, k)
    wk = Fraction(1, k)
    phi = {}
    for i in range(n):
        window = tuple(sorted((i + j) % n + 1 for j in range(k)))
        phi[window] = wk
    return FractionalAssignment(host, phi)


def weight_closure(n_total: int, k: int, w: VertexWeights) -> KGraph:
    """All k-sets of 1..n_total whose weights sum to at least 1, exactly."""
    if w.n != n_total:
        raise InvalidQueryError(f"weights cover {w.n} vertices, expected {n_total}")
    den, nums = _common_denominator(w.weights)
    weight = nums.__getitem__
    edges = [e for e in combinations(range(1, n_total + 1), k) if sum(map(weight, e)) >= den]
    return KGraph._from_sorted(n_total, k, edges)


def relabel_by_weights(H: KGraph, w: VertexWeights) -> tuple[KGraph, tuple[int, ...]]:
    """Rename vertices so weights are non-increasing; ties keep index order.

    Returns the relabeled graph and the permutation as a tuple p with
    p[old_vertex - 1] = new_label. After relabeling, the weight closure of
    the permuted weights is stable.
    """
    if w.n != H.n:
        raise InvalidQueryError(f"weights cover {w.n} vertices, expected {H.n}")
    order = sorted(H.vertices(), key=lambda v: (-w[v], v))
    old_to_new = [0] * H.n
    for new_label, old in enumerate(order, start=1):
        old_to_new[old - 1] = new_label
    edges = [tuple(sorted(old_to_new[v - 1] for v in e)) for e in H.edges]
    return KGraph._from_sorted(H.n, H.k, sorted(edges)), tuple(old_to_new)


def permute_weights(w: VertexWeights, old_to_new: tuple[int, ...]) -> VertexWeights:
    """Weights seen through a relabeling: new vertex p[v-1] gets v's weight."""
    out = [ZERO] * len(old_to_new)
    for old, new in enumerate(old_to_new, start=1):
        out[new - 1] = w[old]
    return VertexWeights(tuple(out))
