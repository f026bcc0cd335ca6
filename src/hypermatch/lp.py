"""Exact rational linear programming for fractional matchings and covers.

One simplex solve (revised simplex, Dantzig pricing, Bland's rule after a
run of degenerate pivots) yields both optima: the fractional matching from
the primal basis and the fractional vertex cover from the duals of the
final basis. Each pivot sums the duals over the graph's (k-1)-prefixes
once, then prices every edge column in one C-level add pass with its last
vertex, through the prefix index cached on the KGraph. On a clique join
(KGraph._top_split) Dantzig pricing sums the base graph's edges alone: the
clique vertices are interchangeable, so the cheapest k-set with j of them
is read off the sorted duals. The pivot loop is fraction-free: on Python
ints it keeps D = det B > 0 and A = adj B, so B^-1 = A / D, and every
update divides exactly by the old D; Fraction appears only in the
returned values. solve_fractional re-verifies both witnesses by direct
exact arithmetic, so their equal values certify optimality of both via
weak duality, independently of the pivoting path.

Also: cyclic windows and the cyclic-window perfect fractional matching of
complete graphs, the weight-closure hypergraph of a vertex weighting, and
weight-sorted vertex relabeling.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from numbers import Rational
from operator import add
from typing import Mapping, Sequence

from .constructions import complete
from .core import EdgeT, KGraph, _check_shape, _integers
from .errors import InternalContradictionError, InvalidQueryError

ZERO = Fraction(0)
DEGENERATE_RUN = 8  # consecutive degenerate pivots before Bland's rule takes over


@dataclass(frozen=True)
class FractionalAssignment:
    """Edge weights phi in [0,1] with every vertex load at most 1.

    Validated on construction: support must lie in the host's edge set,
    values must be rationals, and range and loads are checked exactly, in
    integers over the lcm of the denominators. "Perfect" means the total
    weight is n/k, which forces every vertex load to equal 1.
    """

    host: KGraph
    phi: Mapping[EdgeT, Fraction]

    def __post_init__(self):
        for e, val in self.phi.items():
            if e not in self.host.edge_set:
                raise InvalidQueryError(f"support edge {e} is not a host edge")
            if not isinstance(val, Rational):
                raise InvalidQueryError(f"phi({e}) = {val!r} is not a rational number")
            if not 0 <= val.numerator <= val.denominator:
                raise InvalidQueryError(f"phi({e}) = {val} outside [0, 1]")
        den, loads = self._scaled_loads()
        if max(loads) > den:
            bad = {v: l for v, l in self.loads().items() if l > 1}
            raise InvalidQueryError(f"vertex loads exceed 1: {bad}")

    def _scaled_loads(self) -> tuple[int, list[int]]:
        """(D, loads) with D the lcm of phi's denominators and vertex v's load loads[v] / D."""
        den, nums = _common_denominator(self.phi.values())
        loads = [0] * (self.host.n + 1)
        for e, num in zip(self.phi, nums[1:]):
            for v in e:
                loads[v] += num
        return den, loads

    def value(self) -> Fraction:
        den, nums = _common_denominator(self.phi.values())
        return Fraction(sum(nums), den)

    def loads(self) -> dict[int, Fraction]:
        den, loads = self._scaled_loads()
        return {v: Fraction(loads[v], den) for v in self.host.vertices()}

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


def _edge_sums(H: KGraph, vals: Sequence[int]) -> list[int]:
    """[sum(vals[v] for v in e) for e in H.edges], in k - 1 C-level passes over
    H's (k-1)-prefixes and one add pass over its edges (KGraph._prefix_index)."""
    cols, owner, last = H._prefix_index
    s = map(vals.__getitem__, cols[0])
    for rows in cols[1:]:
        s = map(add, s, map(vals.__getitem__, rows))
    return list(map(add, map(list(s).__getitem__, owner), map(vals.__getitem__, last)))


def _cheapest(H: KGraph, vals: Sequence[int]) -> tuple[int, int] | None:
    """(min sum, index of the first edge with that sum) over H's edges, or None if
    H has none. On a join (KGraph._top_split = (r, base)) only base's edges are
    summed; the cheapest k-set with j of the top r vertices, smallest on ties, is
    the j top and k - j base vertices first in (vals[v], v) order."""
    if H._top_split is None:
        s = _edge_sums(H, vals)
        return (low := min(s), s.index(low)) if s else None
    r, base = H._top_split
    n, k = base.n, H.k
    best = _cheapest(base, vals)
    cands = [] if best is None else [(best[0], base.edges[best[1]])]
    bottom, top = (sorted(side, key=vals.__getitem__) for side in (range(1, n + 1), range(n + 1, n + r + 1)))
    ksets = ((*sorted(bottom[: k - j]), *sorted(top[:j])) for j in range(max(1, k - n), min(k, r) + 1))
    cands += [(sum(map(vals.__getitem__, e)), e) for e in ksets]
    low, e = min(cands, default=(None, None))  # none: n + r < k, so H is edgeless
    return None if e is None else (low, bisect_left(H.edges, e))  # smallest tuple, lowest index


@dataclass(frozen=True)
class VertexWeights:
    """Rational vertex weights in [0,1]; weights[v-1] is the weight of vertex v."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not all(isinstance(w, Rational) and 0 <= w <= 1 for w in self.weights):
            raise InvalidQueryError("vertex weights must lie in [0, 1] and be rational numbers")

    def __getitem__(self, v: int) -> Fraction:
        return self.weights[v - 1]

    @property
    def n(self) -> int:
        return len(self.weights)

    def total(self) -> Fraction:
        return sum(self.weights, ZERO)

    def is_cover_of(self, H: KGraph) -> bool:
        if self.n != H.n:
            raise InvalidQueryError(f"weights cover {self.n} vertices, expected {H.n}")
        den, nums = _common_denominator(self.weights)
        return (_cheapest(H, nums) or (den,))[0] >= den


def _solve_incidence_lp(H: KGraph) -> tuple[dict[EdgeT, Fraction], tuple[Fraction, ...]]:
    """Maximize total edge weight subject to unit vertex loads.

    Revised simplex on the 0/1 incidence matrix (k ones per edge column). A
    pivot prices every edge column through H's (k-1)-prefix index (the duals
    summed once per prefix, then one add pass with each edge's last vertex)
    and updates only the m x m basis inverse; on a join, Dantzig pricing
    sums the base's edges alone and the k-sets meeting the clique in closed
    form (_cheapest), picking the same column. The slack basis is feasible
    (all right-hand sides are 1), so no phase 1 is needed. Deterministic:
    Dantzig's rule enters the edge column of largest reduced cost (lowest
    index on ties), else the first slack with a negative dual; after
    DEGENERATE_RUN degenerate pivots in a row, Bland's rule (lowest eligible
    column, edges first, then slacks; it cannot cycle) prices until the next
    nondegenerate pivot. Ratio ties go to the lowest basic variable.

    Fraction-free: the loop runs on ints. For the basis matrix B it keeps
    det = D = det B > 0 and adj = A = adj B, so B^-1 = A / D, plus the
    numerators xb = A 1 of the basic values and y = c_B A of the duals, both
    over D. A pivot on d = A a_enter with p = d[leave] > 0 keeps the leaving
    row, maps every other row to (p row - d[i] prow) // D and sets D := p;
    the division is exact because the result is adj B' with det B' = p.
    Signs, reduced costs and ratios are compared over the positive common
    denominators, so every pivot is the one the same rule picks over
    Fraction. Fraction appears only in the returned values.
    """
    m = H.n
    ncols = len(H.edges)
    adj = [[int(i == t) for t in range(m)] for i in range(m)]
    xb = [1] * m
    det = 1
    basis = list(range(ncols, ncols + m))  # slack of row i has index ncols + i
    degenerate = 0  # consecutive pivots with xb[leave] == 0

    while True:
        # y = cB^T adj, summing only edge (cost 1) basis rows
        y = list(map(sum, zip([0] * m, *(row for row, j in zip(adj, basis) if j < ncols))))
        # y a_j is the sum of y over edge j, so its reduced cost is (det - y a_j) / det
        vals = [0, *y]
        if degenerate < DEGENERATE_RUN:
            enter = best[1] if (best := _cheapest(H, vals)) and best[0] < det else None
        else:
            enter = next((j for j, sj in enumerate(_edge_sums(H, vals)) if sj < det), None)
        if enter is None:
            enter = next((ncols + i for i in range(m) if y[i] < 0), None)
            if enter is None:
                break
        enter_rows = [v - 1 for v in H.edges[enter]] if enter < ncols else (enter - ncols,)
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
            raise InternalContradictionError("packing LP reported unbounded")
        p, prow, pval = d[leave], adj[leave], xb[leave]
        for i in range(m):
            f = d[i]
            if i != leave and (f or p != det):
                adj[i] = [(a * p - f * b) // det for a, b in zip(adj[i], prow)]
                xb[i] = (xb[i] * p - f * pval) // det
        det = p
        degenerate = degenerate + 1 if pval == 0 else 0
        basis[leave] = enter

    phi = {H.edges[j]: Fraction(x, det) for j, x in zip(basis, xb) if j < ncols}
    # y was priced from the final basis, so y / det is the optimal dual vector
    return phi, tuple(Fraction(t, det) for t in y)


@lru_cache(maxsize=1)  # a matching query followed by a cover query on H solves once
def solve_fractional(H: KGraph) -> tuple[Fraction, FractionalAssignment, VertexWeights]:
    """Exact optimum fractional matching and cover from one solve, both verified.

    The matching is validated as a FractionalAssignment (loads at most 1),
    the cover as a fractional cover of H with weights in [0,1], and the two
    witness totals must be equal, which certifies optimality of both by weak
    duality. The last graph's result is kept, so asking again for the same
    graph returns the same witnesses without a second solve.
    """
    phi, duals = _solve_incidence_lp(H)
    assignment = FractionalAssignment(H, phi)  # validates loads <= 1 exactly
    value = assignment.value()
    cover = VertexWeights(duals)
    if not cover.is_cover_of(H):
        raise InternalContradictionError("extracted dual vector is not a fractional cover")
    if cover.total() != value:
        raise InternalContradictionError("cover total disagrees with the matching total")
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
    n, k = _check_shape(n, k)
    if n <= k:
        raise InvalidQueryError(f"need n > k, got n={n}, k={k}")
    wk = Fraction(1, k)
    phi = {window: wk for window in cyclic_windows(range(1, n + 1), k)}
    return FractionalAssignment(complete(n, k), phi)


def cyclic_windows(verts: Sequence[int], k: int) -> list[EdgeT]:
    """The cyclic windows of k consecutive entries of verts, sorted, by start entry."""
    [k] = _integers(k=k)
    if k < 1:
        raise InvalidQueryError(f"window size k must be >= 1, got {k}")
    nn = len(verts)
    if nn < k:
        raise InvalidQueryError(f"need at least k={k} vertices for a window, got {nn}")
    return [tuple(sorted(verts[(i + j) % nn] for j in range(k))) for i in range(nn)]


def weight_closure(n_total: int, k: int, w: VertexWeights) -> KGraph:
    """All k-sets of 1..n_total whose weights sum to at least 1, exactly."""
    n_total, k = _check_shape(n_total, k)
    if w.n != n_total:
        raise InvalidQueryError(f"weights cover {w.n} vertices, expected {n_total}")
    den, nums = _common_denominator(w.weights)
    # lexicographic: each (k-1)-head with the weight it still needs, then its last vertices
    heads = ((h, den - sum(map(nums.__getitem__, h))) for h in combinations(range(1, n_total), k - 1))
    heavy = [h + (v,) for h, need in heads for v in range(h[-1] + 1, n_total + 1) if nums[v] >= need]
    return KGraph._from_sorted(n_total, k, heavy)


def _weight_labels(weights: Sequence[Fraction]) -> tuple[int, ...]:
    """p with p[old_vertex - 1] = new label for the weights weights[old_vertex - 1],
    the labels sorted so that weights are non-increasing; ties keep index order."""
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))  # order[new - 1] = old - 1
    return tuple(1 + new for new in sorted(range(len(weights)), key=order.__getitem__))


def relabel_by_weights(H: KGraph, w: VertexWeights) -> tuple[KGraph, tuple[int, ...]]:
    """Rename vertices so weights are non-increasing; ties keep index order.

    Returns the relabeled graph and the permutation as a tuple p with
    p[old_vertex - 1] = new_label. After relabeling, the weight closure of
    the permuted weights is stable.
    """
    if w.n != H.n:
        raise InvalidQueryError(f"weights cover {w.n} vertices, expected {H.n}")
    label = (0, *_weight_labels(w.weights))
    edges = [tuple(sorted(map(label.__getitem__, e))) for e in H.edges]
    return KGraph._from_sorted(H.n, H.k, sorted(edges)), label[1:]


def permute_weights(w: VertexWeights, old_to_new: tuple[int, ...]) -> VertexWeights:
    """Weights seen through a relabeling p of 1..w.n: new vertex p[v-1] gets v's weight."""
    if len(old_to_new) != w.n or set(old_to_new) != set(range(1, w.n + 1)):
        raise InvalidQueryError(f"old_to_new must be a permutation of 1..{w.n}, got {old_to_new!r}")
    return VertexWeights(tuple(x for _, x in sorted(zip(old_to_new, w.weights))))
