"""Generators for the extremal families and the closed-form vertex-degree threshold.

All threshold arithmetic is exact (Python integers / Fractions); no floats
appear in any formula. W is always the set of lowest-indexed vertices.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from numbers import Real
from operator import index

from .core import KGraph, _check_shape, _integers
from .errors import InvalidQueryError, SamplingExhaustedError


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint (U, W) covering 1..n; in threshold contexts |W| = m - 1."""

    U: tuple[int, ...]
    W: tuple[int, ...]

    def __post_init__(self):
        try:
            u, w = set(map(index, self.U)), set(map(index, self.W))
        except TypeError as ex:
            raise InvalidQueryError(f"partition vertices must be integers ({ex})") from None
        if u & w:
            raise InvalidQueryError("U and W overlap")
        n = len(u) + len(w)
        if u | w != set(range(1, n + 1)):
            raise InvalidQueryError("U and W must partition 1..n")
        object.__setattr__(self, "U", tuple(sorted(u)))
        object.__setattr__(self, "W", tuple(sorted(w)))

    @property
    def n(self) -> int:
        return len(self.U) + len(self.W)


def build_Hkl(U, W, k: int, l: int) -> KGraph:
    """The template whose edges are the k-sets e with 1 <= |e & W| <= l."""
    k, l = _integers(k=k, l=l)
    if not 1 <= l <= k:
        raise InvalidQueryError(f"need 1 <= l <= k, got l={l}, k={k}")
    part = VertexPartition(tuple(U), tuple(W))
    edges = []
    for j in range(1, min(l, len(part.W)) + 1):
        for ws in combinations(part.W, j):
            for us in combinations(part.U, k - j):
                edges.append(tuple(sorted(ws + us)))
    return KGraph._from_sorted(part.n, k, sorted(edges))


def template_edge_count(u_size: int, w_size: int, k: int, l: int) -> int:
    """e(H_{k,l}(U, W)) in closed form, without materializing the graph."""
    return sum(comb(w_size, j) * comb(u_size, k - j) for j in range(1, min(l, w_size, k) + 1))


def build_Hknm(n: int, k: int, m: int) -> tuple[KGraph, VertexPartition]:
    """The tight example for the vertex-degree threshold: W = {1..m-1}, l = k-1.

    Its minimum vertex degree equals vertex_degree_threshold(n, k, m) and its
    maximum matching has exactly m - 1 edges.
    """
    n, k = _check_shape(n, k)
    [m] = _integers(m=m)
    if m < 1 or m - 1 + k > n:
        raise InvalidQueryError(f"need m >= 1 and m-1+k <= n, got n={n}, k={k}, m={m}")
    W = tuple(range(1, m))
    U = tuple(range(m, n + 1))
    return build_Hkl(U, W, k, k - 1), VertexPartition(U, W)


def complete(n: int, k: int) -> KGraph:
    """The complete k-graph on n vertices, built as its (e, k) edge array.

    Level j holds the j-sets of {k-j+1, ..., n} in lexicographic order.
    Those starting at a are a followed by the (j-1)-sets of {a+1, ..., n},
    which are the last C(n-a, j-1) rows of level j-1.
    """
    import numpy as np

    n, k = _check_shape(n, k)
    if n < k:
        raise InvalidQueryError(f"need n >= k, got n={n}, k={k}")
    arr = np.arange(k, n + 1, dtype=np.int32).reshape(-1, 1)
    for j in range(2, k + 1):
        lo = k - j + 1
        level = np.empty((comb(n - lo + 1, j), j), np.int32)
        row = 0
        for a in range(lo, n - j + 2):
            c = comb(n - a, j - 1)
            level[row : row + c, 0] = a
            level[row : row + c, 1:] = arr[len(arr) - c :]
            row += c
        arr = level
    return KGraph._from_array(n, k, arr)


def join_clique(H: KGraph, r: int) -> KGraph:
    """H plus a clique on r new vertices Q = {n+1..n+r} plus every k-set meeting Q.

    Its matching number is min(nu(H) + r, floor((n + r)/k)). r = 0 returns H
    unchanged (degenerate join, accepted by design). The join records
    `_top_split = (r, H)`; the exact LP prices the k-sets meeting Q from it.
    """
    [r] = _integers(r=r)
    if r < 0:
        raise InvalidQueryError(f"need r >= 0, got {r}")
    if r == 0:
        return H
    n, k = H.n, H.k
    edges = list(H.edges)
    Q = range(n + 1, n + r + 1)
    base = range(1, n + 1)
    for j in range(1, min(k, r) + 1):
        for qs in combinations(Q, j):
            for vs in combinations(base, k - j):
                edges.append(vs + qs)
    joined = KGraph._from_sorted(n + r, k, sorted(edges))
    object.__setattr__(joined, "_top_split", (r, H))
    return joined


def parity_construction(a: int, b: int, k: int) -> KGraph:
    """k-sets of A + B (A = {1..a}, B = {a+1..a+b}) meeting A in an even count.

    The intended obstruction has a odd and |a - b| <= 2; other parameters are
    accepted with a warning.
    """
    a, b = _integers(a=a, b=b)
    n, k = _check_shape(a + b, k)
    if a < 0 or b < 0 or n < k:
        raise InvalidQueryError(f"need a, b >= 0 and a+b >= k, got a={a}, b={b}, k={k}")
    if a % 2 == 0 or abs(a - b) > 2:
        warnings.warn(
            f"parity construction intended for odd a with |a-b| <= 2, got a={a}, b={b}",
            stacklevel=2,
        )
    edges = [e for e in combinations(range(1, n + 1), k) if sum(1 for v in e if v <= a) % 2 == 0]
    return KGraph._from_sorted(n, k, edges)


def space_barrier(n: int, k: int) -> KGraph:
    """Complete k-graph minus all edges inside {1..n-n/k+1}; requires k | n.

    That is the template H_{k,k}(U, W) with W the top n/k - 1 vertices.
    """
    n, k = _check_shape(n, k)
    if n % k != 0:
        raise InvalidQueryError(f"need k | n, got n={n}, k={k}")
    cutoff = min(n, n - n // k + 1)  # n = 0 has no W and no U
    return build_Hkl(range(1, cutoff + 1), range(cutoff + 1, n + 1), k, k)


def vertex_degree_threshold(n: int, k: int, m: int) -> int:
    """C(n-1, k-1) - C(n-m, k-1), the tight minimum-vertex-degree bound."""
    n, k = _check_shape(n, k)
    [m] = _integers(m=m)
    if m < 1 or n < m + k - 1:
        raise InvalidQueryError(f"need m >= 1 and n >= m+k-1, got n={n}, k={k}, m={m}")
    return comb(n - 1, k - 1) - comb(n - m, k - 1)


_TWO53 = 2**53


def _probability(p):
    """p itself, once 0 <= p <= 1 is checked."""
    if not (isinstance(p, Real) and 0 <= p <= 1):
        raise InvalidQueryError(f"need 0 <= p <= 1, got {p}")
    return p


def _draw_threshold(p) -> float:
    """The float T such that rng.random() < T exactly when rng.random() < p.

    random() returns a / 2**53 for an integer a, and a < p * 2**53 holds
    exactly when a < ceil(p * 2**53). That ceiling over 2**53 is a float
    with no rounding, and a float compare is far cheaper than comparing a
    float with a Fraction. The ceiling is taken in integers. Callers check
    0 <= p <= 1 first.
    """
    f = Fraction(p)
    return -(-(f.numerator << 53) // f.denominator) / _TWO53


def random_kgraph(n: int, k: int, p, seed: int) -> KGraph:
    """Each k-set included independently with probability p; seed-deterministic."""
    n, k = _check_shape(n, k)
    t = _draw_threshold(_probability(p))
    draw = random.Random(seed).random
    edges = [e for e in combinations(range(1, n + 1), k) if draw() < t]
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
    threshold; a p given outside [0, 1] raises InvalidQueryError. Raises
    SamplingExhaustedError when tries run out.
    """
    if _integers(tries=tries)[0] < 0:
        raise InvalidQueryError(f"need tries >= 0, got {tries}")
    floor = vertex_degree_threshold(n, k, m) + 1
    if p is None:
        full = comb(n - 1, k - 1)  # >= 1: the threshold needs n >= m + k - 1 >= k
        p = Fraction(min(3 * floor, 2 * full), 2 * full)
    else:
        p = _probability(p)
    t = _draw_threshold(p)
    draw = random.Random(seed).random
    all_sets = list(combinations(range(1, n + 1), k))
    for _ in range(tries):
        H = KGraph._from_sorted(n, k, [e for e in all_sets if draw() < t])
        if min(H._vertex_degrees[1:]) >= floor:
            return H
    raise SamplingExhaustedError(
        f"no sample with min degree >= {floor} in {tries} tries (n={n}, k={k}, p={p})"
    )
