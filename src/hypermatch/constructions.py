"""Generators for the extremal families and the closed-form degree thresholds.

All threshold arithmetic is exact (Python integers / Fractions); no floats
appear in any formula. W is always the set of lowest-indexed vertices.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, factorial

from .core import KGraph
from .errors import InvalidQueryError, SamplingExhaustedError


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint (U, W) covering 1..n; in threshold contexts |W| = m - 1."""

    U: tuple[int, ...]
    W: tuple[int, ...]

    def __post_init__(self):
        u, w = set(self.U), set(self.W)
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


def beta_upper_bound(k: int) -> Fraction:
    """Upper bound 1 / (3^k * 2k^5 * k!)^4 on the admissible range parameter."""
    return Fraction(1, (3**k * 2 * k**5 * factorial(k)) ** 4)


@dataclass(frozen=True)
class ThresholdSpec:
    """Parameters (n, k, m) with the two exact degree thresholds derived.

    The optional rational fields hold the non-explicit bound parameters; a
    beta at or above its admissible upper bound only warns, since the true
    constant is not known explicitly.
    """

    n: int
    k: int
    m: int
    beta: Fraction | None = None
    rho: Fraction | None = None
    eps: Fraction | None = None

    def __post_init__(self):
        if not (1 <= self.m and self.m * self.k <= self.n):
            raise InvalidQueryError(f"need 1 <= m <= n/k, got m={self.m}, n={self.n}, k={self.k}")
        if self.beta is not None and self.beta >= beta_upper_bound(self.k):
            warnings.warn(
                f"beta={self.beta} is at or above the admissible upper bound "
                f"{beta_upper_bound(self.k)} for k={self.k}",
                stacklevel=2,
            )

    @property
    def vertex_degree_threshold(self) -> int:
        return vertex_degree_threshold(self.n, self.k, self.m)

    @property
    def erdos_threshold(self) -> int:
        return erdos_threshold(self.n, self.k, self.m)


def build_Hkl(U, W, k: int, l: int) -> KGraph:
    """The template whose edges are the k-sets e with 1 <= |e & W| <= l."""
    if not 1 <= l <= k:
        raise InvalidQueryError(f"need 1 <= l <= k, got l={l}, k={k}")
    part = VertexPartition(tuple(U), tuple(W))
    edges = []
    for j in range(1, min(l, len(part.W), k) + 1):
        if k - j > len(part.U):
            continue
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
    if m < 1 or m - 1 + k > n:
        raise InvalidQueryError(f"need m >= 1 and m-1+k <= n, got n={n}, k={k}, m={m}")
    W = tuple(range(1, m))
    U = tuple(range(m, n + 1))
    if m == 1:
        return KGraph(n, k, []), VertexPartition(U, W)
    return build_Hkl(U, W, k, k - 1), VertexPartition(U, W)


def complete(n: int, k: int) -> KGraph:
    """The complete k-graph on n vertices, built as its (e, k) edge array.

    Level j holds the j-sets of {k-j+1, ..., n} in lexicographic order.
    Those starting at a are a followed by the (j-1)-sets of {a+1, ..., n},
    which are the last C(n-a, j-1) rows of level j-1.
    """
    import numpy as np

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

    r = 0 returns H unchanged (degenerate join, accepted by design).
    """
    if r < 0:
        raise InvalidQueryError(f"need r >= 0, got {r}")
    if r == 0:
        return H
    n, k = H.n, H.k
    edges = list(H.edges)
    Q = range(n + 1, n + r + 1)
    base = range(1, n + 1)
    for j in range(1, min(k, r) + 1):
        if k - j > n:
            continue
        for qs in combinations(Q, j):
            for vs in combinations(base, k - j):
                edges.append(vs + qs)
    return KGraph._from_sorted(n + r, k, sorted(edges))


def parity_construction(a: int, b: int, k: int) -> KGraph:
    """k-sets of A + B (A = {1..a}, B = {a+1..a+b}) meeting A in an even count.

    The intended obstruction has a odd and |a - b| <= 2; other parameters are
    accepted with a warning.
    """
    n = a + b
    if n < k:
        raise InvalidQueryError(f"need a+b >= k, got a={a}, b={b}, k={k}")
    if a % 2 == 0 or abs(a - b) > 2:
        warnings.warn(
            f"parity construction intended for odd a with |a-b| <= 2, got a={a}, b={b}",
            stacklevel=2,
        )
    edges = [e for e in combinations(range(1, n + 1), k) if sum(1 for v in e if v <= a) % 2 == 0]
    return KGraph._from_sorted(n, k, edges)


def space_barrier(n: int, k: int) -> KGraph:
    """Complete k-graph minus all edges inside {1..n-n/k+1}; requires k | n."""
    if n % k != 0:
        raise InvalidQueryError(f"need k | n, got n={n}, k={k}")
    cutoff = n - n // k + 1
    edges = [e for e in combinations(range(1, n + 1), k) if e[-1] > cutoff]
    return KGraph._from_sorted(n, k, edges)


def vertex_degree_threshold(n: int, k: int, m: int) -> int:
    """C(n-1, k-1) - C(n-m, k-1), the tight minimum-vertex-degree bound."""
    if m < 1 or n < m + k - 1:
        raise InvalidQueryError(f"need m >= 1 and n >= m+k-1, got n={n}, k={k}, m={m}")
    return comb(n - 1, k - 1) - comb(n - m, k - 1)


def erdos_threshold(n: int, k: int, m: int) -> int:
    """max{C(km-1, k), C(n, k) - C(n-m+1, k)} + 1, the edge-count threshold."""
    if m < 1 or k * m > n:
        raise InvalidQueryError(f"need 1 <= m and km <= n, got n={n}, k={k}, m={m}")
    return max(comb(k * m - 1, k), comb(n, k) - comb(n - m + 1, k)) + 1


def l_degree_conjectured_fraction(k: int, l: int) -> Fraction:
    """max{1/2, 1 - (1 - 1/k)^(k-l)} as an exact rational."""
    if not 1 <= l < k:
        raise InvalidQueryError(f"need 1 <= l < k, got l={l}, k={k}")
    return max(Fraction(1, 2), 1 - (1 - Fraction(1, k)) ** (k - l))


_TWO53 = 2**53


def _draw_threshold(p) -> float:
    """The float T such that rng.random() < T exactly when rng.random() < p.

    random() returns a / 2**53 for an integer a, and a < p * 2**53 holds
    exactly when a < ceil(p * 2**53). That ceiling over 2**53 is a float
    with no rounding, and a float compare is far cheaper than comparing a
    float with a Fraction. Callers check 0 <= p <= 1 first.
    """
    return ceil(Fraction(p) * _TWO53) / _TWO53


def random_kgraph(n: int, k: int, p, seed: int) -> KGraph:
    """Each k-set included independently with probability p; seed-deterministic."""
    if not 0 <= p <= 1:
        raise InvalidQueryError(f"need 0 <= p <= 1, got {p}")
    draw, t = random.Random(seed).random, _draw_threshold(p)
    edges = [e for e in combinations(range(1, n + 1), k) if draw() < t]
    return KGraph._from_sorted(n, k, edges)


def random_kgraph_conditioned(
    n: int,
    k: int,
    m: int,
    floor: int | None = None,
    tries: int = 1000,
    seed: int = 0,
    p=None,
) -> KGraph:
    """Rejection-sample random k-graphs until the minimum vertex degree is >= floor.

    floor defaults to vertex_degree_threshold(n, k, m) + 1, so accepted graphs
    strictly exceed the threshold. p defaults to min(1, 3*floor / (2*C(n-1,k-1))),
    which keeps the acceptance rate workable near the threshold; a p given
    outside [0, 1] raises InvalidQueryError. Raises SamplingExhaustedError
    when tries run out.
    """
    if floor is None:
        floor = vertex_degree_threshold(n, k, m) + 1
    if p is None:
        full = comb(n - 1, k - 1)
        p = min(Fraction(1), Fraction(3 * floor, 2 * full)) if full else Fraction(1)
    elif not 0 <= p <= 1:
        raise InvalidQueryError(f"need 0 <= p <= 1, got {p}")
    draw, t = random.Random(seed).random, _draw_threshold(p)
    all_sets = list(combinations(range(1, n + 1), k))
    for _ in range(tries):
        edges = [e for e in all_sets if draw() < t]
        degs = [0] * (n + 1)
        for e in edges:
            for v in e:
                degs[v] += 1
        if min(degs[1:]) >= floor:
            return KGraph._from_sorted(n, k, edges)
    raise SamplingExhaustedError(
        f"no sample with min degree >= {floor} in {tries} tries (n={n}, k={k}, p={p})"
    )
