"""Template-containment distance and good/bad vertex classification.

The template H_{k,l}(U, W) is the k-sets e with 1 <= |e & W| <= l. Its
membership test is made once, on vertex masks, in _template_edges; its edge
and vertex-degree counts come from template_edge_count, so the template is
never materialized. All comparisons against eps * n^k and theta * n^(k-1)
use exact rationals; n^k is computed in arbitrary precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .constructions import VertexPartition, template_edge_count
from .core import EdgeT, KGraph, _integers, _mask, _unit_interval, node_budget
from .errors import BudgetExceededError, InvalidQueryError

EXHAUSTIVE_SUBSET_BUDGET = 10**6


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of a containment search for one graph and one target m."""

    partition: VertexPartition
    deficiency: int
    epsilon_bound: Fraction  # eps * n^k, the comparison bound
    satisfied: bool
    search_mode: str  # "exhaustive" or "local-search"
    eps: Fraction


def _template_edges(H: KGraph, W, l: int) -> list[EdgeT]:
    """The edges e of H with 1 <= |e & W| <= l, in edge order."""
    wm = _mask(W)
    return [e for e, em in zip(H.edges, H.edge_masks) if 0 < (em & wm).bit_count() <= l]


def _check_template(H: KGraph, P: VertexPartition, l: int) -> None:
    if P.n != H.n:
        raise InvalidQueryError(f"partition covers {P.n} vertices, graph has {H.n}")
    if not 1 <= l <= H.k:
        raise InvalidQueryError(f"need 1 <= l <= k={H.k}, got l={l}")


def deficiency(H: KGraph, P: VertexPartition, l: int) -> int:
    """Exact number of template edges missing from H, for the partition P:
    total template edges minus the edges of H that are template members."""
    _check_template(H, P, l)
    return template_edge_count(len(P.U), len(P.W), H.k, l) - len(_template_edges(H, P.W, l))


def eps_contains(H: KGraph, m: int, eps, mode: str = "auto") -> ContainmentReport:
    """Minimum template deficiency over partitions with |W| = m - 1.

    Exhaustive over all C(n, m-1) choices of W, or greedy seeding (the m-1
    highest-degree vertices) followed by first-improving swap local search.
    Mode "auto" is exhaustive while C(n, m-1) is within both the subset cap
    and node_budget(); mode "exhaustive" raises BudgetExceededError, before
    any subset is examined, when C(n, m-1) exceeds node_budget(). The report
    labels which mode ran; satisfied means min deficiency <= eps * n^k, for a
    real eps in [0, 1].
    """
    [m] = _integers(m=m)
    if m < 1:
        raise InvalidQueryError(f"need m >= 1, got {m}")
    if m - 1 > H.n:
        raise InvalidQueryError(f"|W| = m-1 = {m - 1} exceeds n = {H.n}")
    if mode not in ("auto", "exhaustive", "local"):
        raise InvalidQueryError(f"unknown mode {mode!r}")
    eps = Fraction(_unit_interval("eps", eps))
    n, k = H.n, H.k
    bound = eps * Fraction(n) ** k
    subsets, budget = comb(n, m - 1), node_budget()
    # every candidate W has m - 1 vertices, so the template size is one constant
    size = template_edge_count(n - m + 1, m - 1, k, k - 1)

    def score(W) -> int:
        return size - len(_template_edges(H, W, k - 1))

    if mode == "auto":
        mode = "exhaustive" if subsets <= min(EXHAUSTIVE_SUBSET_BUDGET, budget) else "local"

    if mode == "exhaustive":
        if subsets > budget:
            raise BudgetExceededError(f"exhaustive containment needs {subsets} subsets", nodes=0)
        # ties go to the first W in lexicographic order, the order of combinations
        cur, W = min((score(W), W) for W in combinations(range(1, n + 1), m - 1))
    else:
        # greedy seed: highest degree first, ties by lowest index
        deg = H._vertex_degrees
        W = set(sorted(H.vertices(), key=lambda v: (-deg[v], v))[: m - 1])
        cur = score(W)
        while True:
            for u, w in product(sorted(set(H.vertices()) - W), sorted(W)):
                cand = (W - {w}) | {u}
                d = score(cand)
                if d < cur:
                    W, cur = cand, d
                    break
            else:
                break
        mode = "local-search"
    P = VertexPartition(tuple(set(H.vertices()) - set(W)), tuple(W))
    return ContainmentReport(P, cur, bound, cur <= bound, mode, eps)


def vertex_template_deficits(H: KGraph, P: VertexPartition, l: int) -> dict[int, int]:
    """Per-vertex count of template neighborhoods missing from H.

    For each vertex v, the number of (k-1)-sets S with S + {v} a template
    edge but not an edge of H. Missing template edges are counted once per
    endpoint, so the deficits sum to exactly k times the deficiency.
    """
    _check_template(H, P, l)
    k, u, w = H.k, len(P.U), len(P.W)
    # a vertex's template degree: the template minus its part on the other
    # n - 1 vertices (U - v or W - v only when that side is nonempty)
    total = template_edge_count(u, w, k, l)
    in_w = total - template_edge_count(u, w - 1, k, l) if w else 0
    in_u = total - template_edge_count(u - 1, w, k, l) if u else 0
    present = [0] * (H.n + 1)
    for e in _template_edges(H, P.W, l):
        for v in e:
            present[v] += 1
    w_set = set(P.W)
    return {v: (in_w if v in w_set else in_u) - present[v] for v in H.vertices()}


def classify_good_bad(
    H: KGraph, P: VertexPartition, l: int, theta
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split vertices by template-neighborhood deficit against theta * n^(k-1).

    Supported l values are k-1 and k-2 relative to the uniformity of H (the
    two template shapes the classification is used with); other l values are
    deliberately not offered.
    """
    if l not in (H.k - 1, H.k - 2) or l < 1:
        raise InvalidQueryError(f"classification supports l in {{k-2, k-1}}, got l={l}, k={H.k}")
    theta = Fraction(theta)
    bound = theta * Fraction(H.n) ** (H.k - 1)
    deficits = vertex_template_deficits(H, P, l)
    good = tuple(v for v in H.vertices() if deficits[v] <= bound)
    bad = tuple(v for v in H.vertices() if deficits[v] > bound)
    return good, bad
