"""Template-containment distance, good/bad vertex classification, and the
subset edge-density check.

All comparisons against eps * n^k and theta * n^(k-1) use exact rationals;
n^k is computed in arbitrary precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb

from .constructions import VertexPartition, template_edge_count, vertex_degree_threshold
from .core import KGraph, node_budget
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


def _template_member(e, w_set, l: int) -> bool:
    c = sum(1 for v in e if v in w_set)
    return 1 <= c <= l


def _check_template(H: KGraph, P: VertexPartition, l: int) -> None:
    if P.n != H.n:
        raise InvalidQueryError(f"partition covers {P.n} vertices, graph has {H.n}")
    if not 1 <= l <= H.k:
        raise InvalidQueryError(f"need 1 <= l <= k={H.k}, got l={l}")


def deficiency(H: KGraph, P: VertexPartition, l: int) -> int:
    """Exact number of template edges missing from H, for the partition P.

    Counts by strata of |e & W|, so the template is never materialized:
    total template edges minus the edges of H that are template members.
    """
    _check_template(H, P, l)
    w_set = set(P.W)
    total = template_edge_count(len(P.U), len(P.W), H.k, l)
    present = sum(1 for e in H.edges if _template_member(e, w_set, l))
    return total - present


def _partition_for_w(n: int, W) -> VertexPartition:
    ws = set(W)
    return VertexPartition(tuple(v for v in range(1, n + 1) if v not in ws), tuple(ws))


def eps_contains(H: KGraph, m: int, eps, mode: str = "auto") -> ContainmentReport:
    """Minimum template deficiency over partitions with |W| = m - 1.

    Exhaustive over all C(n, m-1) choices of W, or greedy seeding (the m-1
    highest-degree vertices) followed by first-improving swap local search.
    Mode "auto" is exhaustive while C(n, m-1) is within both the subset cap
    and node_budget(); mode "exhaustive" raises BudgetExceededError, before
    any subset is examined, when C(n, m-1) exceeds node_budget(). The report
    labels which mode ran; satisfied means min deficiency <= eps * n^k.
    """
    if m < 1:
        raise InvalidQueryError(f"need m >= 1, got {m}")
    if m - 1 > H.n:
        raise InvalidQueryError(f"|W| = m-1 = {m - 1} exceeds n = {H.n}")
    if mode not in ("auto", "exhaustive", "local"):
        raise InvalidQueryError(f"unknown mode {mode!r}")
    eps = Fraction(eps)
    n, k = H.n, H.k
    bound = eps * Fraction(n) ** k
    subsets, budget = comb(n, m - 1), node_budget()

    if mode == "auto":
        mode = "exhaustive" if subsets <= min(EXHAUSTIVE_SUBSET_BUDGET, budget) else "local"

    if mode == "exhaustive":
        if subsets > budget:
            raise BudgetExceededError(f"exhaustive containment needs {subsets} subsets", nodes=0)
        best_W = None
        best_def = None
        for W in combinations(range(1, n + 1), m - 1):
            d = deficiency(H, _partition_for_w(n, W), k - 1)
            if best_def is None or d < best_def:
                best_def, best_W = d, W
        part = _partition_for_w(n, best_W)
        return ContainmentReport(part, best_def, bound, best_def <= bound, "exhaustive", eps)

    # greedy seed: highest degree first, ties by lowest index
    degs = sorted(H.vertices(), key=lambda v: (-len(H.vertex_edges[v - 1]), v))
    W = set(degs[: m - 1])
    cur = deficiency(H, _partition_for_w(n, W), k - 1)
    improved = True
    while improved:
        improved = False
        for u in sorted(set(H.vertices()) - W):
            for w in sorted(W):
                cand = (W - {w}) | {u}
                d = deficiency(H, _partition_for_w(n, cand), k - 1)
                if d < cur:
                    W, cur = cand, d
                    improved = True
                    break
            if improved:
                break
    part = _partition_for_w(n, W)
    return ContainmentReport(part, cur, bound, cur <= bound, "local-search", eps)


def vertex_template_deficits(H: KGraph, P: VertexPartition, l: int) -> dict[int, int]:
    """Per-vertex count of template neighborhoods missing from H.

    For each vertex v, the number of (k-1)-sets S with S + {v} a template
    edge but not an edge of H. Missing template edges are counted once per
    endpoint, so the deficits sum to exactly k times the deficiency.
    """
    _check_template(H, P, l)
    w_set = set(P.W)
    k = H.k
    u_size, w_size = len(P.U), len(P.W)
    lcap = min(l, w_size)

    def template_degree(v: int) -> int:
        if v in w_set:
            return sum(
                comb(w_size - 1, j - 1) * comb(u_size, k - j) for j in range(1, lcap + 1)
            )
        return sum(comb(w_size, j) * comb(u_size - 1, k - 1 - j) for j in range(1, lcap + 1))

    present = {v: 0 for v in H.vertices()}
    for e in H.edges:
        if _template_member(e, w_set, l):
            for v in e:
                present[v] += 1
    return {v: template_degree(v) - present[v] for v in H.vertices()}


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


@dataclass(frozen=True)
class DensityViolation:
    subset: tuple[int, ...]
    edge_count: int


@dataclass(frozen=True)
class DensityReport:
    """Subsets of the required size whose induced edge count is too small.

    A violating subset is evidence for containment (the density conclusion
    fails only when the graph sits close to the template), provided the
    degree hypothesis holds; this report just lists the facts.
    """

    subset_size: int
    density_bound: Fraction  # eps * n^k / (2 k^2)
    violations: tuple[DensityViolation, ...]
    mode: str  # "exhaustive" or "sampled"
    checked: int
    parameter_flags: tuple[str, ...]


def subset_density_check(
    H: KGraph,
    m: int,
    eps,
    samples: int,
    seed: int,
    rho=None,
) -> DensityReport:
    """Test e(H[S]) >= eps * n^k / (2 k^2) over large vertex subsets.

    Subsets of size ceil((1 - m/n - eps/7) * n) are the binding case: the
    bound is constant while induced edge counts only grow with the subset,
    so checking the minimum size covers all larger sizes. Exhaustive when
    the number of such subsets is within the budget and samples > 0 is not
    forcing sampling; otherwise samples random subsets. Out-of-range
    parameters are flagged in the report, not rejected.
    """
    eps = Fraction(eps)
    n, k = H.n, H.k
    flags = []
    if not 0 < eps < Fraction(1, k):
        flags.append(f"eps={eps} outside (0, 1/k)")
    if not n <= 2 * k**4 * m:
        flags.append(f"m={m} below n/(2k^4)")
    if not k * m < n:
        flags.append(f"m={m} not below n/k")
    if rho is not None:
        rho = Fraction(rho)
        if not 0 < rho < eps / 12:
            flags.append(f"rho={rho} outside (0, eps/12)")
        from .core import min_l_degree

        if min_l_degree(H, 1) < vertex_degree_threshold(n, k, m) - rho * Fraction(n) ** (k - 1):
            flags.append("degree hypothesis fails at the given rho")

    size = ceil((1 - Fraction(m, n) - eps / 7) * n)
    size = max(0, min(n, size))
    dbound = eps * Fraction(n) ** k / (2 * k**2)

    def count_inside(subset) -> int:
        smask = 0
        for v in subset:
            smask |= 1 << v
        return sum(1 for em in H.edge_masks if em & smask == em)

    violations = []
    if samples == 0:
        return DensityReport(size, dbound, (), "sampled", 0, tuple(flags))
    if comb(n, size) <= EXHAUSTIVE_SUBSET_BUDGET:
        mode = "exhaustive"
        checked = 0
        for S in combinations(range(1, n + 1), size):
            checked += 1
            c = count_inside(S)
            if c < dbound:
                violations.append(DensityViolation(S, c))
    else:
        mode = "sampled"
        rng = random.Random(seed)
        checked = samples
        pool = list(range(1, n + 1))
        for _ in range(samples):
            S = tuple(sorted(rng.sample(pool, size)))
            c = count_inside(S)
            if c < dbound:
                violations.append(DensityViolation(S, c))
    return DensityReport(size, dbound, tuple(violations), mode, checked, tuple(flags))
