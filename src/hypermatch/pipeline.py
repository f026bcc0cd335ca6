"""Constructive route to a perfect fractional matching of the weight closure.

Given H, a target matching size m and a clique size r, the pipeline joins a
complete graph on r fresh vertices, takes an exact minimum fractional cover,
sorts the original vertices by weight, builds the weight-closure hypergraph,
certifies three structural facts about it (stable link, complete low-index
block, downward neighborhood transfer), extracts an integral matching of
size m, completes it to a perfect matching through the clique, and splices a
cyclic-window fractional matching over the residue class. The result is
verified feasible and perfect, and its value is cross-checked against the
exact fractional optimum of the augmented graph, certified by the cover
step's own primal and dual witnesses.

Also: the eta-padded augmentation rule, the first-round vertex sampler with
its concentration checks, and the Chernoff tail bounds used to set test
bands.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import ceil, comb
from .constructions import VertexPartition, join_clique
from .containment import deficiency, vertex_template_deficits
from .core import (
    EdgeT,
    KGraph,
    Matching,
    independence_number,
    induced,
    is_stable,
    link,
    min_l_degree,
    verify_matching,
)
from .errors import (
    InfeasibleAugmentationError,
    InternalContradictionError,
    InvalidQueryError,
    StepFailureError,
)
from .lp import (
    FractionalAssignment,
    VertexWeights,
    permute_weights,
    relabel_by_weights,
    solve_fractional,
    weight_closure,
)
from .matching import exact_nu


# asymptotic shape of the first-round vertex sampler: keep probability
# n^(-P_EXPONENT) and ceil(n^COPY_EXPONENT) copies
P_EXPONENT = Fraction(9, 10)
COPY_EXPONENT = Fraction(11, 10)


@dataclass(frozen=True)
class SamplerSettings:
    """Vertex-sampler settings. keep_probability and copy_count default to
    the asymptotic shape n^(-P_EXPONENT) and ceil(n^COPY_EXPONENT), which
    only produces meaningful copies at astronomical n, so desk-scale callers
    set them directly; seed fixes the copies.
    """

    keep_probability: Fraction | float | None = None
    copy_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.keep_probability is not None and not 0 <= self.keep_probability <= 1:
            raise InvalidQueryError("keep_probability must be in [0,1]")
        if self.copy_count is not None and self.copy_count < 0:
            raise InvalidQueryError("copy_count must be nonnegative")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the constructive route.

    eta is the padding fraction of the augmentation rule; rho the degree
    slack; eps the containment scale.
    """

    eta: Fraction = Fraction(1, 10)
    rho: Fraction = Fraction(1, 10000)
    eps: Fraction = Fraction(1, 10)

    def __post_init__(self):
        if self.eta <= 0:
            raise InvalidQueryError(f"eta must be positive, got {self.eta}")
        if not 0 < self.eps < 1:
            raise InvalidQueryError(f"eps must be in (0,1), got {self.eps}")
        if self.rho < 0:
            raise InvalidQueryError(f"rho must be nonnegative, got {self.rho}")


def build_augmented(H: KGraph, m: int, eta) -> tuple[KGraph, int]:
    """Join a clique of r = ceil((n - km - eta*n)/(k-1)) fresh vertices.

    Raises InfeasibleAugmentationError when n - km - eta*n < 0. The rounding
    residual r(k-1) - (n - km - eta*n) is available via
    augmentation_residual. With this rounding rule the clique-size
    hypothesis (r-k)(k-1) >= n-km never holds, so when eta*n >= k(k-1) it
    warns rather than aborts (see the pipeline's precondition report for
    the enforced form).
    """
    eta = Fraction(eta)
    n, k = H.n, H.k
    slack = Fraction(n - k * m) - eta * n
    if slack < 0:
        raise InfeasibleAugmentationError(
            f"n - km - eta*n = {slack} < 0 (n={n}, k={k}, m={m}, eta={eta})"
        )
    r = ceil(slack / (k - 1))
    if eta * n >= k * (k - 1):
        warnings.warn(
            f"clique-size hypothesis (r-k)(k-1) >= n-km fails at r={r} "
            f"(n={n}, k={k}, m={m}, eta={eta})",
            stacklevel=2,
        )
    return join_clique(H, r), r


def augmentation_residual(n: int, k: int, m: int, eta, r: int) -> Fraction:
    """How far the rounded clique size overshoots the exact padding rule."""
    return r * (k - 1) - (Fraction(n - k * m) - Fraction(eta) * n)


def minimal_feasible_r(n: int, k: int, m: int) -> int:
    """Smallest r with (r-k)(k-1) >= n-km, the clique-completion hypothesis."""
    return k + max(0, ceil(Fraction(n - k * m, k - 1)))


@dataclass
class TraceStep:
    name: str
    status: str  # "ok" | "failed" | "skipped"
    seconds: float
    details: dict

    def record(self) -> dict:
        return {"step": self.name, "status": self.status, **_plain(self.details)}


def _plain(v):
    """JSON-ready copy: Fractions as "p/q", tuples as lists, dict keys sorted."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


@dataclass
class PipelineTrace:
    n: int
    k: int
    m: int
    r: int
    s: int
    steps: list[TraceStep] = field(default_factory=list)
    preconditions: dict = field(default_factory=dict)
    route_used: str | None = None
    value: Fraction | None = None
    relabel_old_to_new: tuple[int, ...] = ()
    constants: dict = field(default_factory=dict)

    def step(self, name: str) -> _Step:
        """Start timing a step; use as ``with trace.step(name) as st:``."""
        return _Step(self, name)

    def records(self) -> list[dict]:
        head = {
            "step": "summary",
            "status": "ok" if self.value is not None else "incomplete",
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "r": self.r,
            "s": self.s,
            "route": self.route_used,
            "value": _plain(self.value),
            "preconditions": _plain(self.preconditions),
            "constants": _plain(self.constants),
        }
        return [head] + [st.record() for st in self.steps]


class _Step:
    """A pipeline step in progress, timed from its creation.

    The block may set name, status and details. The step is appended to the
    trace when the block ends without an exception; fail and contradict
    append it as failed, with only the message and the given details (under
    the name ``step`` if given), and raise with the trace attached.
    """

    def __init__(self, trace: PipelineTrace, name: str):
        self.trace = trace
        self.name = name
        self.status = "ok"
        self.details: dict = {}
        self.t0 = time.perf_counter()

    def __enter__(self) -> _Step:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._end()

    def _end(self) -> None:
        seconds = time.perf_counter() - self.t0
        self.trace.steps.append(TraceStep(self.name, self.status, seconds, self.details))

    def _end_with(self, message: str, step: str | None, details: dict) -> None:
        self.name = step or self.name
        self.status = "failed"
        self.details = {"message": message, **details}
        self._end()

    def fail(self, message: str, step: str | None = None, **details):
        """Append the step as failed and raise StepFailureError."""
        self._end_with(message, step, details)
        raise StepFailureError(message, trace=self.trace)

    def contradict(self, message: str, step: str | None = None, **details):
        """Append the step as failed and raise InternalContradictionError."""
        self._end_with(message, step, details)
        raise InternalContradictionError(message, check=self.name, trace=self.trace)


def _complete_block_size(m: int, eps: Fraction, n: int) -> int:
    return m + ceil(eps * n)


def check_pipeline_preconditions(
    H: KGraph, m: int, r: int, cfg: PipelineConfig, check_alpha: bool = True
) -> dict:
    """Report (never enforce) the hypotheses of the constructive route.

    The independence margin is checked in the integer form
    alpha(H) < n - m - ceil(eps*n), which is what the complete-block
    certificate needs at finite n. Skipping the exponential alpha
    computation (check_alpha=False) records None and warns.
    """
    n, k = H.n, H.k
    degree_floor = (
        Fraction(comb(n - 1, k - 1) - comb(n - m, k - 1)) - cfg.rho * Fraction(n) ** (k - 1)
    )
    delta1 = min_l_degree(H, 1) if H.n else 0
    alpha = None
    alpha_ok = None
    if check_alpha:
        alpha = independence_number(H)
        alpha_ok = alpha < n - m - ceil(cfg.eps * n)
    else:
        warnings.warn("independence precondition not checked (check_alpha=False)", stacklevel=2)
    return {
        "alpha": alpha,
        "alpha_bound": n - m - ceil(cfg.eps * n),
        "alpha_ok": alpha_ok,
        "delta1": delta1,
        "degree_floor": degree_floor,
        "degree_ok": delta1 > degree_floor,
        "clique_ok": (r - k) * (k - 1) >= n - k * m,
        "m_range_ok": 2 * k**4 * m > n and 2 * (k - 1) * (m - 1) <= n - 1,
    }


def fractional_pm_pipeline(
    H: KGraph,
    m: int,
    r: int,
    cfg: PipelineConfig,
    route: str = "auto",
    check_alpha: bool = True,
) -> tuple[FractionalAssignment, PipelineTrace]:
    """Run the constructive proof as an algorithm; see the module docstring.

    Returns a verified perfect fractional matching of the weight closure H'
    (on the weight-sorted labels; the trace carries the relabeling) plus the
    step trace. Structural certificates that hold unconditionally (stable
    link, neighborhood transfer) raise InternalContradictionError on failure;
    steps whose guarantees are only asymptotic raise StepFailureError with
    the trace attached.
    """
    if route not in ("auto", "exact", "greedy"):
        raise InvalidQueryError(f"route must be auto|exact|greedy, got {route!r}")
    n, k = H.n, H.k
    if m < 1 or n < k * m:
        raise InvalidQueryError(f"need 1 <= m <= n/k, got n={n}, m={m}")
    s = (n + r) % k
    trace = PipelineTrace(n=n, k=k, m=m, r=r, s=s)
    trace.constants = {
        "eta": cfg.eta,
        "rho": cfg.rho,
        "eps": cfg.eps,
        "two_eta_over_k": 2 * cfg.eta / k,
        "four_rho": 4 * cfg.rho,
        "residual": augmentation_residual(n, k, m, cfg.eta, r),
    }

    with trace.step("preconditions") as st:
        pre = check_pipeline_preconditions(H, m, r, cfg, check_alpha=check_alpha)
        trace.preconditions = pre
        st.details = pre

    # minimum fractional cover of the augmented graph
    target = Fraction(n + r, k)
    with trace.step("cover") as st:
        H_aug = join_clique(H, r)
        tau_value, matching, cover = solve_fractional(H_aug)
        st.details = {"tau": tau_value, "target": target}
    if tau_value < target:
        trace.step("cover_certificate").fail(
            "cover below (n+r)/k certifies that no perfect fractional matching exists",
            tau=tau_value,
            target=target,
        )

    # sort the original vertices by weight; clique labels stay on top
    with trace.step("relabel") as st:
        base_weights = VertexWeights(cover.weights[:n])
        H_sorted, old_to_new = relabel_by_weights(H, base_weights)
        full_map = old_to_new + tuple(range(n + 1, n + r + 1))
        w = permute_weights(cover, full_map)
        H_aug_sorted = join_clique(H_sorted, r)
        if not w.is_cover_of(H_aug_sorted):
            st.contradict("cover broken by relabeling")
        trace.relabel_old_to_new = old_to_new
        st.details = {"old_to_new": old_to_new}

    # weight closure and its core/link
    with trace.step("closure") as st:
        closure = weight_closure(n + r, k, w)
        if not set(H_aug_sorted.edges) <= set(closure.edges):
            st.contradict("augmented graph escapes its weight closure")
        core_graph = induced(closure, range(1, n + 1))  # clique labels are on top
        link_graph = link(core_graph, n)
        st.details = {
            "closure_edges": len(closure.edges),
            "core_edges": len(core_graph.edges),
            "link_edges": len(link_graph.edges),
        }

    # structural certificates
    with trace.step("link_stability") as st:
        if not is_stable(link_graph):
            st.contradict("link of the closure is not stable")

    block_top = _complete_block_size(m, cfg.eps, n)
    with trace.step("complete_block") as st:
        missing = None
        if block_top >= k:
            for e in combinations(range(1, min(block_top, n) + 1), k):
                if e not in core_graph.edge_set:
                    missing = e
                    break
        if missing is not None:
            if pre["alpha_ok"]:
                st.contradict(
                    f"low-index block [{block_top}] is not complete despite the independence margin",
                    missing=missing,
                )
            st.fail(
                f"low-index block [{block_top}] is not complete "
                "(independence precondition unmet or unchecked)",
                missing=missing,
            )
        st.details = {"block_top": block_top}

    with trace.step("neighborhood_transfer") as st:
        for e in link_graph.edges:
            ev = set(e)
            for i in range(1, n + 1):
                if i not in ev and tuple(sorted(e + (i,))) not in core_graph.edge_set:
                    st.contradict(
                        "a link edge fails to transfer to a smaller-index vertex", witness=(e, i)
                    )

    # integral matching of size m inside the core graph
    M = None
    if route in ("auto", "exact"):
        with trace.step("find_matching") as st:
            nu_link, link_matching = exact_nu(link_graph)
            if nu_link >= m:
                picked = link_matching.edges[:m]
                used = {v for e in picked for v in e}
                M = _transfer(st, picked, used, core_graph, n, step="matching_exact")
                trace.route_used = "exact"
                st.details = {"route": "exact", "link_nu": nu_link, "size": m}
            elif route == "exact":
                st.fail(f"link matching has only {nu_link} < m = {m} edges", route="exact")
            else:
                st.name, st.status = "find_matching_exact_attempt", "skipped"
                st.details = {"link_nu": nu_link, "note": "falling back to the block route"}

    if M is None:
        M = _block_route_matching(core_graph, link_graph, n, k, m, cfg, trace)
        trace.route_used = "greedy"

    with trace.step("matching_verify") as st:
        if not (verify_matching(core_graph, Matching.from_edges(M)) and len(M) == m):
            st.contradict("assembled matching is invalid")
        st.details = {"size": len(M)}

    # perfect matching of the closure minus residue-class vertices and V(M)
    with trace.step("clique_completion") as st:
        M_used = {v for e in M for v in e}
        leftover = [v for v in range(1, n + 1) if v not in M_used]
        q_free = list(range(n + s + 1, n + r + 1))
        completion = _complete_through_clique(closure, leftover, q_free, k)
        if completion is None:
            live = leftover + q_free
            completion = _exact_perfect_matching(closure, live)
        if completion is None:
            st.fail(
                "no perfect matching of the closure minus the residue class and V(M)",
                leftover=len(leftover),
                clique_free=len(q_free),
            )
        for e in completion:
            if e not in closure.edge_set:
                st.contradict("completion used a non-edge", edge=e)
        st.details = {"size": len(completion)}

    # assemble, splicing cyclic windows over the residue class if needed
    with trace.step("residue_splice" if s else "assemble") as st:
        phi: dict[EdgeT, Fraction] = {}
        one = Fraction(1)
        if s == 0:
            for e in M:
                phi[e] = one
            for e in completion:
                phi[e] = one
        else:
            if r < s:
                st.fail(f"residue class needs {s} clique vertices but only {r} exist")
            if completion:
                f, ones = completion[0], M + completion[1:]
            else:
                f, ones = M[-1], M[:-1]
            residue = list(range(n + 1, n + s + 1))
            window_verts = sorted(set(f) | set(residue))
            nn = len(window_verts)  # k + s, and nn > k since s >= 1
            wk = Fraction(1, k)
            for i in range(nn):
                window = tuple(sorted(window_verts[(i + j) % nn] for j in range(k)))
                if window not in closure.edge_set:
                    st.contradict("window is not a closure edge", edge=window)
                phi[window] = wk
            for e in ones:
                phi[e] = one
        assignment = FractionalAssignment(closure, phi)  # validates loads exactly
        value = assignment.value()
        if value != target:
            st.contradict(
                "assembled value is not (n+r)/k", step="verify", value=value, target=target
            )
        st.details = {"value": value}

    # cross-check against the exact fractional optimum of the augmented graph:
    # the cover step's matching, relabeled like its cover, is a fractional
    # matching of H_aug_sorted; w is a cover of it (checked in relabel), so
    # equal totals certify lp_value as the optimum by weak duality
    with trace.step("verify") as st:
        primal = FractionalAssignment(
            H_aug_sorted,
            {tuple(sorted(full_map[v - 1] for v in e)): x for e, x in matching.phi.items()},
        )
        lp_value = primal.value()
        if lp_value != w.total():
            st.contradict(
                "relabeled matching and cover witnesses disagree", lp_value=lp_value, tau=w.total()
            )
        if lp_value != value:
            st.contradict(
                "pipeline value disagrees with the exact fractional optimum",
                lp_value=lp_value,
                value=value,
            )
        trace.value = value
        st.details = {"lp_value": lp_value, "perfect": assignment.is_perfect()}
    return assignment, trace


def _block_route_matching(
    core_graph: KGraph,
    link_graph: KGraph,
    n: int,
    k: int,
    m: int,
    cfg: PipelineConfig,
    trace: PipelineTrace,
) -> list[EdgeT]:
    """Matching of size m via the complete block and one-W-vertex link edges.

    Classifies link vertices against the one-smaller template using quartic
    comparisons (deficit^4 vs rho * n'^(4(k-2))), so no irrational roots are
    ever formed. Greedy and size guarantees here are asymptotic, so any
    shortfall raises StepFailureError rather than guessing.
    """
    with trace.step("block_route_classify") as st:
        W = tuple(range(1, m))
        U = tuple(range(m, n))
        part = VertexPartition(U, W)
        n_link = n - 1
        if k >= 3 and m >= 2:
            deficits = vertex_template_deficits(link_graph, part, k - 2)
        else:
            deficits = {v: 0 for v in link_graph.vertices()}
        quart_bound = cfg.rho * Fraction(n_link) ** (4 * (k - 2))
        v_bad = {v for v, d in deficits.items() if Fraction(d) ** 4 > quart_bound}
        b_bad = sorted(v_bad & set(W))
        b = len(b_bad)
        link_def = deficiency(link_graph, part, k - 1) if m >= 2 else 0
        close_ok = Fraction(link_def) ** 2 <= cfg.rho * Fraction(n_link) ** (2 * (k - 1))
        st.details = {
            "bad_total": len(v_bad),
            "bad_in_W": b,
            "link_deficiency": link_def,
            "link_close": close_ok,
        }

    with trace.step("block_route_block_matching") as st:
        block_top = _complete_block_size(m, cfg.eps, n)
        block = sorted(set(b_bad) | set(range(m, min(block_top, n) + 1)))
        if (b + 1) * k > len(block):
            st.fail(
                f"block of {len(block)} vertices cannot hold {b + 1} disjoint edges",
                block=len(block),
                needed=(b + 1) * k,
            )
        block_matching: list[EdgeT] = []
        pool = list(block)
        for _ in range(b + 1):
            e = tuple(pool[:k])
            if e not in core_graph.edge_set:
                st.fail("block edge missing from the core graph", edge=e)
            block_matching.append(e)
            pool = pool[k:]
        st.details = {"size": len(block_matching)}

    with trace.step("block_route_transversal") as st:
        removed = set().union(*map(set, block_matching)) | v_bad
        transversal: list[EdgeT] = []
        used: set[int] = set()
        for x in sorted(set(W) - set(b_bad)):
            if len(transversal) == m - b - 1:
                break
            if x in removed or x in used:
                continue
            found = None
            for i in link_graph.vertex_edges[x - 1]:
                e = link_graph.edges[i]
                ev = set(e)
                if x not in ev:
                    continue
                others = ev - {x}
                if others & (removed | used | set(W)):
                    continue
                found = e
                break
            if found is None:
                st.fail(f"no available one-W-vertex link edge at vertex {x}", vertex=x)
            transversal.append(found)
            used |= set(found)
        if len(transversal) < m - b - 1:
            st.fail(f"only {len(transversal)} of {m - b - 1} one-W-vertex edges found")
        st.details = {"size": len(transversal)}

    with trace.step("block_route_extend") as st:
        blocked = removed | used | {v for e in transversal for v in e}
        extended = _transfer(st, transversal, blocked, core_graph, n)
        st.details = {"size": len(extended)}
    return block_matching + extended


def _transfer(
    st: _Step, link_edges, blocked: set[int], core_graph: KGraph, n: int, step: str | None = None
) -> list[EdgeT]:
    """Extend each link edge of vertex n by its own unblocked vertex of [n].

    Neighborhood transfer makes every such extension a core edge; a missing
    one is a contradiction.
    """
    fresh = [v for v in range(1, n + 1) if v not in blocked][: len(link_edges)]
    if len(fresh) < len(link_edges):
        st.fail("not enough fresh vertices", step=step)
    out = [tuple(sorted(e + (v,))) for e, v in zip(link_edges, fresh)]
    for e in out:
        if e not in core_graph.edge_set:
            st.contradict("transferred edge missing from the core graph", step=step, edge=e)
    return out


def _complete_through_clique(
    closure: KGraph, leftover: list[int], q_free: list[int], k: int
) -> list[EdgeT] | None:
    """Greedy perfect matching: k-1 leftover vertices plus one clique vertex
    per edge, then pure clique edges. Returns None when the clique runs dry.
    """
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
    if len(q) % k != 0:
        return None
    for j in range(0, len(q), k):
        edges.append(tuple(q[j : j + k]))
    for e in edges:
        if e not in closure.edge_set:
            return None
    return edges


def _exact_perfect_matching(closure: KGraph, live: list[int]) -> list[EdgeT] | None:
    """Exact fallback: perfect matching of the closure induced on live vertices."""
    live = sorted(live)
    if not live:
        return []
    if len(live) % closure.k != 0:
        return None
    sub = induced(closure, live)
    nu, matching = exact_nu(sub)
    if nu * closure.k != len(live):
        return None
    back = {i + 1: v for i, v in enumerate(live)}
    return [tuple(sorted(back[x] for x in e)) for e in matching.edges]


# -- first-round vertex sampler ----------------------------------------------


@dataclass
class SampleFamily:
    """Independent vertex samples of a host graph, trimmed to size in kZ.

    Incidence statistics (vertex counts, pairwise co-occurrence, per-edge
    containment) are computed on first read and kept, since the pair counts
    are quadratic in copy size.
    """

    host: KGraph
    copies: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.copies)

    @cached_property
    def vertex_counts(self) -> dict[int, int]:
        counts = {v: 0 for v in self.host.vertices()}
        for c in self.copies:
            for v in c:
                counts[v] += 1
        return counts

    @cached_property
    def max_pair_incidence(self) -> int:
        pair_counts: Counter = Counter()
        for c in self.copies:
            pair_counts.update(combinations(c, 2))
        return max(pair_counts.values()) if pair_counts else 0

    @cached_property
    def edge_containment_counts(self) -> dict[EdgeT, int]:
        member: dict[int, set[int]] = {}
        for i, c in enumerate(self.copies):
            for v in c:
                member.setdefault(v, set()).add(i)
        out = {}
        for e in self.host.edges:
            hit = member.get(e[0], set())
            for v in e[1:]:
                hit = hit & member.get(v, set())
                if not hit:
                    break
            out[e] = len(hit)
        return out


def first_round_sampler(H: KGraph, settings: SamplerSettings) -> SampleFamily:
    """Draw independent vertex samples, trimmed so each size is divisible by k.

    Keep probability and copy count come from settings, or default to the
    asymptotic shapes n^(-P_EXPONENT) and ceil(n^COPY_EXPONENT). Copies use
    sub-seeds derived from (settings.seed, copy index), so they are
    reproducible and order-independent.
    """
    n, k = H.n, H.k
    keep = settings.keep_probability
    if keep is None:
        keep = n ** (-float(P_EXPONENT)) if n else 0.0
    count = settings.copy_count
    if count is None:
        count = ceil(n ** float(COPY_EXPONENT)) if n else 0
    copies = []
    for i in range(count):
        rng = random.Random(f"{settings.seed}:{i}")
        picked = [v for v in range(1, n + 1) if rng.random() < keep]
        t = len(picked) % k
        if t:
            drop = set(rng.sample(picked, t))
            picked = [v for v in picked if v not in drop]
        copies.append(tuple(picked))
    return SampleFamily(host=H, copies=tuple(copies))


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    observed: object
    threshold: object


@dataclass(frozen=True)
class SamplerReport:
    checks: tuple[PropertyCheck, ...]

    def passed(self, name: str) -> bool:
        return next(c.passed for c in self.checks if c.name == name)

    def observed(self, name: str):
        return next(c.observed for c in self.checks if c.name == name)


def check_sampler_properties(
    family: SampleFamily,
    H: KGraph,
    *,
    vertex_count_band: tuple[float, float] | None = None,
    size_band: tuple[float, float] | None = None,
    pair_limit: int | None = 2,
    edge_limit: int | None = 1,
    rho_prime: Fraction | None = None,
    min_inside_fraction: float = 1.0,
) -> SamplerReport:
    """Measure the concentration properties of a sample family.

    The asymptotic guarantees hide o(1) terms, so every threshold is caller
    supplied: bands are absolute (lo, hi) ranges, min_inside_fraction is the
    required fraction of vertices/copies inside their band, and rho_prime
    (when given) activates the per-copy minimum-degree bound
    d >= C(sz-1, k-1) - C(sz - sz/k, k-1) - rho' * sz^(k-1). A None
    threshold skips its (possibly expensive) measurement.
    """
    checks: list[PropertyCheck] = []
    k = H.k

    if vertex_count_band is not None:
        lo, hi = vertex_count_band
        counts = family.vertex_counts
        inside = sum(1 for c in counts.values() if lo <= c <= hi)
        frac = inside / len(counts) if counts else 1.0
        checks.append(
            PropertyCheck("vertex_counts", frac >= min_inside_fraction, frac, vertex_count_band)
        )

    if pair_limit is not None:
        checks.append(
            PropertyCheck(
                "pair_overlap", family.max_pair_incidence <= pair_limit,
                family.max_pair_incidence, pair_limit,
            )
        )

    if edge_limit is not None:
        edge_max = max(family.edge_containment_counts.values(), default=0)
        checks.append(PropertyCheck("edge_overlap", edge_max <= edge_limit, edge_max, edge_limit))

    if size_band is not None:
        lo, hi = size_band
        sizes = family.sizes
        inside = sum(1 for sz in sizes if lo <= sz <= hi)
        frac = inside / len(sizes) if sizes else 1.0
        checks.append(PropertyCheck("copy_sizes", frac >= min_inside_fraction, frac, size_band))

    if rho_prime is not None:
        worst = None
        ok = True
        for idx, c in enumerate(family.copies):
            sz = len(c)
            if sz < k:
                continue
            sub = induced(H, c)
            d = min_l_degree(sub, 1)
            bound = (
                Fraction(comb(sz - 1, k - 1) - comb(sz - sz // k, k - 1))
                - rho_prime * Fraction(sz) ** (k - 1)
            )
            if not d > bound:
                ok = False
                worst = (idx, d, bound)
                break
        checks.append(PropertyCheck("copy_min_degree", ok, worst, str(rho_prime)))

    return SamplerReport(tuple(checks))


def chernoff_tail(n: int, p, lam) -> tuple[float, float]:
    """Tail bounds for Bin(n, p) at deviation lam, as (lower, upper) bounds.

    With mu = np and delta = lam/mu, returns (exp(-delta^2 mu / 2),
    exp(-delta^2 mu / 3)) bounding the lower and upper tails. Requires
    lam < (3/2) np.
    """
    p = Fraction(p)
    lam = Fraction(lam)
    mu = n * p
    if lam < 0:
        raise InvalidQueryError(f"lam must be nonnegative, got {lam}")
    if lam == 0:
        return 1.0, 1.0
    if mu == 0 or not lam < Fraction(3, 2) * mu:
        raise InvalidQueryError(f"need lam < (3/2) np, got lam={lam}, np={mu}")
    delta = lam / mu
    expo = float(delta * delta * mu)
    return math.exp(-expo / 2), math.exp(-expo / 3)


def chernoff_band(n: int, p, fail_prob: float) -> tuple[float, float]:
    """Deviation band [mu - lo, mu + hi] with each tail at most fail_prob.

    Inverts the two exponential bounds and verifies the result through
    chernoff_tail, so the band is exactly what the tail bounds certify.
    """
    if not 0 < fail_prob < 1:
        raise InvalidQueryError("fail_prob must be in (0,1)")
    mu = float(n * Fraction(p))
    if mu == 0:
        return 0.0, 0.0
    ln = math.log(1 / fail_prob)
    lam_lo = mu * math.sqrt(2 * ln / mu)
    lam_up = mu * math.sqrt(3 * ln / mu)
    for lam in (lam_lo, lam_up):
        if not lam < 1.5 * mu:
            raise InvalidQueryError(
                f"band at fail_prob={fail_prob} needs lam={lam:.3f} >= 1.5*mu={1.5 * mu:.3f}; "
                "increase the expectation or the failure probability"
            )
    lower_bound, _ = chernoff_tail(n, p, Fraction(lam_lo).limit_denominator(10**9))
    _, upper_bound = chernoff_tail(n, p, Fraction(lam_up).limit_denominator(10**9))
    if lower_bound > fail_prob * 1.0000001 or upper_bound > fail_prob * 1.0000001:
        raise InternalContradictionError("band inversion failed", check="chernoff-band")
    return mu - lam_lo, mu + lam_up
