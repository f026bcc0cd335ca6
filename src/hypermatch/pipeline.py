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

Also: the eta-padded clique-size rule, the first-round vertex sampler with
its per-vertex incidence counts, and the Chernoff band used to set test
bands.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import ceil
from numbers import Rational, Real
from .constructions import VertexPartition, join_clique, vertex_degree_threshold
from .containment import deficiency, vertex_template_deficits
from .core import (
    EdgeT,
    KGraph,
    Matching,
    _check_shape,
    _integers,
    _unit_interval,
    independence_number,
    is_stable,
    link,
    min_l_degree,
    verify_matching,
)
from .errors import (
    BudgetExceededError,
    HypermatchError,
    InternalContradictionError,
    InvalidQueryError,
    StepFailureError,
)
from .lp import (
    FractionalAssignment,
    VertexWeights,
    _weight_labels,
    cyclic_windows,
    min_fractional_cover,
    weight_closure,
)
from .matching import exact_nu, exact_nu_within


@dataclass(frozen=True)
class SamplerSettings:
    """Vertex-sampler settings: keep probability, copy count and seed. The
    paper's first round keeps each vertex with probability n^(-9/10) in
    ceil(n^(11/10)) copies, meaningful only at astronomical n, so callers
    set both."""

    keep_probability: Fraction | float
    copy_count: int
    seed: int = 0

    def __post_init__(self):
        _unit_interval("keep_probability", self.keep_probability)
        if _integers(copy_count=self.copy_count)[0] < 0:
            raise InvalidQueryError("copy_count must be nonnegative")
        object.__setattr__(self, "seed", _integers(seed=self.seed)[0])  # sub-seeds are its decimal text


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the constructive route.

    eta is the padding fraction of the augmentation rule; rho the degree
    slack; eps the containment scale; all rational, so the route compares exactly.
    """

    eta: Fraction = Fraction(1, 10)
    rho: Fraction = Fraction(1, 10000)
    eps: Fraction = Fraction(1, 10)

    def __post_init__(self):
        if not (isinstance(self.eta, Rational) and self.eta > 0):
            raise InvalidQueryError(f"eta must be a positive rational number, got {self.eta!r}")
        if not (isinstance(self.eps, Rational) and 0 < self.eps < 1):
            raise InvalidQueryError(f"eps must be a rational number in (0,1), got {self.eps!r}")
        if not (isinstance(self.rho, Rational) and self.rho >= 0):
            raise InvalidQueryError(f"rho must be a nonnegative rational number, got {self.rho!r}")


def padded_clique_size(n: int, k: int, m: int, eta) -> int:
    """The clique size r = ceil((n - km - eta*n)/(k-1)) of the padding rule.

    Raises InvalidQueryError when n - km - eta*n < 0. The rounding
    residual r(k-1) - (n - km - eta*n) is available via
    augmentation_residual. With this rounding rule the clique-size
    hypothesis (r-k)(k-1) >= n-km never holds; the pipeline reports it as
    the precondition clique_ok.
    """
    (n, k), [m] = _check_shape(n, k), _integers(m=m)
    eta = _padding(eta)
    slack = Fraction(n - k * m) - eta * n
    if slack < 0:
        raise InvalidQueryError(
            f"n - km - eta*n = {slack} < 0 (n={n}, k={k}, m={m}, eta={eta})"
        )
    return ceil(slack / (k - 1))


def augmentation_residual(n: int, k: int, m: int, eta, r: int) -> Fraction:
    """How far the rounded clique size overshoots the exact padding rule."""
    (n, k), (m, r) = _check_shape(n, k), _integers(m=m, r=r)
    return r * (k - 1) - (Fraction(n - k * m) - _padding(eta) * n)


def _padding(eta) -> Fraction:
    """eta as a Fraction, once it is checked to be a rational number >= 0."""
    if not (isinstance(eta, Rational) and eta >= 0):
        raise InvalidQueryError(f"eta must be a rational number >= 0, got {eta!r}")
    return Fraction(eta)


def minimal_feasible_r(n: int, k: int, m: int) -> int:
    """Smallest r with (r-k)(k-1) >= n-km, the clique-completion hypothesis."""
    (n, k), [m] = _check_shape(n, k), _integers(m=m)
    return k + max(0, ceil(Fraction(n - k * m, k - 1)))


class TraceStep:
    """One pipeline step, timed from its creation; use as
    ``with trace.step(name) as st:``.

    status is "ok", "failed" or "indeterminate". The block may set details.
    The step is appended to its trace however the block ends: as the block
    left it when no exception is raised; "indeterminate" with the message
    and node count on a budget hit; and "failed" with the message for any
    other exception that fail or contradict did not already mark. A
    HypermatchError leaving the block carries the trace.
    """

    def __init__(self, trace: PipelineTrace, name: str):
        self.trace = trace
        self.name = name
        self.status = "ok"
        self.details: dict = {}
        self.seconds = 0.0
        self.t0 = time.perf_counter()

    def __enter__(self) -> TraceStep:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, BudgetExceededError):
            self.status = "indeterminate"
            self.details = {"message": str(exc), "nodes": exc.nodes}
        elif exc is not None and self.status != "failed":
            self.status = "failed"
            self.details = {"message": str(exc)}
        self.seconds = time.perf_counter() - self.t0
        self.trace.steps.append(self)
        if isinstance(exc, HypermatchError) and exc.trace is None:
            exc.trace = self.trace

    def fail(self, message: str, **details):
        """Mark the step failed, with the message and details; raise StepFailureError."""
        self.status = "failed"
        self.details = {"message": message, **details}
        raise StepFailureError(message)

    def contradict(self, message: str, **details):
        """Mark the step failed like fail, and raise InternalContradictionError."""
        self.status = "failed"
        self.details = {"message": message, **details}
        raise InternalContradictionError(message)

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

    def step(self, name: str) -> TraceStep:
        """Start timing a step; use as ``with trace.step(name) as st:``."""
        return TraceStep(self, name)

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


def check_pipeline_preconditions(H: KGraph, m: int, r: int, cfg: PipelineConfig) -> dict:
    """Report (never enforce) the hypotheses of the constructive route.

    The independence margin is checked in the integer form
    alpha(H) < n - m - ceil(eps*n), which is what the complete-block
    certificate needs at finite n.
    """
    n, k = H.n, H.k
    degree_floor = vertex_degree_threshold(n, k, m) - cfg.rho * Fraction(n) ** (k - 1)
    delta1 = min_l_degree(H, 1)
    alpha = independence_number(H)
    alpha_bound = n - m - ceil(cfg.eps * n)
    return {
        "alpha": alpha,
        "alpha_bound": alpha_bound,
        "alpha_ok": alpha < alpha_bound,
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
) -> tuple[FractionalAssignment, PipelineTrace]:
    """Run the constructive proof as an algorithm; see the module docstring.

    route "auto" takes an exact maximum matching of the link and fails at
    find_matching when it is short of m; "greedy" runs the block route.
    Returns a verified perfect fractional matching of the weight closure H'
    (on the weight-sorted labels; the trace carries the relabeling) plus the
    step trace. Structural certificates that hold unconditionally (stable
    link, neighborhood transfer) raise InternalContradictionError on failure;
    steps whose guarantees are only asymptotic raise StepFailureError. Every
    error raised inside a step, a node budget hit included, carries the
    trace so far.
    """
    if route not in ("auto", "greedy"):
        raise InvalidQueryError(f"route must be auto|greedy, got {route!r}")
    n, k = H.n, H.k
    m, r = _integers(m=m, r=r)
    if m < 1 or n < k * m:
        raise InvalidQueryError(f"need 1 <= m <= n/k, got n={n}, m={m}")
    if k < 3:
        raise InvalidQueryError(f"the route needs k >= 3, got k={k}")
    if r < 0:
        raise InvalidQueryError(f"need r >= 0, got {r}")
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
        pre = check_pipeline_preconditions(H, m, r, cfg)
        trace.preconditions = pre
        st.details = pre

    # minimum fractional cover of the augmented graph
    target = Fraction(n + r, k)
    with trace.step("cover") as st:
        tau_value, cover = min_fractional_cover(join_clique(H, r))
        st.details = {"tau": tau_value, "target": target}
    if tau_value < target:
        with trace.step("cover_certificate") as st:
            st.fail(
                "cover below (n+r)/k certifies that no perfect fractional matching exists",
                tau=tau_value,
                target=target,
            )

    # sort the original vertices by weight (ties by index); the clique keeps n+1..n+r
    with trace.step("relabel") as st:
        old_to_new = _weight_labels(cover.weights[:n])
        core_weights = VertexWeights(tuple(sorted(cover.weights[:n], reverse=True)))  # new-label order
        trace.relabel_old_to_new = old_to_new
        st.details = {"old_to_new": old_to_new}

    # closure = k-sets of weight >= 1; the certified cover gives every k-set meeting
    # the clique weight >= 1, so the closure is the clique join of its core
    with trace.step("closure") as st:
        core_graph = weight_closure(n, k, core_weights)
        closure = join_clique(core_graph, r)
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

    block_top = n - pre["alpha_bound"]  # m + ceil(eps*n)
    with trace.step("complete_block") as st:
        block = combinations(range(1, min(block_top, n) + 1), k)
        missing = next((e for e in block if e not in core_graph.edge_set), None)
        if missing is not None:
            if pre["alpha_ok"]:
                st.contradict(
                    f"low-index block [{block_top}] is not complete despite the independence margin",
                    missing=missing,
                )
            st.fail(
                f"low-index block [{block_top}] is not complete (independence precondition unmet)",
                missing=missing,
            )
        st.details = {"block_top": block_top}

    # a link edge e transfers when all n - k + 1 sets e + {i} are core edges, so
    # only an e with fewer core edges through it is probed i by i, in order
    with trace.step("neighborhood_transfer") as st:
        through = Counter(chain.from_iterable(map(combinations, core_graph.edges, repeat(k - 1))))
        for e in link_graph.edges:
            if through[e] == n - k + 1:
                continue
            ev = set(e)
            for i in range(1, n + 1):
                if i not in ev and tuple(sorted(e + (i,))) not in core_graph.edge_set:
                    st.contradict(
                        "a link edge fails to transfer to a smaller-index vertex", witness=(e, i)
                    )

    # integral matching of size m inside the core graph
    if route == "greedy":
        M = _block_route_matching(link_graph, m, block_top, cfg.rho, trace)
    else:
        with trace.step("find_matching") as st:
            nu_link, link_matching = exact_nu(link_graph)
            if nu_link < m:
                st.fail(f"the link's matching number {nu_link} is below m = {m}", link_nu=nu_link)
            picked = link_matching.edges[:m]
            M = _transfer(st, picked, {v for e in picked for v in e}, n)
            st.details = {"route": "exact", "link_nu": nu_link, "size": m}
    trace.route_used = "greedy" if route == "greedy" else "exact"

    with trace.step("matching_verify") as st:
        if not (verify_matching(core_graph, Matching.from_edges(M)) and len(M) == m):
            st.contradict("assembled matching is invalid")
        st.details = {"size": len(M)}

    # perfect matching of the closure minus residue-class vertices and V(M)
    with trace.step("clique_completion") as st:
        M_used = {v for e in M for v in e}
        leftover = [v for v in range(1, n + 1) if v not in M_used]
        q_free = list(range(n + s + 1, n + r + 1))
        completion = _complete_through_clique(leftover, q_free, k)
        if completion is None:
            # exact fallback: a perfect matching of the closure on what is left
            nu_live, live_matching = exact_nu_within(closure, leftover + q_free)
            if nu_live * k == len(leftover) + len(q_free):
                completion = list(live_matching.edges)
        if completion is None:
            st.fail(
                "no perfect matching of the closure minus the residue class and V(M)",
                leftover=len(leftover),
                clique_free=len(q_free),
            )
        st.details = {"size": len(completion)}

    # assemble, splicing cyclic windows over the residue class if needed
    with trace.step("residue_splice" if s else "assemble") as st:
        ones = M + completion
        windows = []
        if s:
            # f is the first completion edge, or the last edge of M
            f = ones.pop(len(M) if completion else len(M) - 1)
            window_verts = sorted(set(f) | set(range(n + 1, n + s + 1)))  # k + s > k vertices
            windows = cyclic_windows(window_verts, k)
        phi = dict.fromkeys(windows, Fraction(1, k))
        phi.update(dict.fromkeys(ones, Fraction(1)))
        assignment = FractionalAssignment(closure, phi)  # validates loads exactly
        value = assignment.value()
        st.details = {"value": value}

    # cross-check against the exact fractional optimum of the augmented graph,
    # which solve_fractional certified by a matching and a cover of equal totals;
    # loads <= 1 cap both at (n+r)/k and cover_certificate passed tau >= (n+r)/k,
    # so equality here is also value == (n+r)/k
    with trace.step("verify") as st:
        if tau_value != value:
            st.contradict(
                "pipeline value disagrees with the exact fractional optimum",
                lp_value=tau_value,
                value=value,
            )
        trace.value = value
        st.details = {"lp_value": tau_value, "perfect": assignment.is_perfect()}
    return assignment, trace


def _block_route_matching(
    link_graph: KGraph, m: int, block_top: int, rho: Fraction, trace: PipelineTrace
) -> list[EdgeT]:
    """Matching of size m via the complete block and one-W-vertex link edges.

    link_graph is the link of vertex n in the core k-graph on [n], so n and k
    are one more than its vertex count and uniformity. Classifies link
    vertices against the one-smaller template using quartic comparisons
    (deficit^4 vs rho * n'^(4(k-2))), so no irrational roots are ever formed.
    Greedy and size guarantees here are asymptotic, so any shortfall raises
    StepFailureError rather than guessing.
    """
    n, k = link_graph.n + 1, link_graph.k + 1
    with trace.step("block_route_classify") as st:
        W = tuple(range(1, m))
        U = tuple(range(m, n))
        part = VertexPartition(U, W)
        n_link = n - 1
        deficits = vertex_template_deficits(link_graph, part, k - 2)
        quart_bound = rho * Fraction(n_link) ** (4 * (k - 2))
        v_bad = {v for v, d in deficits.items() if Fraction(d) ** 4 > quart_bound}
        b_bad = sorted(v_bad & set(W))
        b = len(b_bad)
        link_def = deficiency(link_graph, part, k - 1)
        close_ok = Fraction(link_def) ** 2 <= rho * Fraction(n_link) ** (2 * (k - 1))
        st.details = {
            "bad_total": len(v_bad),
            "bad_in_W": b,
            "link_deficiency": link_def,
            "link_close": close_ok,
        }

    with trace.step("block_route_block_matching") as st:
        room = min(block_top, n) - m  # ceil(eps*n), cut off at n
        block = sorted(set(b_bad) | set(range(m, m + room + 1)))
        if (b + 1) * (k - 1) > room:
            st.fail(
                f"block room (b + 1)(k - 1) <= ceil(eps*n) fails: ({b} + 1)({k} - 1) > {room}",
                block=len(block),
                needed=(b + 1) * k,
            )
        # the block lies in [min(block_top, n)], whose k-subsets complete_block certified
        block_matching = [tuple(block[i : i + k]) for i in range(0, (b + 1) * k, k)]
        st.details = {"size": len(block_matching)}

    with trace.step("block_route_transversal") as st:
        removed = set().union(*map(set, block_matching)) | v_bad
        transversal: list[EdgeT] = []
        used: set[int] = set()
        # each x lies outside the block and v_bad, and every edge found meets W
        # only in its own x, so x is never blocked and each x adds one edge or fails
        for x in sorted(set(W) - v_bad):
            blocked = removed | used | (set(W) - {x})
            edges_at_x = (link_graph.edges[i] for i in link_graph.vertex_edges[x - 1])
            found = next((e for e in edges_at_x if blocked.isdisjoint(e)), None)
            if found is None:
                st.fail(f"no available one-W-vertex link edge at vertex {x}", vertex=x)
            transversal.append(found)
            used |= set(found)
        st.details = {"size": len(transversal)}

    with trace.step("block_route_extend") as st:
        extended = _transfer(st, transversal, removed | used, n)
        st.details = {"size": len(extended)}
    return block_matching + extended


def _transfer(st: TraceStep, link_edges, blocked: set[int], n: int) -> list[EdgeT]:
    """Extend each link edge of vertex n by its own unblocked vertex of [n].

    Every such extension is a core edge: the neighborhood_transfer step has
    already checked e + {i} for each link edge e and each vertex i not in e.
    """
    fresh = [v for v in range(1, n + 1) if v not in blocked][: len(link_edges)]
    if len(fresh) < len(link_edges):
        st.fail("not enough fresh vertices")
    return [tuple(sorted(e + (v,))) for e, v in zip(link_edges, fresh)]


def _complete_through_clique(leftover: list[int], q_free: list[int], k: int) -> list[EdgeT] | None:
    """Greedy perfect matching: k-1 leftover vertices plus one clique vertex
    per edge, then pure clique edges. Returns None when the clique runs dry.
    Every edge meets the clique, so it lies in the closure.
    """
    edges: list[EdgeT] = []
    q = list(q_free)
    vl = sorted(leftover)
    for i in range(0, len(vl), k - 1):
        take = vl[i : i + k - 1]
        need = k - len(take)
        if need > len(q):
            return None
        edges.append(tuple(sorted(take + q[:need])))
        q = q[need:]
    for j in range(0, len(q), k):
        edges.append(tuple(q[j : j + k]))
    return edges


# -- first-round vertex sampler ----------------------------------------------


@dataclass
class SampleFamily:
    """Independent vertex samples of a host graph, trimmed to size in kZ,
    with their per-vertex incidence counts."""

    host: KGraph
    copies: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.copies)

    @property
    def vertex_counts(self) -> dict[int, int]:
        counts = {v: 0 for v in self.host.vertices()}
        for c in self.copies:
            for v in c:
                counts[v] += 1
        return counts


def first_round_sampler(H: KGraph, settings: SamplerSettings) -> SampleFamily:
    """Draw independent vertex samples, trimmed so each size is divisible by k.

    Keep probability and copy count come from settings. Copies use sub-seeds
    derived from (settings.seed, copy index), so they are reproducible and
    order-independent.
    """
    n, k = H.n, H.k
    keep = settings.keep_probability
    copies = []
    for i in range(settings.copy_count):
        rng = random.Random(f"{settings.seed}:{i}")
        picked = [v for v in range(1, n + 1) if rng.random() < keep]
        t = len(picked) % k
        if t:
            drop = set(rng.sample(picked, t))
            picked = [v for v in picked if v not in drop]
        copies.append(tuple(picked))
    return SampleFamily(host=H, copies=tuple(copies))


def chernoff_band(n: int, p, fail_prob: float) -> tuple[float, float]:
    """Band (mu - lam_lo, mu + lam_up) for Bin(n, p), mu = np, with each tail
    at most fail_prob: it inverts the Chernoff bounds exp(-lam^2/(2 mu)) and
    exp(-lam^2/(3 mu)), which need lam < (3/2) mu, and raises
    InvalidQueryError for a wider band. mu = 0 gives (0, 0)."""
    [n] = _integers(n=n)
    if n < 0 or not (isinstance(p, Real) and 0 <= p <= 1):
        raise InvalidQueryError(f"need n >= 0 and p a real number in [0,1], got n={n}, p={p!r}")
    if not (isinstance(fail_prob, Real) and 0 < fail_prob < 1):
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
    return mu - lam_lo, mu + lam_up
