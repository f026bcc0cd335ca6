"""k-uniform hypergraph kernel.

Representation, degrees, links, induced subgraphs, exact independence
number, the stability (downward-closure) test, the plain-text graph format
used by the CLI, and the node budget that every exponential search obeys.

Vertices are the integers 1..n throughout. Edges are sorted k-tuples.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Iterable, Sequence

from .errors import BudgetExceededError, InvalidQueryError

EdgeT = tuple[int, ...]

NODE_BUDGET_ENV = "HYPERMATCH_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 10**8


def node_budget() -> int:
    """Branch-node budget per exponential search, from the environment."""
    raw = os.environ.get(NODE_BUDGET_ENV)
    if not raw:
        return DEFAULT_NODE_BUDGET
    if not (raw.isdecimal() and int(raw) > 0):
        raise InvalidQueryError(f"{NODE_BUDGET_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _check_shape(n: int, k: int) -> None:
    if k < 2:
        raise InvalidQueryError(f"uniformity k must be >= 2, got {k}")
    if n < 0:
        raise InvalidQueryError(f"vertex count must be >= 0, got {n}")


class KGraph:
    """Immutable k-uniform hypergraph on vertex set {1, ..., n}.

    The edges, in lexicographic order, have two forms: `edges`, a tuple of
    ascending k-tuples, and `edge_array`, an (e, k) int32 numpy array. A
    graph keeps the form it was built from (the tuple, or the array for
    `_from_array`) and builds the other on first use; `num_edges` reads
    whichever is present. A hash-set membership index, per-edge vertex
    bitmasks and per-vertex incidence lists are built lazily too and shared
    by every operation, so instances are cheap to pass around and safe to
    share across concurrent readers. Assigning or deleting any attribute
    raises AttributeError.
    """

    n: int
    k: int

    def __init__(self, n: int, k: int, edges: Iterable[Sequence[int]], validate: bool = True):
        _check_shape(n, k)
        if validate:
            canon = set()
            for e in edges:
                t = tuple(sorted(e))
                if len(t) != k or len(set(t)) != k:
                    raise InvalidQueryError(f"edge {t!r} is not a set of {k} distinct vertices")
                if t[0] < 1 or t[-1] > n:
                    raise InvalidQueryError(f"edge {t!r} out of vertex range 1..{n}")
                canon.add(t)
            edges = tuple(sorted(canon))
        else:
            edges = tuple(tuple(e) for e in edges)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"KGraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"KGraph is immutable; cannot delete {name!r}")

    @classmethod
    def _from_sorted(cls, n: int, k: int, edges: Iterable[Sequence[int]]) -> "KGraph":
        """Trusted constructor: edges must already be canonical (sorted, unique)."""
        return cls(n, k, edges, validate=False)

    @classmethod
    def _from_array(cls, n: int, k: int, arr) -> "KGraph":
        """Trusted constructor: arr must be a canonical (lexicographically
        sorted, unique rows) C-contiguous int32 (e, k) array of vertices."""
        _check_shape(n, k)
        H = cls.__new__(cls)
        object.__setattr__(H, "n", n)
        object.__setattr__(H, "k", k)
        object.__setattr__(H, "edge_array", arr)
        return H

    @property
    def num_edges(self) -> int:
        d = vars(self)
        return len(d["edges"]) if "edges" in d else len(self.edge_array)

    @cached_property
    def edges(self) -> tuple[EdgeT, ...]:
        """Edges as a lexicographic tuple of ascending k-tuples, built from
        edge_array in blocks of rows, so that neither full column lists nor
        a list of the tuples is held beside the result."""
        arr = self.edge_array
        blocks = (arr[i : i + 4096].T.tolist() for i in range(0, len(arr), 4096))
        return tuple(chain.from_iterable(zip(*cols) for cols in blocks))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def edge_set(self) -> frozenset[EdgeT]:
        return frozenset(self.edges)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Bitmask per edge; bit v set iff vertex v is in the edge."""
        masks = []
        for e in self.edges:
            m = 0
            for v in e:
                m |= 1 << v
            masks.append(m)
        return tuple(masks)

    @cached_property
    def vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex v (index v-1), the indices of edges containing v."""
        incidence: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                incidence[v - 1].append(i)
        return tuple(tuple(lst) for lst in incidence)

    @cached_property
    def edge_array(self):
        """Edges as an (e, k) int32 numpy array, for vectorized samplers."""
        import numpy as np

        flat = np.fromiter(
            (v for e in self.edges for v in e), dtype=np.int32, count=self.k * len(self.edges)
        )
        return flat.reshape(len(self.edges), self.k)

    @cached_property
    def regularity_stats(self) -> tuple[int, int, float, int]:
        """(min vertex degree, max vertex degree, average degree k*e/n, max
        pair codegree), the tau-free part of the nibble's regularity gate;
        all zero for an edgeless graph."""
        import numpy as np

        e = self.num_edges
        if not e:
            return 0, 0, 0.0, 0
        arr = self.edge_array
        n, k = self.n, self.k
        degs = np.bincount(arr.ravel(), minlength=n + 1)[1:]
        codes = np.concatenate(
            [arr[:, a].astype(np.int64) * (n + 1) + arr[:, b] for a in range(k) for b in range(a + 1, k)]
        )
        counts = np.unique(codes, return_counts=True)[1]
        return int(degs.min()), int(degs.max()), k * e / n, int(counts.max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, KGraph):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.edges))

    def __repr__(self) -> str:
        return f"KGraph(n={self.n}, k={self.k}, e={self.num_edges})"


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, kept in canonical sorted order."""

    edges: tuple[EdgeT, ...]

    @classmethod
    def from_edges(cls, edges: Iterable[Sequence[int]]) -> "Matching":
        return cls(tuple(sorted(tuple(sorted(e)) for e in edges)))

    def vertices(self) -> set[int]:
        return {v for e in self.edges for v in e}

    def __len__(self) -> int:
        return len(self.edges)


def _vertex_range_check(H: KGraph, vs: Iterable[int], what: str) -> None:
    for v in vs:
        if not 1 <= v <= H.n:
            raise InvalidQueryError(f"{what} contains vertex {v} outside 1..{H.n}")


def degree(H: KGraph, T: Iterable[int]) -> int:
    """Number of edges of H containing every vertex of T.

    degree(H, {}) is e(H); degree(H, {v}) is the vertex degree of v.
    """
    ts = set(T)
    if len(ts) > H.k:
        raise InvalidQueryError(f"|T| = {len(ts)} exceeds uniformity k = {H.k}")
    _vertex_range_check(H, ts, "T")
    if not ts:
        return H.num_edges
    if len(ts) == 1:
        (v,) = ts
        return len(H.vertex_edges[v - 1])
    mask = 0
    for v in ts:
        mask |= 1 << v
    return sum(1 for m in H.edge_masks if m & mask == mask)


def _l_degrees(H: KGraph, l: int) -> Iterable[int]:
    if l == 0:
        yield H.num_edges
        return
    if l == 1:
        for v in H.vertices():
            yield len(H.vertex_edges[v - 1])
        return
    masks = H.edge_masks
    for T in combinations(H.vertices(), l):
        tmask = 0
        for v in T:
            tmask |= 1 << v
        yield sum(1 for m in masks if m & tmask == tmask)


def _check_l(H: KGraph, l: int) -> None:
    if l < 0 or l > H.k - 1:
        raise InvalidQueryError(f"l must satisfy 0 <= l <= k-1 = {H.k - 1}, got {l}")
    if l >= 1 and H.n < l:
        raise InvalidQueryError(f"no l-subsets: n = {H.n} < l = {l}")


def min_l_degree(H: KGraph, l: int) -> int:
    """Minimum, over all l-subsets T of the vertex set, of degree(H, T)."""
    _check_l(H, l)
    return min(_l_degrees(H, l))


def max_l_degree(H: KGraph, l: int) -> int:
    """Maximum, over all l-subsets T of the vertex set, of degree(H, T)."""
    _check_l(H, l)
    return max(_l_degrees(H, l))


def link(H: KGraph, v: int) -> KGraph:
    """The (k-1)-graph of neighborhoods of v, on the other n-1 vertices.

    Remaining vertices are relabeled 1..n-1 preserving order (w stays w for
    w < v, and becomes w-1 for w > v).
    """
    if not 1 <= v <= H.n:
        raise InvalidQueryError(f"vertex {v} outside 1..{H.n}")
    if H.k < 3:
        raise InvalidQueryError("link of a 2-graph would not be 2-uniform")
    edges = []
    for i in H.vertex_edges[v - 1]:
        e = H.edges[i]
        edges.append(tuple(w if w < v else w - 1 for w in e if w != v))
    return KGraph._from_sorted(H.n - 1, H.k - 1, sorted(edges))


def induced(H: KGraph, S: Iterable[int]) -> KGraph:
    """Subgraph on S with edges fully inside S, relabeled 1..|S| in vertex order."""
    ss = sorted(set(S))
    _vertex_range_check(H, ss, "S")
    pos = {v: i + 1 for i, v in enumerate(ss)}
    smask = 0
    for v in ss:
        smask |= 1 << v
    edges = []
    for e, m in zip(H.edges, H.edge_masks):
        if m & smask == m:
            edges.append(tuple(pos[v] for v in e))
    return KGraph._from_sorted(len(ss), H.k, sorted(edges))


def remove(H: KGraph, S: Iterable[int]) -> KGraph:
    """H minus the vertices of S and every edge meeting S; same as induced on V - S."""
    ss = set(S)
    _vertex_range_check(H, ss, "S")
    return induced(H, (v for v in H.vertices() if v not in ss))


def _greedy_block_cover_bound(H: KGraph, candidates: Sequence[int]) -> int:
    """Upper bound on the independence number of H restricted to candidates.

    Greedily partitions the candidates into blocks spanning complete
    sub-k-graphs (ties broken by lowest vertex index); an independent set
    meets a complete block on s >= k vertices in at most k-1 of them.
    """
    k = H.k
    es = H.edge_set
    blocks: list[list[int]] = []
    for v in candidates:
        placed = False
        for blk in blocks:
            if len(blk) < k - 1 or all(
                tuple(sorted(sub + (v,))) in es for sub in combinations(blk, k - 1)
            ):
                blk.append(v)
                placed = True
                break
        if not placed:
            blocks.append([v])
    return sum(min(len(blk), k - 1) for blk in blocks)


def independence_number(H: KGraph) -> int:
    """Exact size of a largest independent set (no edge fully inside).

    Branch and bound over vertices in ascending order, pruned by a greedy
    complete-block cover bound precomputed for every suffix. Runtime is
    exponential in the worst case; intended for n up to about 40 at k = 3.
    Raises BudgetExceededError once the search passes node_budget() nodes.
    """
    n = H.n
    budget = node_budget()
    if not H.edges:
        return n
    # edge masks restricted to "other vertices" per highest vertex of the edge,
    # so membership completion can be tested when that vertex is added last
    completing: list[list[int]] = [[] for _ in range(n + 1)]
    for e, m in zip(H.edges, H.edge_masks):
        top = e[-1]
        completing[top].append(m & ~(1 << top))
    suffix_bound = [0] * (n + 2)
    for start in range(n, 0, -1):
        suffix_bound[start] = _greedy_block_cover_bound(H, range(start, n + 1))

    best = 0
    nodes = 0

    def walk(idx: int, chosen_mask: int, count: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("independence_number node budget exceeded", nodes=nodes)
        if count > best:
            best = count
        if idx > n:
            return
        if count + min(n - idx + 1, suffix_bound[idx]) <= best:
            return
        # include idx unless it completes an edge within chosen
        blocked = any(m & chosen_mask == m for m in completing[idx])
        if not blocked:
            walk(idx + 1, chosen_mask | (1 << idx), count + 1)
        walk(idx + 1, chosen_mask, count)

    walk(1, 0, 0)
    return best


def _decrements(e: EdgeT) -> Iterable[EdgeT]:
    """The sorted k-sets made from e by lowering one vertex by 1 into an
    unoccupied value: the covering relations of the dominance order."""
    prev = 0
    for i, v in enumerate(e):
        if v - 1 > prev:
            yield e[:i] + (v - 1,) + e[i + 1 :]
        prev = v


def is_stable(H: KGraph) -> bool:
    """Whether the edge set is closed downward under coordinatewise dominance.

    Checks, for every edge, all single-coordinate decrements; closure under
    the covering relations of the dominance order is closure under the
    full order.
    """
    es = H.edge_set
    return all(dec in es for e in H.edges for dec in _decrements(e))


def stable_closure(H: KGraph) -> KGraph:
    """Smallest stable hypergraph containing H (closure under decrements)."""
    seen = set(H.edges)
    stack = list(H.edges)
    while stack:
        for dec in _decrements(stack.pop()):
            if dec not in seen:
                seen.add(dec)
                stack.append(dec)
    return KGraph._from_sorted(H.n, H.k, sorted(seen))


def verify_matching(H: KGraph, M: Matching) -> bool:
    """True iff every member is a host edge and members are pairwise disjoint."""
    used = 0
    for e in M.edges:
        if e not in H.edge_set:
            return False
        m = 0
        for v in e:
            m |= 1 << v
        if m & used:
            return False
        used |= m
    return True


def handshake_bound(H: KGraph, l: int):
    """The average l-degree e(H) * C(k,l) / C(n,l), exact as a Fraction."""
    from fractions import Fraction

    if comb(H.n, l) == 0:
        raise InvalidQueryError(f"C({H.n},{l}) = 0")
    return Fraction(H.num_edges * comb(H.k, l), comb(H.n, l))


# -- plain-text graph format ------------------------------------------------
#
# First line "k n"; one edge per line as k ascending space-separated 1-based
# vertex indices; lines starting with '#' are ignored. format_graph emits the
# canonical form (edges in lexicographic order), so parse/format round-trips
# are byte-exact.


def format_graph(H: KGraph) -> str:
    lines = [f"{H.k} {H.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in H.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> KGraph:
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nums = tuple(int(p) for p in line.split())
        except ValueError:
            raise InvalidQueryError(f"line {lineno}: expected integers, got {line!r}") from None
        if header is None:
            if len(nums) != 2:
                raise InvalidQueryError(f"line {lineno}: header must be 'k n'")
            header = nums
            continue
        k = header[0]
        if len(nums) != k:
            raise InvalidQueryError(f"line {lineno}: expected {k} vertices, got {len(nums)}")
        if any(nums[i] >= nums[i + 1] for i in range(k - 1)):
            raise InvalidQueryError(f"line {lineno}: edge not in ascending order")
        edges.append(nums)
    if header is None:
        raise InvalidQueryError("empty graph file (missing 'k n' header)")
    k, n = header
    return KGraph(n, k, edges)

