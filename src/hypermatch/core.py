"""k-uniform hypergraph kernel.

Representation, vertex-set masks, degrees, links, induced subgraphs, exact
independence number, the stability (downward-closure) test, the plain-text
graph format used by the CLI, the JSON-ready copy of records, and the node
budget that every exponential search obeys.

Vertices are the integers 1..n throughout. Edges are sorted k-tuples.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, combinations, compress
from numbers import Real
from operator import index, ne
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


def _integers(**sizes) -> list[int]:
    """The named size arguments as ints (numpy and bool integers become int)."""
    try:
        return [index(v) for v in sizes.values()]
    except TypeError:
        got = ", ".join(f"{name}={v!r}" for name, v in sizes.items())
        raise InvalidQueryError(f"sizes must be integers, got {got}") from None


def _unit_interval(name: str, x):
    """x itself, once it is checked to be a real number with 0 <= x <= 1."""
    if not (isinstance(x, Real) and 0 <= x <= 1):
        raise InvalidQueryError(f"need 0 <= {name} <= 1, got {x}")
    return x


def _check_shape(n: int, k: int) -> tuple[int, int]:
    """(n, k) as ints, once k >= 2 and n >= 0 are checked."""
    n, k = _integers(n=n, k=k)
    if k < 2:
        raise InvalidQueryError(f"uniformity k must be >= 2, got {k}")
    if n < 0:
        raise InvalidQueryError(f"vertex count must be >= 0, got {n}")
    return n, k


def _plain(v):
    """JSON-ready copy: Fractions as "p/q", tuples as lists, dict keys sorted."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


class KGraph:
    """Immutable k-uniform hypergraph on vertex set {1, ..., n}.

    The edges, in lexicographic order, have two forms: `edges`, a tuple of
    ascending k-tuples, and `edge_array`, an (e, k) int32 numpy array. A
    graph keeps the form it was built from (the tuple, or the array for
    `_from_array`) and builds the other on first use; `num_edges` reads
    whichever is present. A hash-set membership index, per-edge vertex
    bitmasks, per-vertex incidence lists and degrees, and the (k-1)-prefix
    index that the exact LP prices edges through are built lazily too and
    shared by every operation, so instances are cheap to pass around and
    safe to share across concurrent readers. A join_clique graph holds `_top_split
    = (r, base)`: every k-set meeting its top r vertices is an edge, and the
    rest are base's edges; every other graph reads the class default None.
    Assigning or deleting any attribute raises AttributeError.
    """

    n: int
    k: int
    _top_split: tuple[int, KGraph] | None = None

    def __init__(self, n: int, k: int, edges: Iterable[Sequence[int]]):
        n, k = _check_shape(n, k)
        canon = set()
        for e in edges:
            try:
                t = tuple(sorted(map(index, e)))  # numpy and bool integers become int
            except TypeError as ex:
                raise InvalidQueryError(f"edge {e!r}: vertices must be integers ({ex})") from None
            if len(t) != k or len(set(t)) != k:
                raise InvalidQueryError(f"edge {t!r} is not a set of {k} distinct vertices")
            if t[0] < 1 or t[-1] > n:
                raise InvalidQueryError(f"edge {t!r} out of vertex range 1..{n}")
            canon.add(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def __setattr__(self, name, value):
        raise AttributeError(f"KGraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"KGraph is immutable; cannot delete {name!r}")

    @classmethod
    def _from_sorted(cls, n: int, k: int, edges: Iterable[EdgeT]) -> "KGraph":
        """Trusted constructor: (n, k) must already be checked (_check_shape) and
        edges canonical (sorted, unique)."""
        return cls._trusted(n, k, "edges", tuple(edges))

    @classmethod
    def _from_array(cls, n: int, k: int, arr) -> "KGraph":
        """Trusted constructor: (n, k) as for _from_sorted, arr a canonical (lexicographically
        sorted, unique rows) C-contiguous int32 (e, k) array of vertices."""
        return cls._trusted(n, k, "edge_array", arr)

    @classmethod
    def _trusted(cls, n: int, k: int, form: str, edges) -> "KGraph":
        H = cls.__new__(cls)
        object.__setattr__(H, "n", n)
        object.__setattr__(H, "k", k)
        object.__setattr__(H, form, edges)
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
        # _mask inlined: a call per edge costs exact_nu and the pipeline 1-2 %
        masks = []
        for e in self.edges:
            m = 0
            for v in e:
                m |= 1 << v
            masks.append(m)
        return tuple(masks)

    @cached_property
    def _prefix_index(self) -> tuple[list[tuple[int, ...]], list[int], tuple[int, ...]]:
        """(cols, owner, last): edge i is prefix owner[i] plus vertex last[i]; prefix j
        has vertices cols[0][j], ..., cols[k-2][j]. Lexicographic edges list each (k-1)-
        prefix once, in one run; prefix 0 is a vertex-0 pad; owner shares one int per prefix."""
        *head_cols, last = list(zip(*self.edges)) or [()] * self.k
        heads = list(zip(*head_cols))
        firsts = list(map(ne, heads, [None, *heads]))
        owner = map(list(range(len(heads) + 1)).__getitem__, accumulate(firsts))
        return [(0, *compress(c, firsts)) for c in head_cols], list(owner), last

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

    @cached_property
    def _vertex_degrees(self) -> tuple[int, ...]:
        """deg[v] for each vertex v (deg[0] = 0), counted from edges alone."""
        deg = [0] * (self.n + 1)
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return tuple(deg)

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


def _mask(vs: Iterable[int]) -> int:
    """Bitmask of a vertex set: bit v set iff v is in vs."""
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _vertex_range_check(H: KGraph, vs: Iterable[int], what: str) -> list[int]:
    """The vertices vs as ints, once each is checked to lie in 1..n."""
    ints = []
    for v in vs:
        try:
            ints.append(index(v))  # numpy and bool integers become int
        except TypeError:
            raise InvalidQueryError(f"{what} contains non-integer vertex {v!r}") from None
        if not 1 <= ints[-1] <= H.n:
            raise InvalidQueryError(f"{what} contains vertex {v} outside 1..{H.n}")
    return ints


def degree(H: KGraph, T: Iterable[int]) -> int:
    """Number of edges of H containing every vertex of T.

    degree(H, {}) is e(H); degree(H, {v}) is the vertex degree of v.
    """
    ts = set(T)
    if len(ts) > H.k:
        raise InvalidQueryError(f"|T| = {len(ts)} exceeds uniformity k = {H.k}")
    ts = _vertex_range_check(H, ts, "T")
    if not ts:
        return H.num_edges
    if len(ts) == 1:
        (v,) = ts
        return H._vertex_degrees[v]
    mask = _mask(ts)
    return sum(1 for m in H.edge_masks if m & mask == mask)


def _check_l(H: KGraph, l: int) -> int:
    """l as an int, once 0 <= l <= k-1 and n >= l are checked."""
    [l] = _integers(l=l)
    if l < 0 or l > H.k - 1:
        raise InvalidQueryError(f"l must satisfy 0 <= l <= k-1 = {H.k - 1}, got {l}")
    if l >= 1 and H.n < l:
        raise InvalidQueryError(f"no l-subsets: n = {H.n} < l = {l}")
    return l


def min_l_degree(H: KGraph, l: int) -> int:
    """Minimum, over all l-subsets T of the vertex set, of degree(H, T)."""
    l = _check_l(H, l)
    if l == 1:  # the paper's delta_1, read off the cached vertex degrees
        return min(H._vertex_degrees[1:])
    return min(degree(H, T) for T in combinations(H.vertices(), l))


def link(H: KGraph, v: int) -> KGraph:
    """The (k-1)-graph of neighborhoods of v, on the other n-1 vertices.

    Remaining vertices are relabeled 1..n-1 preserving order (w stays w for
    w < v, and becomes w-1 for w > v).
    """
    [v] = _vertex_range_check(H, [v], "[v]")
    if H.k < 3:
        raise InvalidQueryError("link of a 2-graph would not be 2-uniform")
    edges = [tuple(w if w < v else w - 1 for w in H.edges[i] if w != v) for i in H.vertex_edges[v - 1]]
    return KGraph._from_sorted(H.n - 1, H.k - 1, sorted(edges))


def induced(H: KGraph, S: Iterable[int]) -> KGraph:
    """Subgraph on S with edges fully inside S, relabeled 1..|S| in vertex order."""
    ss = sorted(set(_vertex_range_check(H, S, "S")))
    pos = {v: i + 1 for i, v in enumerate(ss)}
    smask = _mask(ss)
    edges = [tuple(pos[v] for v in e) for e, m in zip(H.edges, H.edge_masks) if m & smask == m]
    return KGraph._from_sorted(len(ss), H.k, sorted(edges))


def _greedy_block_cover_bound(H: KGraph, candidates: Sequence[int]) -> int:
    """Upper bound on the independence number of H restricted to candidates.

    Greedily partitions the candidates into blocks spanning complete
    sub-k-graphs (ties broken by lowest vertex index); an independent set
    meets a complete block on s >= k vertices in at most k-1 of them.
    Candidates must ascend: each block then ascends, and v comes after
    every member, so sub + (v,) is already a sorted edge.
    """
    k = H.k
    es = H.edge_set
    blocks: list[list[int]] = []
    for v in candidates:
        for blk in blocks:
            if len(blk) < k - 1 or all(sub + (v,) in es for sub in combinations(blk, k - 1)):
                blk.append(v)
                break
        else:
            blocks.append([v])
    return sum(min(len(blk), k - 1) for blk in blocks)


def independence_number(H: KGraph) -> int:
    """Exact size of a largest independent set (no edge fully inside).

    Branch and bound over vertices in ascending order, pruned by a greedy
    complete-block cover bound precomputed for every suffix. Runtime is
    exponential in the worst case; intended for n up to about 100 at k = 3.
    Raises BudgetExceededError once the search passes node_budget() nodes.
    """
    n = H.n
    budget = node_budget()
    if not H.edges:
        return n
    # tail[P]: mask of the top vertices of the edges whose other vertices are
    # P; a vertex is forbidden once an edge's other vertices are all chosen
    tail: dict[EdgeT, int] = {}
    for e in H.edges:
        tail[e[:-1]] = tail.get(e[:-1], 0) | 1 << e[-1]
    suffix_bound = [0] * (n + 2)
    for start in range(n, 0, -1):
        suffix_bound[start] = _greedy_block_cover_bound(H, range(start, n + 1))

    best = 0
    nodes = 0

    def walk(idx: int, chosen: tuple[int, ...], forbidden: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("independence_number node budget exceeded", nodes=nodes)
        count = len(chosen)
        if count > best:
            best = count
        # the block bound never exceeds its candidate count, and
        # suffix_bound[n + 1] == 0 ends the walk past the last vertex
        if count + suffix_bound[idx] <= best:
            return
        if not forbidden >> idx & 1:
            f = forbidden
            for T in combinations(chosen, H.k - 2):
                f |= tail.get(T + (idx,), 0)
            walk(idx + 1, chosen + (idx,), f)
        walk(idx + 1, chosen, forbidden)

    try:
        walk(1, (), 0)
    finally:
        del walk  # walk holds itself through its closure cell
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


def verify_matching(H: KGraph, M: Matching) -> bool:
    """True iff every member is a host edge and members are pairwise disjoint."""
    used = 0
    for e in M.edges:
        if e not in H.edge_set:
            return False
        m = _mask(e)
        if m & used:
            return False
        used |= m
    return True


# -- plain-text graph format ------------------------------------------------
#
# First line "k n"; one edge per line as k ascending space-separated 1-based
# vertex indices; lines starting with '#' are ignored. format_graph emits the
# canonical form (edges in lexicographic order), so parse/format round-trips
# are byte-exact.


def format_graph(H: KGraph) -> str:
    edges = H.edges
    row = " ".join(["%d"] * H.k) + "\n"
    parts = [f"{H.k} {H.n}\n"]
    for i in range(0, len(edges), 4096):
        blk = edges[i : i + 4096]
        parts.append(row * len(blk) % tuple(chain.from_iterable(blk)))
    return "".join(parts)


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

