from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import (
    KGraph,
    build_Hkl,
    build_Hknm,
    complete,
    degree,
    format_graph,
    join_clique,
    min_l_degree,
    parity_construction,
    random_kgraph,
    random_kgraph_conditioned,
    space_barrier,
    vertex_degree_threshold,
)
from hypermatch.constructions import (
    VertexPartition,
    _draw_threshold,
    template_edge_count,
)
from hypermatch.errors import InvalidQueryError, SamplingExhaustedError


class TestBuildHkl:
    def test_w2_n9_l2_edge_count(self):
        # enumeration oracle: C(2,1)C(7,2) + C(2,2)C(7,1) = 42 + 7 = 49
        H = build_Hkl(range(3, 10), (1, 2), 3, 2)
        expected = oracles.brute_template_edges(9, 3, (1, 2), 2)
        assert len(expected) == 49
        assert set(H.edges) == expected

    def test_w3_n9_l2_edge_count(self):
        H = build_Hkl(range(4, 10), (1, 2, 3), 3, 2)
        assert len(H.edges) == 63  # 3*C(6,2) + 3*C(6,1)

    def test_empty_W_is_edgeless(self):
        H = build_Hkl(range(1, 8), (), 3, 2)
        assert H.edges == ()

    def test_single_edge_degenerate(self):
        H = build_Hkl((), (1, 2, 3), 3, 3)
        assert H.edges == ((1, 2, 3),)

    def test_l_range(self):
        with pytest.raises(InvalidQueryError):
            build_Hkl(range(2, 6), (1,), 3, 0)
        with pytest.raises(InvalidQueryError):
            build_Hkl(range(2, 6), (1,), 3, 4)

    def test_monotone_in_l(self):
        for l in (1, 2):
            a = build_Hkl(range(4, 11), (1, 2, 3), 4, l)
            b = build_Hkl(range(4, 11), (1, 2, 3), 4, l + 1)
            assert set(a.edges) <= set(b.edges)

    def test_closed_form_count(self):
        for (u, w, k, l) in [(7, 2, 3, 2), (6, 3, 4, 3), (5, 4, 3, 1)]:
            H = build_Hkl(range(w + 1, w + u + 1), range(1, w + 1), k, l)
            assert len(H.edges) == template_edge_count(u, w, k, l)


class TestBuildHknm:
    def test_9_3_3(self):
        H, part = build_Hknm(9, 3, 3)
        assert part.W == (1, 2) and part.U == tuple(range(3, 10))
        assert min_l_degree(H, 1) == 13 == vertex_degree_threshold(9, 3, 3)
        assert oracles.brute_nu(H.edges) == 2

    def test_m1_edgeless(self):
        H, _ = build_Hknm(8, 3, 1)
        assert H.edges == ()

    @pytest.mark.parametrize("n, k", [(2, 2), (5, 2), (3, 3), (8, 3), (4, 4), (9, 4)])
    def test_m1_is_the_edgeless_graph(self, n, k):
        H, part = build_Hknm(n, k, 1)
        assert H == KGraph(n, k, []) and part == VertexPartition(tuple(range(1, n + 1)), ())

    def test_uniformity_below_two_names_k(self):
        with pytest.raises(InvalidQueryError, match=r"^uniformity k must be >= 2, got 1$"):
            build_Hknm(5, 1, 1)

    def test_7_3_2(self):
        H, _ = build_Hknm(7, 3, 2)
        assert min_l_degree(H, 1) == 5 == comb(6, 2) - comb(5, 2)
        assert oracles.brute_nu(H.edges) == 1

    def test_threshold_identity_on_grid(self):
        for k in (3, 4):
            for n in range(k + 2, 12):
                for m in range(2, n // k + 1):
                    H, _ = build_Hknm(n, k, m)
                    assert min_l_degree(H, 1) == vertex_degree_threshold(n, k, m)

    def test_subgraph_of_full_l(self):
        Hm1, _ = build_Hknm(9, 3, 3)
        full = build_Hkl(range(3, 10), (1, 2), 3, 3)
        assert set(Hm1.edges) <= set(full.edges)


class TestComplete:
    def test_counts(self):
        assert len(complete(6, 3).edges) == 20
        assert len(complete(4, 4).edges) == 1
        assert min_l_degree(complete(5, 3), 1) == 6

    def test_too_small(self):
        with pytest.raises(InvalidQueryError):
            complete(2, 3)

    def test_uniformity_below_two(self):
        with pytest.raises(InvalidQueryError, match="k must be >= 2"):
            complete(5, 1)

    @pytest.mark.parametrize(
        "n, k", [(2, 2), (9, 2), (3, 3), (8, 3), (4, 4), (9, 4), (30, 4), (5, 5), (11, 5)]
    )
    def test_array_born_matches_oracle(self, n, k):
        ref = oracles.complete(n, k)
        H = complete(n, k)
        assert H.edge_array.dtype == np.int32 and H.edge_array.flags.c_contiguous
        assert np.array_equal(H.edge_array, ref.edge_array)
        assert H.edges == ref.edges
        assert format_graph(H).encode() == format_graph(ref).encode()
        assert format_graph(H).encode() == oracles.format_graph(ref).encode()
        fresh = complete(n, k)
        assert fresh == ref and hash(fresh) == hash(ref)
        assert ref == complete(n, k)
        for name, value in (("edges", ref.edges), ("edge_array", ref.edge_array), ("n", n + 1)):
            with pytest.raises(AttributeError):
                setattr(complete(n, k), name, value)
        with pytest.raises(AttributeError):
            del H.edges


class TestJoinClique:
    def test_edgeless_base(self):
        H = join_clique(KGraph(4, 3, []), 2)
        assert H.n == 6
        assert len(H.edges) == 16  # C(6,3) - C(4,3)

    def test_r0_identity(self):
        H = complete(5, 3)
        assert join_clique(H, 0) is H

    def test_new_vertex_has_full_degree(self):
        base = KGraph(5, 3, [(1, 2, 3)])
        H = join_clique(base, 3)
        for q in (6, 7, 8):
            assert degree(H, {q}) == comb(H.n - 1, 2)

    def test_restriction_to_original_vertices(self):
        from hypermatch import induced

        base = build_Hknm(8, 3, 2)[0]
        H = join_clique(base, 3)
        assert induced(H, range(1, 9)) == base


class TestParity:
    def test_3_3_3(self):
        H = parity_construction(3, 3, 3)
        assert len(H.edges) == 10
        assert set(H.edges) == {
            e for e in combinations(range(1, 7), 3) if sum(1 for v in e if v <= 3) % 2 == 0
        }
        assert oracles.brute_nu(H.edges) == 1

    def test_degenerate_small_A(self):
        H = parity_construction(1, 3, 4)
        assert H.edges == ()  # |f & A| = 0 needs 4 of the 3 B-vertices

    @pytest.mark.parametrize("a, b", [(5, -2), (-1, 4), (-3, -3)])
    def test_negative_part_sizes_are_rejected(self, a, b):
        with pytest.raises(InvalidQueryError):
            parity_construction(a, b, 3)

    def test_warns_on_unintended_parameters(self):
        with pytest.warns(UserWarning):
            parity_construction(2, 2, 3)

    def test_no_perfect_matching_when_a_odd(self):
        for (a, b, k) in [(3, 3, 3), (5, 4, 3)]:
            if (a + b) % k == 0:
                H = parity_construction(a, b, k)
                assert oracles.brute_nu(H.edges) < (a + b) // k

    def test_pairwise_even_intersection_sum(self):
        H = parity_construction(3, 3, 3)
        for e in H.edges:
            for f in H.edges:
                s = sum(1 for v in e if v <= 3) + sum(1 for v in f if v <= 3)
                assert s % 2 == 0


class TestSpaceBarrier:
    def test_6_3(self):
        H = space_barrier(6, 3)
        assert len(H.edges) == 10  # C(6,3) - C(5,3)
        assert oracles.brute_nu(H.edges) == 1

    def test_requires_divisibility(self):
        with pytest.raises(InvalidQueryError):
            space_barrier(7, 3)

    @pytest.mark.parametrize("n, k", [(0, 3), (2, 2), (6, 2), (3, 3), (9, 3), (12, 3), (4, 4), (12, 4)])
    def test_matches_definition(self, n, k):
        # the complete k-graph minus every edge inside {1..n-n/k+1}
        cutoff = n - n // k + 1
        expected = [e for e in combinations(range(1, n + 1), k) if not set(e) <= set(range(1, cutoff + 1))]
        assert space_barrier(n, k) == KGraph(n, k, expected)

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_uniformity_below_two(self, k):
        with pytest.raises(InvalidQueryError):
            space_barrier(6, k)

    def test_never_perfect(self):
        for n, k in [(6, 3), (9, 3), (8, 4)]:
            H = space_barrier(n, k)
            assert oracles.brute_nu(H.edges) < n // k


class TestThresholds:
    def test_vertex_degree_values(self):
        assert vertex_degree_threshold(9, 3, 3) == 13
        assert vertex_degree_threshold(7, 3, 2) == 5
        assert vertex_degree_threshold(10, 4, 1) == 0


class TestSizeArguments:
    @pytest.mark.parametrize(
        "build, args, named",
        [
            (build_Hknm, (9, 3, 2.5), "m=2.5"),
            (join_clique, (complete(5, 3), 1.5), "r=1.5"),
            (build_Hkl, ((3, 4, 5), (1, 2), 3, 2.0), "l=2.0"),
            (vertex_degree_threshold, (9, 3, 2.5), "m=2.5"),
            (parity_construction, ("3", 4, 3), "a='3'"),
            (random_kgraph_conditioned, (9, 3, 2, 2.5), "tries=2.5"),
        ],
        ids=["hknm-m", "join-r", "hkl-l", "threshold-m", "parity-a-str", "conditioned-tries"],
    )
    def test_non_integer_size_is_rejected(self, build, args, named):
        with pytest.raises(InvalidQueryError, match="must be integers") as info:
            build(*args)
        assert named in str(info.value)

    @pytest.mark.parametrize(
        "build, args",
        [
            (join_clique, (complete(5, 3), -1)),
            (build_Hknm, (5, 3, 4)),
            (vertex_degree_threshold, (5, 3, 4)),
            (random_kgraph_conditioned, (9, 3, 2, -5)),
        ],
        ids=[
            "join-r-negative", "hknm-m-too-large", "threshold-m-too-large",
            "conditioned-tries-negative",
        ],
    )
    def test_out_of_range_size_is_rejected(self, build, args):
        with pytest.raises(InvalidQueryError, match="need"):
            build(*args)

    @pytest.mark.parametrize(
        "build", [build_Hknm, vertex_degree_threshold, random_kgraph_conditioned],
        ids=["hknm", "threshold", "conditioned"],
    )
    def test_uniformity_below_two_is_rejected(self, build):
        with pytest.raises(InvalidQueryError, match="uniformity k must be >= 2, got 0"):
            build(9, 0, 2)


# both generators reject these before drawing, so _draw_threshold never sees them
OUT_OF_RANGE_P = [Fraction(-1, 2), Fraction(3, 2), 2, float("inf"), float("nan"), "x"]


class TestRandomGraphs:
    def test_p_extremes(self):
        assert random_kgraph(6, 3, 1, seed=1) == complete(6, 3)
        assert random_kgraph(6, 3, 0, seed=1).edges == ()

    def test_seed_reproducible(self):
        a = random_kgraph(8, 3, 0.4, seed=99)
        b = random_kgraph(8, 3, 0.4, seed=99)
        assert a == b
        c = random_kgraph(8, 3, 0.4, seed=100)
        assert a != c  # overwhelmingly likely; fixed seeds make it deterministic

    def test_conditioned_meets_floor(self):
        H = random_kgraph_conditioned(9, 3, 2, tries=200, seed=5)
        assert min_l_degree(H, 1) >= vertex_degree_threshold(9, 3, 2) + 1

    @pytest.mark.parametrize("p", OUT_OF_RANGE_P)
    def test_conditioned_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(InvalidQueryError, match="need 0 <= p <= 1"):
            random_kgraph_conditioned(7, 3, 2, tries=3, seed=0, p=p)

    @pytest.mark.parametrize("p", OUT_OF_RANGE_P)
    def test_random_kgraph_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(InvalidQueryError, match="need 0 <= p <= 1"):
            random_kgraph(7, 3, p, seed=0)

    def test_conditioned_exhaustion_is_distinct(self):
        with pytest.raises(SamplingExhaustedError):
            random_kgraph_conditioned(9, 3, 2, tries=3, seed=0, p=0)


TWO53 = 2**53

# p as a Fraction (including ones a hair either side of a draw value), a
# float, and the two extremes as ints
probabilities = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.integers(min_value=0, max_value=TWO53).map(lambda j: Fraction(j, TWO53)),
    st.integers(min_value=0, max_value=TWO53 - 1).map(lambda j: Fraction(2 * j + 1, 2 * TWO53)),
    st.floats(min_value=0, max_value=1),
    st.sampled_from([0, 1]),
)


@st.composite
def shapes(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=max(3, k), max_value=12))
    return n, k


class TestDrawThreshold:
    """rng.random() is a / 2**53, so comparing it with the float threshold
    must agree with comparing it with p itself, right at the boundary."""

    @pytest.mark.parametrize(
        "p",
        [Fraction(1, TWO53), Fraction(12345, TWO53), Fraction(TWO53 - 1, TWO53),
         Fraction(1, 2 * TWO53), Fraction(2 * 777 + 1, 2 * TWO53), Fraction(2 * TWO53 - 1, 2 * TWO53),
         Fraction(1, 3), 0.3, Fraction(3, 10), 0, 1],
    )
    def test_boundary_draws(self, p):
        t = _draw_threshold(p)
        c = ceil(Fraction(p) * TWO53)
        for a in (c - 1, c, c + 1):
            assert (a / TWO53 < t) == (Fraction(a, TWO53) < p), (p, a)


class TestGeneratorsMatchOracle:
    """The float-threshold generators keep exactly the k-sets of the
    Fraction-compare generators in tests/oracles.py, seed for seed."""

    @settings(max_examples=150, deadline=None)
    @given(shapes(), probabilities, st.integers(min_value=0, max_value=2**64))
    def test_random_kgraph(self, shape, p, seed):
        n, k = shape
        assert random_kgraph(n, k, p, seed).edges == oracles.random_kgraph(n, k, p, seed).edges

    @settings(max_examples=80, deadline=None)
    @given(
        shapes(),
        st.one_of(probabilities, st.fractions(min_value=-1, max_value=2, max_denominator=100), st.none()),
        st.data(),
        st.integers(min_value=0, max_value=2**64),
    )
    def test_random_kgraph_conditioned(self, shape, p, data, seed):
        n, k = shape
        m = data.draw(st.integers(min_value=1, max_value=n - k + 1))
        if p is not None and not 0 <= p <= 1:
            with pytest.raises(InvalidQueryError, match="need 0 <= p <= 1"):
                random_kgraph_conditioned(n, k, m, tries=4, seed=seed, p=p)
            return
        results = []
        for sample in (random_kgraph_conditioned, oracles.random_kgraph_conditioned):
            try:
                results.append(sample(n, k, m, tries=4, seed=seed, p=p).edges)
            except SamplingExhaustedError as ex:
                results.append(str(ex))
        assert results[0] == results[1]

    def test_default_floor_and_p(self):
        for seed in range(20):
            assert random_kgraph_conditioned(9, 3, 2, tries=50, seed=seed) == (
                oracles.random_kgraph_conditioned(9, 3, 2, tries=50, seed=seed)
            )


class TestVertexPartition:
    def test_rejects_overlap(self):
        with pytest.raises(InvalidQueryError):
            VertexPartition((1, 2), (2, 3))

    def test_rejects_gap(self):
        with pytest.raises(InvalidQueryError):
            VertexPartition((1, 2), (4,))

    def test_rejects_non_integer_vertices(self):
        with pytest.raises(InvalidQueryError):
            VertexPartition((1.0, 2, 3, 4), (5,))
        with pytest.raises(InvalidQueryError):
            build_Hkl((1.0, 2, 3, 4), (5,), 3, 2)

    def test_integer_like_vertices_become_int(self):
        P = VertexPartition((np.int64(2), True), (np.int32(3),))
        assert (P.U, P.W) == ((1, 2), (3,))
        assert {type(v) for v in P.U + P.W} == {int}
