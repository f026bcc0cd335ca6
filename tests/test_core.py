from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import (
    KGraph,
    Matching,
    build_Hknm,
    complete,
    degree,
    format_graph,
    independence_number,
    induced,
    is_stable,
    link,
    min_l_degree,
    parity_construction,
    parse_graph,
    random_kgraph,
    space_barrier,
    verify_matching,
)
from hypermatch.core import DEFAULT_NODE_BUDGET, node_budget
from hypermatch.errors import BudgetExceededError, InvalidQueryError
from hypermatch.lp import clique_window_matching
from hypermatch.matching import NibbleConfig, exact_nu, exact_nu_within, nibble_matching_report


@st.composite
def small_kgraphs(draw, max_n=8, ks=(2, 3), max_edges=25, min_n=None):
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(min_value=k if min_n is None else min_n, max_value=max_n))
    all_edges = list(combinations(range(1, n + 1), k))
    if not all_edges:
        return KGraph(n, k, [])
    edges = draw(st.lists(st.sampled_from(all_edges), max_size=max_edges))
    return KGraph(n, k, edges)


def h933():
    return build_Hknm(9, 3, 3)[0]


class TestKGraphBasics:
    def test_validation_rejects_bad_edges(self):
        with pytest.raises(InvalidQueryError):
            KGraph(4, 3, [(1, 2)])
        with pytest.raises(InvalidQueryError):
            KGraph(4, 3, [(1, 2, 5)])
        with pytest.raises(InvalidQueryError):
            KGraph(4, 3, [(1, 2, 2)])
        with pytest.raises(InvalidQueryError):
            KGraph(4, 1, [(1,)])
        with pytest.raises(InvalidQueryError):
            KGraph(5, 3, [(1, 2, 3.5)])
        with pytest.raises(InvalidQueryError):
            KGraph(5, 3, [(1, 2, "3")])
        with pytest.raises(InvalidQueryError):
            KGraph(5, 3, [3])

    def test_integer_like_vertices_become_int(self):
        H = KGraph(5, 3, [np.array([1, 2, 3]), (True, np.int32(4), np.int64(5))])
        assert H.edges == ((1, 2, 3), (1, 4, 5))
        assert {type(v) for e in H.edges for v in e} == {int}
        _, M = exact_nu(H)
        assert {type(v) for e in M.edges for v in e} == {int}

    @pytest.mark.parametrize(
        "build, args",
        [
            (KGraph, (5.5, 3, [(1, 2, 3)])),
            (KGraph, (4.0, 3, [(1, 2, 3)])),
            (KGraph, (5, 3.0, [(1, 2, 3)])),
            (build_Hknm, (9.0, 3, 2)),
            (space_barrier, (6, 3.0)),
            (parity_construction, (3.0, 4, 3)),
            (complete, (7.5, 3)),
            (random_kgraph, (7.5, 3, 1 / 2, 1)),
            (clique_window_matching, (7.5, 3)),
        ],
        ids=[
            "n-5.5", "n-4.0", "k-3.0", "hknm-n-9.0", "barrier-k-3.0", "parity-a-3.0",
            "complete-n-7.5", "random-n-7.5", "windows-n-7.5",
        ],
    )
    def test_non_integer_shape_is_rejected(self, build, args):
        with pytest.raises(InvalidQueryError, match="must be integers"):
            build(*args)

    @pytest.mark.parametrize(
        "query, args, message",
        [
            (degree, ([1.5],), "non-integer vertex"),
            (induced, ([1.5, 2, 3],), "non-integer vertex"),
            (exact_nu_within, ([1.0, 2, 3],), "non-integer vertex"),
            (link, (2.5,), "non-integer vertex"),
            (min_l_degree, (1.5,), "must be integers"),
        ],
        ids=["degree", "induced", "exact_nu_within", "link", "min_l_degree"],
    )
    def test_non_integer_vertex_or_l_is_rejected(self, query, args, message):
        with pytest.raises(InvalidQueryError, match=message):
            query(complete(9, 3), *args)

    def test_integer_like_shape_becomes_int(self):
        H = KGraph(np.int64(5), np.int32(3), [(1, 2, 3)])
        assert (H.n, H.k) == (5, 3)
        assert (type(H.n), type(H.k)) == (int, int)

    def test_canonicalization_sorts_and_dedups(self):
        H = KGraph(5, 3, [(3, 2, 1), (1, 2, 3), (2, 4, 5)])
        assert H.edges == ((1, 2, 3), (2, 4, 5))

    def test_edge_count_cap(self):
        H = complete(6, 3)
        assert len(H.edges) == 20

    def test_attributes_are_read_only(self):
        H = complete(6, 3)
        before = H.edge_set
        with pytest.raises(AttributeError):
            H.edges = ((1, 2, 3),)
        with pytest.raises(AttributeError):
            H.n = 7
        with pytest.raises(AttributeError):
            H.edge_set = frozenset()
        with pytest.raises(AttributeError):
            del H.k
        assert (H.n, H.k, len(H.edges), H.edge_set) == (6, 3, 20, before)

    def test_counts_do_not_build_the_edge_tuple(self):
        H = complete(12, 3)
        assert H.num_edges == 220
        assert repr(H) == "KGraph(n=12, k=3, e=220)"
        assert H.regularity_stats == (55, 55, 55.0, 10)
        assert nibble_matching_report(H, NibbleConfig(seed=1)).average_degree == 55.0
        assert degree(H, ()) == 220
        assert min_l_degree(H, 0) == 220
        assert "edges" not in vars(H)
        assert len(H.edges) == 220 and "edges" in vars(H)


class TestDegree:
    def test_complete_singleton(self):
        assert degree(complete(5, 3), {1}) == 6  # C(4,2)

    def test_template_u_vertex(self):
        H = h933()
        # vertices 3..9 are U; frozen from enumeration oracle
        expected = oracles.brute_degree(H.edges, {5})
        assert expected == 13
        assert degree(H, {5}) == 13

    def test_empty_set_gives_edge_count(self):
        H = h933()
        assert degree(H, set()) == len(H.edges)

    @settings(max_examples=60, deadline=None)
    @given(small_kgraphs(ks=(2, 3, 4), min_n=4), st.data())
    def test_codegree_matches_brute_force(self, H, data):
        size = data.draw(st.integers(min_value=2, max_value=H.k))
        T = data.draw(st.sets(st.integers(min_value=1, max_value=H.n), min_size=size, max_size=size))
        assert degree(H, T) == oracles.brute_degree(H.edges, T)

    def test_too_large_query(self):
        with pytest.raises(InvalidQueryError):
            degree(complete(5, 3), {1, 2, 3, 4})
        with pytest.raises(InvalidQueryError):
            degree(complete(5, 3), {9})


class TestLDegrees:
    def test_template_min_vertex_degree(self):
        H = h933()
        assert oracles.brute_min_l_degree(9, H.edges, 1) == 13
        assert min_l_degree(H, 1) == 13
        # W-vertices are the high-degree ones
        assert degree(H, {1}) == 28

    def test_complete_min_degree(self):
        assert min_l_degree(complete(7, 3), 1) == 15  # C(6,2)

    def test_edgeless(self):
        assert min_l_degree(KGraph(6, 3, []), 1) == 0

    def test_min_pair_degree_template(self):
        H = h933()
        assert oracles.brute_min_l_degree(9, H.edges, 2) == 2
        assert min_l_degree(H, 2) == 2

    def test_l_out_of_range(self):
        with pytest.raises(InvalidQueryError):
            min_l_degree(complete(5, 3), 3)
        with pytest.raises(InvalidQueryError):
            min_l_degree(complete(5, 3), -1)


class TestLink:
    def test_complete_link(self):
        assert link(complete(4, 3), 4) == complete(3, 2)

    def test_template_link_size(self):
        H = h933()
        assert len(link(H, 9).edges) == degree(H, {9}) == 13

    def test_edgeless_link(self):
        assert link(KGraph(5, 3, []), 2).edges == ()

    def test_relabeling_preserves_order(self):
        H = KGraph(5, 3, [(1, 3, 5), (2, 3, 4)])
        L = link(H, 3)
        assert L.n == 4 and L.k == 2
        assert L.edges == ((1, 4), (2, 3))


class TestInducedRemove:
    def test_induced_on_U_is_edgeless(self):
        H = h933()
        assert induced(H, range(3, 10)).edges == ()

    def test_remove_one_vertex_of_complete(self):
        assert induced(complete(6, 3), range(2, 7)) == complete(5, 3)

    def test_induced_complete_count(self):
        assert len(induced(complete(9, 3), (2, 3, 5, 7, 9)).edges) == 10

    def test_remove_is_complement_of_induced(self):
        H = h933()
        S = {1, 4, 6}
        rest = [v for v in H.vertices() if v not in S]
        kept = [e for e in H.edges if not S & set(e)]
        assert induced(H, rest).edges == tuple(tuple(rest.index(v) + 1 for v in e) for e in kept)


class TestIndependence:
    def test_template(self):
        H = h933()
        assert oracles.brute_independence(9, H.edges) == 7
        assert independence_number(H) == 7

    def test_complete(self):
        for n, k in [(6, 3), (7, 4), (9, 3)]:
            assert independence_number(complete(n, k)) == k - 1

    def test_edgeless(self):
        assert independence_number(KGraph(11, 3, [])) == 11

    def test_matches_bruteforce_on_random(self, rng):
        for _ in range(15):
            n = rng.randint(4, 8)
            all_e = list(combinations(range(1, n + 1), 3))
            edges = [e for e in all_e if rng.random() < 0.3]
            H = KGraph(n, 3, edges)
            assert independence_number(H) == oracles.brute_independence(n, edges)

    def test_monotone_under_induced(self, rng):
        H = h933()
        for _ in range(5):
            S = rng.sample(range(1, 10), rng.randint(3, 8))
            assert independence_number(induced(H, S)) <= independence_number(H)

    @given(small_kgraphs(max_n=10, ks=(2, 3, 4), max_edges=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_scanning_oracle_and_its_node_count(self, H):
        alpha, nodes = oracles.independence_search(H)
        assert independence_number(KGraph(H.n, H.k, H.edges)) == alpha
        assert alpha == oracles.brute_independence(H.n, H.edges)
        if nodes:  # a search visits at least two nodes, so nodes - 1 is a valid budget
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("HYPERMATCH_NODE_BUDGET", str(nodes))
                assert independence_number(KGraph(H.n, H.k, H.edges)) == alpha
                mp.setenv("HYPERMATCH_NODE_BUDGET", str(nodes - 1))
                with pytest.raises(BudgetExceededError) as info:
                    independence_number(KGraph(H.n, H.k, H.edges))
                assert info.value.nodes == nodes

    def test_budget_raises(self, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        with pytest.raises(BudgetExceededError) as info:
            independence_number(h933())
        assert info.value.nodes == 2

    def test_every_call_obeys_the_budget(self, monkeypatch):
        H = h933()
        assert independence_number(H) == 7
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")  # the search raises at node 2
        with pytest.raises(BudgetExceededError):
            independence_number(H)

    def test_budget_hit_caches_nothing(self, monkeypatch):
        H = h933()
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        with pytest.raises(BudgetExceededError):
            independence_number(H)
        monkeypatch.delenv("HYPERMATCH_NODE_BUDGET")
        assert independence_number(H) == 7


class TestNodeBudget:
    def test_default_when_unset_or_empty(self, monkeypatch):
        monkeypatch.delenv("HYPERMATCH_NODE_BUDGET", raising=False)
        assert node_budget() == DEFAULT_NODE_BUDGET
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "")
        assert node_budget() == DEFAULT_NODE_BUDGET

    def test_reads_positive_integer(self, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "250")
        assert node_budget() == 250


class TestStability:
    def test_complete_is_stable(self):
        assert is_stable(complete(6, 3))

    def test_single_high_edge_is_not(self):
        assert not is_stable(KGraph(4, 3, [(2, 3, 4)]))

    def test_low_W_template_is_stable(self):
        from hypermatch import build_Hkl

        H = build_Hkl(range(3, 10), (1, 2), 3, 3)
        assert oracles.brute_is_stable(H.edges)
        assert is_stable(H)

    def test_agrees_with_pairwise_oracle(self, rng):
        for _ in range(20):
            n = rng.randint(4, 7)
            all_e = list(combinations(range(1, n + 1), 3))
            edges = [e for e in all_e if rng.random() < 0.4]
            H = KGraph(n, 3, edges)
            assert is_stable(H) == oracles.brute_is_stable(H.edges)

    @settings(max_examples=80, deadline=None)
    @given(small_kgraphs())
    def test_small_graphs_agree_with_pairwise_oracle(self, H):
        assert is_stable(H) == oracles.brute_is_stable(H.edges)


class TestVerifyMatching:
    def test_good(self):
        H = complete(6, 3)
        assert verify_matching(H, Matching.from_edges([(1, 2, 3), (4, 5, 6)]))

    def test_shared_vertex(self):
        H = complete(6, 3)
        assert not verify_matching(H, Matching.from_edges([(1, 2, 3), (3, 4, 5)]))

    def test_non_edge(self):
        H = KGraph(6, 3, [(1, 2, 3)])
        assert not verify_matching(H, Matching.from_edges([(4, 5, 6)]))


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_kgraphs())
    def test_handshake(self, H):
        assert sum(degree(H, {v}) for v in H.vertices()) == H.k * len(H.edges)

    @settings(max_examples=40, deadline=None)
    @given(small_kgraphs(ks=(3,)))
    def test_min_l_degree_matches_oracle(self, H):
        for l in (0, 1, 2):
            assert min_l_degree(H, l) == oracles.brute_min_l_degree(H.n, H.edges, l)

    @settings(max_examples=40, deadline=None)
    @given(small_kgraphs(ks=(3,)), st.integers(min_value=1, max_value=8))
    def test_link_edge_count(self, H, v):
        if v <= H.n:
            assert len(link(H, v).edges) == degree(H, {v})


class TestTextFormat:
    @settings(max_examples=100, deadline=None)
    @given(small_kgraphs(max_n=13, ks=(2, 3, 4), max_edges=60, min_n=0))
    def test_matches_line_by_line_oracle(self, H):
        assert format_graph(H).encode() == oracles.format_graph(H).encode()

    def test_round_trip_bit_exact(self):
        H = h933()
        text = format_graph(H)
        assert parse_graph(text) == H
        assert format_graph(parse_graph(text)) == text

    def test_comments_ignored(self):
        text = "# header comment\n3 4\n# mid comment\n1 2 3\n1 2 4\n"
        H = parse_graph(text)
        assert H.edges == ((1, 2, 3), (1, 2, 4))

    def test_rejects_unsorted_edge_line(self):
        with pytest.raises(InvalidQueryError):
            parse_graph("3 4\n2 1 3\n")

    def test_header_first(self):
        with pytest.raises(InvalidQueryError):
            parse_graph("# only a comment\n")

    def test_rejects_non_integers_with_line_number(self):
        with pytest.raises(InvalidQueryError, match="line 1"):
            parse_graph("3 x\n")
        with pytest.raises(InvalidQueryError, match="line 3"):
            parse_graph("3 4\n# comment\n1 2 z\n")


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda: link(KGraph(4, 2, []), 1), "2-graph"),
        (lambda: min_l_degree(KGraph(0, 3, []), 1), "no l-subsets"),
    ],
    ids=["link-of-2-graph", "min-l-degree-no-subsets"],
)
def test_out_of_range_query_is_rejected(query, message):
    with pytest.raises(InvalidQueryError, match=message):
        query()
