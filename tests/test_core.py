from itertools import combinations

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
    max_l_degree,
    min_l_degree,
    parse_graph,
    remove,
    stable_closure,
    verify_matching,
)
from hypermatch.core import DEFAULT_NODE_BUDGET, handshake_bound, node_budget
from hypermatch.errors import BudgetExceededError, InvalidQueryError
from hypermatch.matching import NibbleConfig, nibble_matching_report


@st.composite
def small_kgraphs(draw, max_n=8, ks=(2, 3), max_edges=25):
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(min_value=k, max_value=max_n))
    all_edges = list(combinations(range(1, n + 1), k))
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
        assert min_l_degree(H, 0) == max_l_degree(H, 0) == 220
        assert handshake_bound(H, 0) == 220
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

    def test_max_pair_degree_complete(self):
        assert max_l_degree(complete(6, 3), 2) == 4

    def test_max_pair_degree_single_edge(self):
        assert max_l_degree(KGraph(3, 3, [(1, 2, 3)]), 2) == 1

    def test_max_pair_degree_template(self):
        H = h933()
        assert oracles.brute_max_l_degree(9, H.edges, 2) == 7
        assert max_l_degree(H, 2) == 7

    def test_l_out_of_range(self):
        with pytest.raises(InvalidQueryError):
            min_l_degree(complete(5, 3), 3)
        with pytest.raises(InvalidQueryError):
            max_l_degree(complete(5, 3), -1)


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
        assert remove(complete(6, 3), {1}) == complete(5, 3)

    def test_induced_complete_count(self):
        assert len(induced(complete(9, 3), (2, 3, 5, 7, 9)).edges) == 10

    def test_remove_is_complement_of_induced(self):
        H = h933()
        S = {1, 4, 6}
        rest = [v for v in H.vertices() if v not in S]
        assert remove(H, S) == induced(H, rest)


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

    def test_budget_raises(self, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        with pytest.raises(BudgetExceededError) as info:
            independence_number(h933())
        assert info.value.nodes == 2


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

    def test_closure_is_stable(self, rng):
        for _ in range(10):
            n = rng.randint(4, 8)
            all_e = list(combinations(range(1, n + 1), 3))
            edges = [e for e in all_e if rng.random() < 0.25]
            C = stable_closure(KGraph(n, 3, edges))
            assert is_stable(C)
            assert set(edges) <= set(C.edges)

    @settings(max_examples=80, deadline=None)
    @given(small_kgraphs())
    def test_closure_against_pairwise_oracle(self, H):
        assert is_stable(H) == oracles.brute_is_stable(H.edges)
        C = stable_closure(H)
        assert oracles.brute_is_stable(C.edges) and set(H.edges) <= set(C.edges)
        # minimal: every closure edge lies below some edge of H
        for f in C.edges:
            assert any(all(a <= b for a, b in zip(f, e)) for e in H.edges)


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
    def test_average_degree_between_min_and_max(self, H):
        for l in (1, 2):
            avg = handshake_bound(H, l)
            assert min_l_degree(H, l) <= avg <= max_l_degree(H, l)

    @settings(max_examples=40, deadline=None)
    @given(small_kgraphs(ks=(3,)), st.integers(min_value=1, max_value=8))
    def test_link_edge_count(self, H, v):
        if v <= H.n:
            assert len(link(H, v).edges) == degree(H, {v})


class TestTextFormat:
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
