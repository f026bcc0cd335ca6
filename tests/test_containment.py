from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import KGraph, build_Hknm, complete, random_kgraph
from hypermatch.constructions import VertexPartition
from hypermatch.containment import (
    classify_good_bad,
    deficiency,
    eps_contains,
    vertex_template_deficits,
)
from hypermatch.errors import BudgetExceededError, InvalidQueryError
from test_core import small_kgraphs


def part_for(n, W):
    ws = set(W)
    return VertexPartition(tuple(v for v in range(1, n + 1) if v not in ws), tuple(ws))


class TestDeficiency:
    def test_self_containment(self):
        H, part = build_Hknm(9, 3, 3)
        assert deficiency(H, part, 2) == 0

    def test_counts_deleted_edges(self):
        H, part = build_Hknm(9, 3, 3)
        for t in (1, 3, 5):
            G = KGraph(9, 3, H.edges[t:])
            assert deficiency(G, part, 2) == t

    def test_complete_graph_has_zero(self):
        assert deficiency(complete(9, 3), part_for(9, (1, 2)), 2) == 0

    def test_matches_materialized_template(self, rng):
        for trial in range(10):
            H = random_kgraph(8, 3, 0.5, seed=trial)
            W = tuple(rng.sample(range(1, 9), 2))
            template = oracles.brute_template_edges(8, 3, W, 2)
            expected = len(template - set(H.edges))
            assert deficiency(H, part_for(8, W), 2) == expected

    def test_zero_iff_template_subgraph(self, rng):
        for trial in range(8):
            H = random_kgraph(7, 3, 0.7, seed=40 + trial)
            W = (1, 2)
            template = oracles.brute_template_edges(7, 3, W, 2)
            d = deficiency(H, part_for(7, W), 2)
            assert (d == 0) == (template <= set(H.edges))

    def test_monotone_under_edge_addition(self, rng):
        H = random_kgraph(8, 3, 0.3, seed=9)
        part = part_for(8, (1, 2))
        all_e = list(combinations(range(1, 9), 3))
        extra = [e for e in all_e if e not in H.edge_set][:10]
        G = KGraph(8, 3, list(H.edges) + extra)
        assert deficiency(G, part, 2) <= deficiency(H, part, 2)


@st.composite
def graph_and_template(draw):
    """A random k-graph with k in {2, 3, 4}, a W from empty to every vertex, and l in 1..k."""
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=k, max_value=8))
    all_sets = list(combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(all_sets), unique=True, max_size=len(all_sets)))
    W = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True))
    l = draw(st.integers(min_value=1, max_value=k))
    return KGraph(n, k, edges), tuple(sorted(W)), l


class TestAgainstMaterializedTemplate:
    @settings(max_examples=200, deadline=None)
    @given(graph_and_template())
    @example((random_kgraph(6, 3, Fraction(1, 2), seed=3), (), 2))  # W empty
    @example((random_kgraph(6, 3, Fraction(1, 2), seed=3), tuple(range(1, 7)), 3))  # U empty
    def test_deficiency_and_per_vertex_deficits(self, case):
        H, W, l = case
        missing = oracles.brute_template_edges(H.n, H.k, W, l) - H.edge_set
        part = part_for(H.n, W)
        assert deficiency(H, part, l) == len(missing)
        assert vertex_template_deficits(H, part, l) == {
            v: sum(1 for e in missing if v in e) for v in H.vertices()
        }


class TestEpsContains:
    def test_template_trivially_contains(self):
        H, _ = build_Hknm(9, 3, 3)
        rep = eps_contains(H, 3, 0)
        assert rep.satisfied and rep.deficiency == 0
        assert rep.search_mode == "exhaustive"

    @pytest.mark.parametrize("m", [2.5, 2.0, "2"])
    def test_non_integer_m_is_rejected(self, m):
        with pytest.raises(InvalidQueryError, match="sizes must be integers"):
            eps_contains(complete(7, 3), m, Fraction(1, 10))

    def test_complete_contains_at_eps0(self):
        rep = eps_contains(complete(9, 3), 3, 0)
        assert rep.satisfied and rep.deficiency == 0

    def test_edgeless_deficiency_is_template_size(self):
        rep = eps_contains(KGraph(9, 3, []), 3, 0)
        assert not rep.satisfied
        assert rep.deficiency == 49  # C(2,1)C(7,2) + C(2,2)C(7,1), enumeration-checked
        assert rep.deficiency == len(oracles.brute_template_edges(9, 3, (1, 2), 2))

    def test_exhaustive_matches_bruteforce_corpus(self):
        for seed in range(25):
            H = random_kgraph(8, 3, 0.4 + 0.01 * (seed % 5), seed=seed)
            rep = eps_contains(H, 3, Fraction(1, 100))
            expected, _ = oracles.brute_min_deficiency(H.edges, 8, 3, 3)
            assert rep.deficiency == expected

    def test_exhaustive_at_k4_matches_bruteforce(self):
        for seed in range(8):
            H = random_kgraph(8, 4, Fraction(1, 2), seed=seed)
            for m in (1, 2, 3):
                rep = eps_contains(H, m, Fraction(1, 100), mode="exhaustive")
                expected, best_W = oracles.brute_min_deficiency(H.edges, 8, 4, m)
                assert (rep.deficiency, rep.partition.W) == (expected, best_W)

    def test_local_never_beats_exhaustive(self):
        for seed in range(15):
            H = random_kgraph(9, 3, 0.5, seed=seed)
            exh = eps_contains(H, 3, 0, mode="exhaustive")
            loc = eps_contains(H, 3, 0, mode="local")
            assert loc.deficiency >= exh.deficiency
            assert loc.search_mode == "local-search"

    @settings(max_examples=200, deadline=None)
    @given(small_kgraphs(max_n=8, ks=(2, 3, 4), max_edges=40), st.data())
    def test_local_search_matches_the_nested_loop_oracle(self, H, data):
        m = data.draw(st.integers(1, H.n + 1))
        rep = eps_contains(H, m, 0, mode="local")
        assert (tuple(sorted(rep.partition.W)), rep.deficiency) == oracles.local_search_containment(H, m)

    def test_exhaustive_obeys_node_budget(self, monkeypatch):
        H = complete(9, 3)  # C(9, 2) = 36 choices of W
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "35")
        with pytest.raises(BudgetExceededError):
            eps_contains(H, 3, 0, mode="exhaustive")
        assert eps_contains(H, 3, 0).search_mode == "local-search"
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "36")
        assert eps_contains(H, 3, 0, mode="exhaustive").deficiency == 0
        assert eps_contains(H, 3, 0).search_mode == "exhaustive"

    def test_bound_comparison_is_exact(self):
        H, _ = build_Hknm(9, 3, 3)
        G = KGraph(9, 3, H.edges[1:])  # deficiency exactly 1
        n_k = Fraction(9) ** 3
        assert eps_contains(G, 3, Fraction(1, 9**3)).satisfied  # bound = 1
        assert not eps_contains(G, 3, Fraction(1, 9**3 + 1)).satisfied


    @pytest.mark.parametrize("eps", [2.5, "3", -1, None, "x", Fraction(3, 2), float("nan")])
    def test_eps_outside_unit_interval_is_rejected(self, eps):
        with pytest.raises(InvalidQueryError, match="need 0 <= eps <= 1"):
            eps_contains(complete(7, 3), 2, eps)

    @pytest.mark.parametrize("eps", [0, 1, 0.25, Fraction(1, 3), True])
    def test_eps_in_unit_interval_is_accepted(self, eps):
        assert eps_contains(complete(7, 3), 2, eps).eps == Fraction(eps)


class TestClassification:
    def test_template_all_good(self):
        H, part = build_Hknm(9, 3, 3)
        good, bad = classify_good_bad(H, part, 2, 0)
        assert bad == () and len(good) == 9

    def test_starving_one_vertex_makes_it_bad(self):
        H, part = build_Hknm(9, 3, 3)
        v = 5
        kept = [e for e in H.edges if v not in e]
        G = KGraph(9, 3, kept)
        good, bad = classify_good_bad(G, part, 2, Fraction(1, 1000))
        assert v in bad

    def test_deficit_sum_is_k_times_deficiency(self, rng):
        for trial in range(8):
            H = random_kgraph(8, 3, 0.5, seed=trial)
            part = part_for(8, (1, 2))
            deficits = vertex_template_deficits(H, part, 2)
            d = deficiency(H, part, 2)
            assert d <= sum(deficits.values()) == 3 * d

    def test_bad_count_bound_on_perturbed_templates(self, rng):
        # few missing edges force few bad vertices:
        # |bad| * theta * n^(k-1) <= k * deficiency
        n, k = 10, 3
        rho = Fraction(1, 5) ** 4  # fourth power so theta = rho^(1/4) is exact
        theta = Fraction(1, 5)
        sqrt_rho = Fraction(1, 25)
        H, part = build_Hknm(n, k, 3)
        budget = int(sqrt_rho * Fraction(n - 1) ** (k - 1))
        for trial in range(6):
            drop = rng.sample(range(len(H.edges)), min(budget, len(H.edges)))
            G = KGraph(n, k, [e for i, e in enumerate(H.edges) if i not in set(drop)])
            d = deficiency(G, part, k - 1)
            assert d <= budget <= sqrt_rho * Fraction(n - 1) ** (k - 1)
            _, bad = classify_good_bad(G, part, k - 1, theta)
            assert len(bad) <= (k - 1) * theta * n

    def test_unsupported_l(self):
        H, part = build_Hknm(9, 3, 3)
        with pytest.raises(InvalidQueryError):
            classify_good_bad(H, part, 3, 0)


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda: eps_contains(complete(7, 3), 2, Fraction(1, 10), mode="bogus"), "unknown mode"),
        (lambda: deficiency(complete(7, 3), VertexPartition((1, 2, 3), (4, 5)), 2), "partition covers"),
        (lambda: deficiency(complete(5, 3), VertexPartition((1, 2, 3), (4, 5)), 0), "need 1 <= l"),
        (lambda: deficiency(complete(5, 3), VertexPartition((1, 2, 3), (4, 5)), "2"), "got l='2'"),
        (lambda: classify_good_bad(*build_Hknm(9, 3, 3), 2, "x"), "theta must be a finite real"),
        (lambda: classify_good_bad(*build_Hknm(9, 3, 3), 2, float("nan")), "theta must be a finite real"),
    ],
    ids=[
        "eps-contains-mode", "deficiency-partition-size", "deficiency-l-0", "deficiency-l-str",
        "classify-theta-str", "classify-theta-nan",
    ],
)
def test_out_of_range_query_is_rejected(query, message):
    with pytest.raises(InvalidQueryError, match=message):
        query()
