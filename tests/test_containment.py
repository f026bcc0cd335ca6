from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from hypermatch import KGraph, build_Hknm, complete, random_kgraph
from hypermatch.constructions import VertexPartition
from hypermatch.containment import (
    classify_good_bad,
    deficiency,
    eps_contains,
    subset_density_check,
    vertex_template_deficits,
)
from hypermatch.errors import BudgetExceededError, InvalidQueryError


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


class TestEpsContains:
    def test_template_trivially_contains(self):
        H, _ = build_Hknm(9, 3, 3)
        rep = eps_contains(H, 3, 0)
        assert rep.satisfied and rep.deficiency == 0
        assert rep.search_mode == "exhaustive"

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

    def test_local_never_beats_exhaustive(self):
        for seed in range(15):
            H = random_kgraph(9, 3, 0.5, seed=seed)
            exh = eps_contains(H, 3, 0, mode="exhaustive")
            loc = eps_contains(H, 3, 0, mode="local")
            assert loc.deficiency >= exh.deficiency
            assert loc.search_mode == "local-search"

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


class TestSubsetDensity:
    def test_independent_U_is_a_violation(self):
        H, _ = build_Hknm(9, 3, 3)
        rep = subset_density_check(H, 3, Fraction(1, 100), samples=10, seed=0)
        assert rep.mode == "exhaustive"
        u_subsets = [v.subset for v in rep.violations if set(v.subset) <= set(range(3, 10))]
        assert u_subsets, "subsets inside U have no edges and must violate"

    def test_complete_graph_has_no_violations(self):
        rep = subset_density_check(complete(9, 3), 2, Fraction(1, 10), samples=10, seed=0)
        assert rep.violations == ()

    def test_zero_samples_empty_report(self):
        H, _ = build_Hknm(9, 3, 3)
        rep = subset_density_check(H, 3, Fraction(1, 100), samples=0, seed=0)
        assert rep.checked == 0 and rep.violations == ()

    def test_parameter_flags(self):
        H, _ = build_Hknm(9, 3, 3)
        rep = subset_density_check(H, 3, Fraction(1, 2), samples=1, seed=0, rho=Fraction(1, 2))
        assert any("eps" in f for f in rep.parameter_flags)
        assert any("rho" in f for f in rep.parameter_flags)
