import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import (
    KGraph,
    build_Hknm,
    complete,
    join_clique,
    parity_construction,
    random_kgraph,
    space_barrier,
    verify_matching,
)
from hypermatch.core import min_l_degree
from hypermatch.errors import BudgetExceededError, InvalidQueryError
from hypermatch.harness import _model_sampler, tightness_grid
from hypermatch.lp import max_fractional_matching
from hypermatch.matching import (
    NibbleConfig,
    _regularity_gate,
    exact_nu,
    exact_nu_within,
    greedy_matching,
    nibble_matching_report,
)
from test_core import small_kgraphs


def search_pool_graphs():
    """The 200 conditioned graphs of the first item of the seed-0 `search`
    benchmark pool: conjecture_search(9, 3, 2, trials=200) at that item's seed."""
    item_seed = random.Random("search:0").getrandbits(32)
    sample = _model_sampler("conditioned", 9, 3, 2, None)
    return [sample(f"{item_seed}:{t}") for t in range(200)]


class TestExactNu:
    def test_template_9_3_3(self):
        H, _ = build_Hknm(9, 3, 3)
        nu, M = exact_nu(H)
        assert nu == 2
        assert verify_matching(H, M) and len(M) == 2

    def test_complete_6_3(self):
        nu, M = exact_nu(complete(6, 3))
        assert nu == 2 and verify_matching(complete(6, 3), M)

    def test_space_barrier(self):
        nu, _ = exact_nu(space_barrier(6, 3))
        assert nu == 1

    def test_parity(self):
        nu, _ = exact_nu(parity_construction(3, 3, 3))
        assert nu == 1

    def test_edgeless(self):
        nu, M = exact_nu(KGraph(7, 3, []))
        assert nu == 0 and len(M) == 0

    def test_agrees_with_bruteforce(self, rng):
        for trial in range(25):
            n = rng.randint(4, 9)
            k = rng.choice([2, 3])
            all_e = list(combinations(range(1, n + 1), k))
            edges = [e for e in all_e if rng.random() < 0.35]
            if len(edges) > 18:
                edges = edges[:18]
            H = KGraph(n, k, edges)
            nu, M = exact_nu(H)
            assert nu == oracles.brute_nu(H.edges)
            assert verify_matching(H, M) and len(M) == nu

    def test_vertex_deletion_drops_nu_by_at_most_one(self, rng):
        for trial in range(8):
            H = random_kgraph(8, 3, 0.4, seed=50 + trial)
            nu, _ = exact_nu(H)
            v = rng.randint(1, 8)
            nu_minus, _ = exact_nu_within(H, set(H.vertices()) - {v})
            assert nu_minus >= nu - 1

    def test_join_clique_monotone_and_strip_bound(self, rng):
        # nu(join_clique(H, r)) = min(nu(H) + r, floor((n + r)/k)): monotone,
        # and stripping the <= r clique-touching edges leaves nu(H)
        for trial in range(12):
            k = rng.choice([2, 3])
            n = rng.randint(k, 9)
            H = random_kgraph(n, k, rng.choice([0.2, 0.35, 0.6]), seed=100 + trial)
            nu, _ = exact_nu(H)
            for r in range(4):
                nu_aug, _ = exact_nu(join_clique(H, r))
                assert nu_aug == min(nu + r, (n + r) // k), (n, k, r, trial)

    def test_budget_raises(self, monkeypatch):
        # both greedy seeds have 2 of floor(9/3) = 3 edges and nu = 2, but the
        # root's bounds allow 3, so the search must expand (130 nodes)
        H = parity_construction(5, 4, 3)
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "2")
        with pytest.raises(BudgetExceededError) as info:
            exact_nu(H)
        assert info.value.nodes == 3
        # a perfect greedy seed is returned before the walk, even at budget 1
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        G = complete(9, 3)
        assert exact_nu(G) == (3, greedy_matching(G))

    def test_settles_every_extremal_graph_at_the_root(self, monkeypatch):
        # every graph verify_tightness builds on the n <= 20 grid: the
        # degree-order seed of H_k(n, m) has nu = m - 1 edges, and the root's
        # greedy cover bound proves it maximum
        points = set()
        for n, k, m in tightness_grid(ks=(3, 4), n_max=20):
            points.add((n, k, m))
            if m + k <= n:
                points.add((n, k, m + 1))
        assert len(points) == 141
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        for n, k, m in sorted(points):
            H, _ = build_Hknm(n, k, m)
            nu, M = exact_nu(H)
            assert nu == m - 1 and verify_matching(H, M) and len(M) == nu

    def test_needs_the_oracles_smallest_budget(self, monkeypatch):
        # the smallest passing budget is the walk's node count, so both walks
        # must visit the same nodes where neither greedy seed is perfect
        def smallest_passing_budget(solve, H):
            lo, hi = 0, 1
            while True:
                monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", str(hi))
                try:
                    result = solve(H)
                    break
                except BudgetExceededError:
                    lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", str(mid))
                try:
                    result = solve(H)
                    hi = mid
                except BudgetExceededError:
                    lo = mid
            return hi, result

        graphs = [build_Hknm(n, 3, m)[0] for n in range(8, 14) for m in range(2, n // 3 + 1)]
        for seed in range(300):
            n, k = 7 + seed % 7, 3 + seed % 2
            graphs.append(random_kgraph(n, k, Fraction(1 + seed % 3, 6), seed=seed))
        # 2-graphs: the pipeline walks links, which are (k-1)-graphs
        for seed in range(120):
            graphs.append(random_kgraph(6 + seed % 8, 2, Fraction(1 + seed % 3, 6), seed=1000 + seed))
        graphs = [
            H
            for H in graphs
            if H.edges
            and len(greedy_matching(H)) < H.n // H.k
            and len(oracles.degree_order_greedy(H)) < H.n // H.k
        ]
        assert len(graphs) >= 40
        walked = Counter()
        for H in graphs:
            nodes, result = smallest_passing_budget(exact_nu, H)
            assert (nodes, result) == smallest_passing_budget(oracles.exact_nu, H)
            walked[H.k] += nodes > 1
        assert sum(walked.values()) >= 10 and walked[2] >= 10

    @settings(max_examples=200, deadline=None)
    @given(small_kgraphs(max_n=13, ks=(2, 3, 4), max_edges=60, min_n=0))
    def test_matches_oracle_with_witness(self, H):
        assert exact_nu(H) == oracles.exact_nu(H)

    @settings(max_examples=200, deadline=None)
    @given(small_kgraphs(max_n=10, ks=(2, 3, 4), max_edges=40), st.data())
    def test_within_matches_oracle_on_the_induced_graph(self, H, data):
        S = data.draw(st.sets(st.integers(1, H.n)))
        nu, M = exact_nu_within(H, S)
        assert nu == len(M) == oracles.brute_nu(e for e in H.edges if set(e) <= S)
        assert verify_matching(H, M) and M.vertices() <= S

    def test_matches_oracle_on_search_pool(self):
        graphs = search_pool_graphs()
        assert [exact_nu(H) for H in graphs] == [oracles.exact_nu(H) for H in graphs]

    def test_search_path_never_builds_vertex_edges(self):
        # neither greedy seed is perfect and the root's bounds allow one more
        # edge than nu = 2, so the edge order is built and walked
        H = KGraph(9, 3, parity_construction(5, 4, 3).edges)
        min_l_degree(H, 1)
        assert exact_nu(H)[0] == 2
        assert "vertex_edges" not in vars(H)

    def test_fractional_upper_bound(self, rng):
        for trial in range(6):
            H = random_kgraph(7, 3, 0.5, seed=trial)
            nu, _ = exact_nu(H)
            nu_frac, _ = max_fractional_matching(H)
            assert nu <= nu_frac


class TestGreedy:
    def test_complete(self):
        M = greedy_matching(complete(6, 3))
        assert len(M) == 2

    def test_edgeless(self):
        assert len(greedy_matching(KGraph(5, 3, []))) == 0

    def test_single_edge(self):
        H = KGraph(5, 3, [(2, 3, 4)])
        assert greedy_matching(H).edges == ((2, 3, 4),)

    def test_maximal(self, rng):
        for trial in range(10):
            H = random_kgraph(9, 3, 0.3, seed=trial)
            M = greedy_matching(H)
            assert verify_matching(H, M)
            used = M.vertices()
            for e in H.edges:
                assert set(e) & used, "greedy result must be maximal"


class TestNibble:
    def test_single_edge(self):
        H = KGraph(6, 3, [(1, 2, 3)])
        rep = nibble_matching_report(H, NibbleConfig(seed=1))
        assert len(rep.matching) == 1 and rep.covered_fraction == Fraction(3, 6)

    def test_edgeless(self):
        rep = nibble_matching_report(KGraph(6, 3, []), NibbleConfig(seed=1))
        assert len(rep.matching) == 0 and rep.covered_fraction == 0

    def test_output_verifies_and_fraction_exact(self):
        H = complete(30, 3)
        for seed in range(4):
            rep = nibble_matching_report(H, NibbleConfig(seed=seed))
            assert verify_matching(H, rep.matching)
            assert rep.covered_fraction == Fraction(3 * len(rep.matching), 30)

    def test_seed_deterministic(self):
        H = complete(24, 3)
        a = nibble_matching_report(H, NibbleConfig(seed=7))
        b = nibble_matching_report(H, NibbleConfig(seed=7))
        assert a.matching == b.matching and a.covered_fraction == b.covered_fraction

    def test_covers_most_of_medium_complete_graph(self):
        H = complete(60, 3)
        fractions = []
        for seed in range(5):
            fractions.append(nibble_matching_report(H, NibbleConfig(seed=seed)).covered_fraction)
        fractions.sort()
        assert fractions[len(fractions) // 2] >= Fraction(17, 20)

    def test_thirty_vertex_complete_hits_sigma_target(self):
        # maximum matching size is 10 = n/k; at leftover fraction 0.1 (the
        # default nibble --sigma) at least 8 of 10 seeds must cover 90% of
        # the vertices
        H = complete(30, 3)
        cfgs = [NibbleConfig(seed=s) for s in range(10)]
        hits = sum(nibble_matching_report(H, cfg).covered_fraction >= Fraction(9, 10) for cfg in cfgs)
        assert hits >= 8

    def test_report_round_accounting(self):
        H = complete(30, 3)
        rep = nibble_matching_report(H, NibbleConfig(seed=3))
        assert rep.degree_gate_ok  # complete graphs are perfectly regular
        for r in rep.rounds:
            assert r.kept <= r.sampled

    def test_gate_flags_irregular_graph(self):
        H = KGraph(9, 3, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6)])
        rep = nibble_matching_report(H, NibbleConfig(seed=0))
        assert not rep.degree_gate_ok
        assert rep.max_codegree == 4


class TestNibbleMatchesOracle:
    """The cached gate and the column-wise round loop give the same
    NibbleReport as the uncached reference in tests/oracles.py."""

    # sparse-60 is far from regular (degrees 1 to 12). lopsided-7 has
    # its lone minimum degree 12 at vertex 1 and (1 - 1/8) * D == 12 exactly.
    HOSTS = {
        "complete-40": lambda: complete(40, 3),
        "complete-40-tuples": lambda: KGraph._from_sorted(40, 3, combinations(range(1, 41), 3)),
        "random-40": lambda: random_kgraph(40, 3, Fraction(1, 4), seed=2024),
        "random-k4-30": lambda: random_kgraph(30, 4, Fraction(1, 50), seed=7),
        "sparse-60": lambda: random_kgraph(60, 3, Fraction(1, 400), seed=3),
        "lopsided-7": lambda: KGraph(7, 3, set(complete(7, 3).edges) - {(1, 5, 6), (1, 5, 7), (1, 6, 7)}),
    }
    CONFIGS = [NibbleConfig(seed=s) for s in range(5)] + [
        NibbleConfig(bite_fraction=Fraction(1, 3), max_rounds=6, seed=11, tau_check=Fraction(1, 2)),
    ]

    @pytest.mark.parametrize("host", sorted(HOSTS))
    def test_sweep(self, host):
        # the reference runs on a tuple-born copy, so the array-born
        # complete-40 is checked against its twin
        H = self.HOSTS[host]()
        for cfg in self.CONFIGS:
            fresh = self.HOSTS[host]()
            ref = oracles.nibble_matching_report(KGraph._from_sorted(fresh.n, fresh.k, fresh.edges), cfg)
            assert nibble_matching_report(H, cfg) == ref, cfg

    @pytest.mark.parametrize("host", sorted(HOSTS))
    def test_gate_depends_on_tau_only_per_call(self, host):
        # complete(40, 3) has codegree 38 against D = 741: the codegree gate
        # fails at tau = 1/20 and passes at tau = 1/10, so a cached verdict
        # would show; at tau = 38/741 the codegree sits on its bound exactly
        H = self.HOSTS[host]()
        taus = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 2), Fraction(1, 8), Fraction(38, 741), Fraction(1, 20))
        got = [_regularity_gate(H, tau) for tau in taus]
        assert got == [oracles._regularity_gate(self.HOSTS[host](), tau) for tau in taus]
        if host == "complete-40":
            assert got[0] != got[1]

    def test_gate_on_edgeless_host(self):
        H = KGraph(5, 3, [])
        assert _regularity_gate(H, Fraction(1, 20)) == oracles._regularity_gate(H, Fraction(1, 20))
        assert H.regularity_stats == (0, 0, 0.0, 0)


@pytest.mark.parametrize(
    "field",
    [
        {"bite_fraction": 1},
        {"max_rounds": -1},
        {"tau_check": 0},
        pytest.param({"max_rounds": 2.5}, id="max_rounds-2.5"),
        pytest.param({"seed": 1.5}, id="seed-1.5"),
        pytest.param({"bite_fraction": "x"}, id="bite_fraction-x"),
        pytest.param({"tau_check": "x"}, id="tau_check-x"),
    ],
    ids=lambda f: next(iter(f)),
)
def test_out_of_range_config_is_rejected(field):
    with pytest.raises(InvalidQueryError, match=next(iter(field))):
        NibbleConfig(**field)
