from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from hypermatch import (
    KGraph,
    build_Hknm,
    complete,
    join_clique,
    parity_construction,
    random_kgraph,
    remove,
    space_barrier,
    verify_matching,
)
from hypermatch.errors import BudgetExceededError, PreconditionError
from hypermatch.lp import FractionalAssignment, clique_window_matching, max_fractional_matching
from hypermatch.matching import (
    NibbleConfig,
    _regularity_gate,
    exact_nu,
    greedy_matching,
    nibble_matching,
    nibble_matching_report,
    sparsify_by_fractional,
)


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
            nu_minus, _ = exact_nu(remove(H, {v}))
            assert nu_minus >= nu - 1

    def test_join_clique_monotone_and_strip_bound(self):
        H = random_kgraph(8, 3, 0.35, seed=3)
        nu, _ = exact_nu(H)
        for r in (1, 2):
            nu_aug, _ = exact_nu(join_clique(H, r))
            assert nu_aug >= nu
            assert nu >= nu_aug - r

    def test_budget_raises(self, monkeypatch):
        # greedy seeds 2 here but nu = 3, so the search must expand
        H, _ = build_Hknm(12, 3, 4)
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "2")
        with pytest.raises(BudgetExceededError) as info:
            exact_nu(H)
        assert info.value.nodes == 3

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
        M, frac = nibble_matching(H, NibbleConfig(seed=1))
        assert len(M) == 1 and frac == Fraction(3, 6)

    def test_edgeless(self):
        M, frac = nibble_matching(KGraph(6, 3, []), NibbleConfig(seed=1))
        assert len(M) == 0 and frac == 0

    def test_output_verifies_and_fraction_exact(self):
        H = complete(30, 3)
        for seed in range(4):
            M, frac = nibble_matching(H, NibbleConfig(seed=seed))
            assert verify_matching(H, M)
            assert frac == Fraction(3 * len(M), 30)

    def test_seed_deterministic(self):
        H = complete(24, 3)
        a, fa = nibble_matching(H, NibbleConfig(seed=7))
        b, fb = nibble_matching(H, NibbleConfig(seed=7))
        assert a == b and fa == fb

    def test_covers_most_of_medium_complete_graph(self):
        H = complete(60, 3)
        fractions = []
        for seed in range(5):
            _, frac = nibble_matching(H, NibbleConfig(seed=seed))
            fractions.append(frac)
        fractions.sort()
        assert fractions[len(fractions) // 2] >= Fraction(17, 20)

    def test_thirty_vertex_complete_hits_sigma_target(self):
        # maximum matching size is 10 = n/k; at sigma target 0.1 at least
        # 8 of 10 seeds must cover 90% of the vertices
        H = complete(30, 3)
        hits = sum(
            nibble_matching(H, NibbleConfig(sigma_target=Fraction(1, 10), seed=s))[1]
            >= Fraction(9, 10)
            for s in range(10)
        )
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


class TestSparsify:
    def _window_copy(self, H, verts):
        """Perfect fractional matching of the complete induced block, in host labels."""
        verts = sorted(verts)
        base = clique_window_matching(len(verts), H.k)
        phi = {}
        for e, val in base.phi.items():
            phi[tuple(sorted(verts[v - 1] for v in e))] = val
        return FractionalAssignment(H, phi)

    def test_degenerate_01_copy_reproduces_support(self):
        H = complete(6, 3)
        phi = FractionalAssignment(
            H, {(1, 2, 3): Fraction(1), (4, 5, 6): Fraction(1)}
        )
        out = sparsify_by_fractional(H, [(range(1, 7), phi)], seed=11)
        assert out.edges == ((1, 2, 3), (4, 5, 6))
        assert out.n == H.n

    def test_no_copies_gives_edgeless_spanning(self):
        H = complete(6, 3)
        out = sparsify_by_fractional(H, [], seed=0)
        assert out.edges == () and out.n == 6

    def test_output_is_subgraph_and_spans(self):
        H = complete(12, 3)
        copy = self._window_copy(H, range(1, 7))
        out = sparsify_by_fractional(H, [(range(1, 7), copy)], seed=5)
        assert set(out.edges) <= set(H.edges)
        assert out.n == H.n

    def test_rejects_overlapping_copies(self):
        H = complete(9, 3)
        c1 = self._window_copy(H, range(1, 7))
        c2 = self._window_copy(H, range(1, 7))
        with pytest.raises(PreconditionError):
            sparsify_by_fractional(H, [(range(1, 7), c1), (range(1, 7), c2)], seed=0)

    def test_rejects_imperfect_copy(self):
        H = complete(6, 3)
        partial = FractionalAssignment(H, {(1, 2, 3): Fraction(1)})
        with pytest.raises(PreconditionError):
            sparsify_by_fractional(H, [(range(1, 7), partial)], seed=0)

    def test_expected_degree_is_copy_count(self):
        # expected degree of v = number of copies containing v, since each
        # copy's loads are exactly 1; checked over 100 seeds within a wide
        # concentration band around the mean
        H = complete(12, 3)
        copies = [(range(1, 7), self._window_copy(H, range(1, 7))),
                  (range(7, 13), self._window_copy(H, range(7, 13)))]
        trials = 100
        totals = {v: 0 for v in H.vertices()}
        for seed in range(trials):
            out = sparsify_by_fractional(H, copies, seed=seed)
            for e in out.edges:
                for v in e:
                    totals[v] += 1
        for v in H.vertices():
            mean = totals[v] / trials
            # each vertex lies in exactly one copy: expected degree 1,
            # per-seed variance <= 1, so 3 sigma over 100 trials is 0.3
            assert abs(mean - 1.0) <= 0.35, (v, mean)
