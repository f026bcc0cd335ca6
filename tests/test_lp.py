import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import KGraph, build_Hknm, complete, is_stable, join_clique, lp, random_kgraph
from hypermatch.errors import InternalContradictionError, InvalidQueryError
from hypermatch.lp import (
    FractionalAssignment,
    VertexWeights,
    clique_window_matching,
    max_fractional_matching,
    min_fractional_cover,
    permute_weights,
    relabel_by_weights,
    solve_fractional,
    weight_closure,
)


@st.composite
def lp_graphs(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=max(3, k), max_value=9))
    all_edges = list(combinations(range(1, n + 1), k))
    keep = draw(st.lists(st.booleans(), min_size=len(all_edges), max_size=len(all_edges)))
    return KGraph(n, k, [e for e, b in zip(all_edges, keep) if b])


# weights with mixed denominators, so that many k-sets sum to exactly 1
mixed_weights = st.lists(
    st.sampled_from([1, 2, 3, 4, 6, 12]).flatmap(
        lambda den: st.builds(Fraction, st.integers(0, den), st.just(den))
    ),
    min_size=3,
    max_size=9,
)


class TestFractionFreeSimplex:
    """The integer pivot loop against the Fraction simplex it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(lp_graphs())
    def test_same_pivots_as_fraction_simplex(self, H):
        got = lp._solve_incidence_lp(H)
        want = oracles.fraction_simplex(H)
        assert got == want
        assert list(got[1]) == list(want[1])  # same basis order, not just the same values

    def test_pipeline_sized_augmented_graphs(self):
        for n, seed in [(12, 0), (13, 1), (14, 2)]:
            G = join_clique(random_kgraph(n, 3, Fraction(7, 10), seed=seed), 18 - n)
            assert G.n == 18
            assert lp._solve_incidence_lp(G) == oracles.fraction_simplex(G)

    @settings(max_examples=60, deadline=None)
    @given(mixed_weights, st.integers(min_value=2, max_value=3))
    def test_cover_and_closure_agree_with_fraction_sums(self, weights, k):
        n = len(weights)
        w = VertexWeights(tuple(weights))
        heavy = [e for e in combinations(range(1, n + 1), k) if sum(w[v] for v in e) >= 1]
        assert weight_closure(n, k, w).edges == tuple(heavy)
        assert w.is_cover_of(complete(n, k)) == (len(heavy) == math.comb(n, k))
        assert w.is_cover_of(KGraph(n, k, heavy))

    def test_sums_of_exactly_one(self):
        w = VertexWeights((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(0)))
        assert w.is_cover_of(KGraph(5, 3, [(1, 2, 3)]))  # 1/2 + 1/3 + 1/6 = 1
        assert not w.is_cover_of(KGraph(5, 3, [(1, 2, 3), (2, 3, 4)]))  # 3/4
        assert weight_closure(5, 3, w).edges == ((1, 2, 3), (1, 2, 4))  # 1 and 13/12


class TestCertificate:
    """solve_fractional refuses a simplex answer whose witnesses do not check out."""

    @pytest.mark.parametrize(
        "corrupt, check",
        [
            (lambda value, phi, duals: (value, phi, (Fraction(0),) * len(duals)), "lp-dual-feasible"),
            (lambda value, phi, duals: (value + 1, phi, duals), "lp-primal-value"),
            (lambda value, phi, duals: (value, phi, (Fraction(1),) * len(duals)), "lp-dual-value"),
        ],
        ids=["dual-not-a-cover", "wrong-objective", "dual-total-off"],
    )
    def test_refuses_bad_witness(self, monkeypatch, corrupt, check):
        solve = lp._solve_incidence_lp
        monkeypatch.setattr(lp, "_solve_incidence_lp", lambda H: corrupt(*solve(H)))
        with pytest.raises(InternalContradictionError) as info:
            solve_fractional(complete(5, 3))
        assert info.value.check == check


class TestMatchingLP:
    def test_complete_5_3(self):
        val, phi = max_fractional_matching(complete(5, 3))
        assert val == Fraction(5, 3)
        assert phi.value() == val

    def test_edgeless(self):
        val, phi = max_fractional_matching(KGraph(6, 3, []))
        assert val == 0 and phi.support() == ()

    def test_single_edge(self):
        val, phi = max_fractional_matching(KGraph(3, 3, [(1, 2, 3)]))
        assert val == 1
        assert phi.phi[(1, 2, 3)] == 1

    def test_matches_float_solver(self, rng):
        for trial in range(12):
            n = rng.randint(4, 8)
            k = rng.choice([2, 3])
            H = random_kgraph(n, k, 0.5, seed=trial)
            val, phi = max_fractional_matching(H)
            ref = oracles.float_lp_matching_value(n, H.edges)
            assert math.isclose(float(val), ref, abs_tol=1e-7)
            loads = oracles.vertex_loads(n, dict(phi.phi))
            assert all(l <= 1 for l in loads.values())


class TestCoverLP:
    def test_complete_5_3(self):
        val, w = min_fractional_cover(complete(5, 3))
        assert val == Fraction(5, 3)
        assert w.is_cover_of(complete(5, 3))

    def test_uniform_third_is_feasible_for_k5_3(self):
        w = VertexWeights((Fraction(1, 3),) * 5)
        assert w.is_cover_of(complete(5, 3))
        assert w.total() == Fraction(5, 3)

    def test_edgeless(self):
        val, w = min_fractional_cover(KGraph(4, 3, []))
        assert val == 0
        assert all(x == 0 for x in w.weights)

    def test_single_edge(self):
        val, _ = min_fractional_cover(KGraph(5, 3, [(2, 3, 4)]))
        assert val == 1


class TestDuality:
    def test_complete(self):
        value, phi, w = solve_fractional(complete(5, 3))
        assert value == phi.value() == w.total() == Fraction(5, 3)

    def test_template(self):
        value, phi, w = solve_fractional(build_Hknm(9, 3, 3)[0])
        assert value == phi.value() == w.total()

    def test_edgeless(self):
        value, phi, w = solve_fractional(KGraph(5, 3, []))
        assert value == phi.value() == w.total() == 0

    def test_one_solve_gives_both_witnesses(self, monkeypatch):
        calls = []
        solve = lp._solve_incidence_lp
        monkeypatch.setattr(lp, "_solve_incidence_lp", lambda H: calls.append(H) or solve(H))
        H = build_Hknm(9, 3, 3)[0]
        value, phi, w = solve_fractional(H)
        assert len(calls) == 1
        assert phi.value() == w.total() == value == max_fractional_matching(H)[0]
        assert w.is_cover_of(H)

    def test_sandwich_on_random(self, rng):
        for trial in range(10):
            H = random_kgraph(rng.randint(5, 8), 3, 0.5, seed=100 + trial)
            nu = oracles.brute_nu(H.edges)
            nu_frac, _ = max_fractional_matching(H)
            tau_frac, _ = min_fractional_cover(H)
            assert nu <= nu_frac == tau_frac


class TestCliqueWindows:
    def test_5_3(self):
        phi = clique_window_matching(5, 3)
        assert len(phi.support()) == 5
        assert set(phi.phi.values()) == {Fraction(1, 3)}
        assert all(l == 1 for l in phi.loads().values())

    def test_k_plus_one(self):
        for k in (3, 4):
            phi = clique_window_matching(k + 1, k)
            assert len(phi.support()) == k + 1
            assert all(l == 1 for l in phi.loads().values())

    def test_value_12_4(self):
        assert clique_window_matching(12, 4).value() == 3

    def test_rejects_n_le_k(self):
        with pytest.raises(InvalidQueryError):
            clique_window_matching(3, 3)

    def test_complete_graph_lp_equals_n_over_k(self):
        for n, k in [(5, 3), (7, 3), (6, 4)]:
            val, _ = max_fractional_matching(complete(n, k))
            assert val == Fraction(n, k)


class TestWeightClosure:
    def test_uniform_weights_give_complete(self):
        w = VertexWeights((Fraction(1, 3),) * 6)
        assert weight_closure(6, 3, w) == complete(6, 3)

    def test_zero_weights_give_edgeless(self):
        w = VertexWeights((Fraction(0),) * 6)
        assert weight_closure(6, 3, w).edges == ()

    def test_two_heavy_vertices(self):
        w = VertexWeights((Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
        H = weight_closure(5, 3, w)
        assert len(H.edges) == 9  # k-sets meeting {1,2}

    def test_monotone_in_weights(self, rng):
        one = Fraction(1)
        for _ in range(10):
            a = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(6))
            b = tuple(min(one, x + Fraction(rng.randint(0, 2), 4)) for x in a)
            Ha = weight_closure(6, 3, VertexWeights(a))
            Hb = weight_closure(6, 3, VertexWeights(b))
            assert set(Ha.edges) <= set(Hb.edges)

    def test_graph_inside_closure_of_its_cover(self, rng):
        for trial in range(8):
            H = random_kgraph(7, 3, 0.5, seed=trial)
            _, w = min_fractional_cover(H)
            closure = weight_closure(7, 3, w)
            assert set(H.edges) <= set(closure.edges)


class TestRelabel:
    def test_identity(self):
        H = complete(4, 3)
        w = VertexWeights(tuple(Fraction(5 - i, 6) for i in range(1, 5)))
        G, perm = relabel_by_weights(H, w)
        assert perm == (1, 2, 3, 4)
        assert G == H

    def test_reversal(self):
        H = KGraph(4, 3, [(1, 2, 3)])
        w = VertexWeights(tuple(Fraction(i, 6) for i in range(1, 5)))
        G, perm = relabel_by_weights(H, w)
        assert perm == (4, 3, 2, 1)
        assert G.edges == ((2, 3, 4),)

    def test_ties_keep_index_order(self):
        H = KGraph(3, 2, [(1, 2)])
        w = VertexWeights((Fraction(1, 2),) * 3)
        _, perm = relabel_by_weights(H, w)
        assert perm == (1, 2, 3)

    def test_closure_after_relabel_is_stable(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(4, 10)
            w = VertexWeights(tuple(Fraction(rng.randint(0, 8), 8) for _ in range(n)))
            H = weight_closure(n, 3, w)
            G, perm = relabel_by_weights(H, w)
            sorted_w = permute_weights(w, perm)
            assert list(sorted_w.weights) == sorted(sorted_w.weights, reverse=True)
            closure = weight_closure(n, 3, sorted_w)
            assert is_stable(closure)
            assert closure == G  # closure commutes with relabeling


class TestAssignmentValidation:
    def test_rejects_non_host_support(self):
        H = KGraph(4, 3, [(1, 2, 3)])
        with pytest.raises(InvalidQueryError):
            FractionalAssignment(H, {(1, 2, 4): Fraction(1)})

    def test_rejects_overload(self):
        H = complete(4, 3)
        with pytest.raises(InvalidQueryError):
            FractionalAssignment(H, {(1, 2, 3): Fraction(1), (1, 2, 4): Fraction(1)})

    def test_rejects_out_of_range_weight(self):
        H = complete(4, 3)
        with pytest.raises(InvalidQueryError):
            FractionalAssignment(H, {(1, 2, 3): Fraction(3, 2)})
