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
    cyclic_windows,
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


def augmented_18(n, seed):
    """A pipeline-sized LP: a random 3-graph joined with a clique to 18 vertices."""
    return join_clique(random_kgraph(n, 3, Fraction(7, 10), seed=seed), 18 - n)


# graphs on which Dantzig's rule meets DEGENERATE_RUN degenerate pivots in a
# row, so that Bland's rule prices some pivots (found by scanning small
# random graphs; H_3(n, m) and complete(n, 3) for n <= 12 never get there)
FALLBACK_GRAPHS = [
    random_kgraph(9, 3, Fraction(1, 2), seed=257),
    random_kgraph(9, 3, Fraction(7, 10), seed=86),
    random_kgraph(8, 4, Fraction(1, 2), seed=49),
    random_kgraph(9, 4, Fraction(1, 2), seed=183),
]


class TestFractionFreeSimplex:
    """The integer pivot loop against the Fraction simplex of the same pricing rule."""

    @settings(max_examples=80, deadline=None)
    @given(lp_graphs())
    def test_same_pivots_as_fraction_simplex(self, H):
        got = lp._solve_incidence_lp(H)
        want = oracles.fraction_simplex(H)[1:]
        assert got == want
        assert list(got[0]) == list(want[0])  # same basis order, not just the same values

    def test_pipeline_sized_augmented_graphs(self):
        for n, seed in [(12, 0), (13, 1), (14, 2)]:
            G = augmented_18(n, seed)
            assert G.n == 18
            assert lp._solve_incidence_lp(G) == oracles.fraction_simplex(G)[1:]

    @settings(max_examples=80, deadline=None)
    @given(lp_graphs())
    def test_value_equals_bland_optimum(self, H):
        phi, _ = lp._solve_incidence_lp(H)
        assert sum(phi.values(), Fraction(0)) == oracles.bland_fraction_simplex(H)[0]

    @pytest.mark.parametrize("H", FALLBACK_GRAPHS, ids=lambda H: f"n{H.n}k{H.k}e{H.num_edges}")
    def test_same_pivots_through_bland_fallback(self, H):
        stats = {}
        want = oracles.fraction_simplex(H, stats)
        assert stats["bland_pivots"] > 0
        got = lp._solve_incidence_lp(H)
        assert got == want[1:]
        assert list(got[0]) == list(want[1])
        assert sum(got[0].values(), Fraction(0)) == oracles.bland_fraction_simplex(H)[0]

    def test_dantzig_pivots_at_most_a_third_of_bland(self):
        for n, seed in [(12, 0), (13, 1), (14, 2)]:
            G = augmented_18(n, seed)
            dantzig, bland = {}, {}
            assert oracles.fraction_simplex(G, dantzig)[0] == oracles.bland_fraction_simplex(G, bland)[0]
            assert 3 * dantzig["pivots"] <= bland["pivots"], (n, dantzig, bland)

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


class TestEdgeSums:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_per_edge_sums(self, data):
        k = data.draw(st.integers(min_value=2, max_value=5))
        n = data.draw(st.integers(min_value=k, max_value=8))
        ksets = list(combinations(range(1, n + 1), k))
        H = KGraph(n, k, data.draw(st.lists(st.sampled_from(ksets), unique=True)))
        vals = data.draw(st.lists(st.integers(-(10**30), 10**30), min_size=n + 1, max_size=n + 1))
        assert lp._edge_sums(H, vals) == [sum(vals[v] for v in e) for e in H.edges]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_edgeless_graph_has_no_sums(self, k):
        assert lp._edge_sums(KGraph(6, k, []), [0, 1, -2, 3, -4, 5, -6]) == []

    @pytest.mark.parametrize(
        "H, prefixes",
        [
            (augmented_18(12, 0), None),
            # every (k-1)-prefix on 1..7 owns one edge, then exactly two
            (KGraph(8, 3, [p + (8,) for p in combinations(range(1, 8), 2)]), 21),
            (KGraph(9, 3, [p + (p[1] + d,) for p in combinations(range(1, 8), 2) for d in (1, 2)]), 21),
            (KGraph(9, 4, [p + (9,) for p in combinations(range(1, 9), 3)]), 56),
        ],
        ids=["augmented-18", "one-edge-per-prefix", "two-edges-per-prefix", "k4-one-edge-per-prefix"],
    )
    def test_shared_prefixes(self, H, prefixes):
        rng = random.Random(H.num_edges)
        vals = [rng.randint(-(10**40), 10**40) for _ in range(H.n + 1)]
        assert lp._edge_sums(H, vals) == [sum(vals[v] for v in e) for e in H.edges]
        cols, owner, _ = H._prefix_index
        heads = sorted({e[:-1] for e in H.edges})
        assert list(zip(*cols))[1:] == heads  # each prefix once, after the pad
        assert prefixes in (None, len(heads))
        assert [heads[j - 1] for j in owner] == [e[:-1] for e in H.edges]


@st.composite
def joins(draw):
    """join_clique(H, r) with k 2..4, n <= 9 (fewer than k base vertices too) and r 1..6."""
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=0, max_value=9 if k < 4 else 7))
    ksets = list(combinations(range(1, n + 1), k))
    H = KGraph(n, k, draw(st.lists(st.sampled_from(ksets), unique=True)) if ksets else [])
    return join_clique(H, draw(st.integers(min_value=1, max_value=6)))


# Dantzig's rule meets DEGENERATE_RUN degenerate pivots on this join, so
# Bland's rule prices the whole join there (found by scanning seeds)
BLAND_JOIN = join_clique(random_kgraph(8, 3, Fraction(7, 10), seed=317), 2)


class TestCliquePricing:
    """A join's k-sets that meet the clique, priced in closed form (KGraph._top_split)."""

    @settings(max_examples=60, deadline=None)
    @given(joins(), st.data())
    def test_same_pivots_as_fraction_simplex(self, G, data):
        assert G._top_split is not None
        vals = data.draw(st.lists(st.integers(-3, 3), min_size=G.n + 1, max_size=G.n + 1))  # many ties
        s = lp._edge_sums(G, vals)
        assert lp._cheapest(G, vals) == ((min(s), s.index(min(s))) if s else None)
        got = lp._solve_incidence_lp(G)
        want = oracles.fraction_simplex(G)[1:]
        assert got == want
        assert list(got[0]) == list(want[0])  # same basis order

    def test_bland_fallback_prices_the_whole_join(self):
        stats = {}
        want = oracles.fraction_simplex(BLAND_JOIN, stats)
        assert stats["bland_pivots"] > 0
        got = lp._solve_incidence_lp(BLAND_JOIN)
        assert got == want[1:]
        assert list(got[0]) == list(want[1])

    @settings(max_examples=60, deadline=None)
    @given(mixed_weights, st.data())
    def test_cover_check_agrees_with_fraction_sums(self, weights, data):
        k = data.draw(st.integers(min_value=2, max_value=3))
        r = data.draw(st.integers(min_value=1, max_value=len(weights)))
        n = len(weights) - r
        ksets = list(combinations(range(1, n + 1), k))
        G = join_clique(KGraph(n, k, data.draw(st.lists(st.sampled_from(ksets), unique=True)) if ksets else []), r)
        w = VertexWeights(tuple(weights))
        assert w.is_cover_of(G) == all(sum(w[v] for v in e) >= 1 for e in G.edges)

    def test_only_joins_carry_a_split(self):
        H = random_kgraph(6, 3, Fraction(1, 2), seed=1)
        assert H._top_split is None and join_clique(H, 0)._top_split is None
        assert join_clique(H, 3)._top_split == (3, H)
        assert join_clique(H, 3) == KGraph(9, 3, join_clique(H, 3).edges)


def _without_a_positive_entry(phi):
    drop = next(e for e, x in phi.items() if x > 0)
    return {e: x for e, x in phi.items() if e != drop}


class TestCertificate:
    """solve_fractional refuses a simplex answer whose witnesses do not check out."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda phi, duals: (phi, (Fraction(0),) * len(duals)), "not a fractional cover"),
            (lambda phi, duals: (_without_a_positive_entry(phi), duals), "disagrees"),
            (lambda phi, duals: (phi, (Fraction(1),) * len(duals)), "disagrees"),
        ],
        ids=["dual-not-a-cover", "primal-total-off", "dual-total-off"],
    )
    def test_refuses_bad_witness(self, monkeypatch, corrupt, message):
        solve = lp._solve_incidence_lp
        monkeypatch.setattr(lp, "_solve_incidence_lp", lambda H: corrupt(*solve(H)))
        with pytest.raises(InternalContradictionError, match=message):
            solve_fractional(complete(5, 3))


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

    def test_matching_then_cover_solves_once(self, monkeypatch):
        calls = []
        solve = lp._solve_incidence_lp
        monkeypatch.setattr(lp, "_solve_incidence_lp", lambda H: calls.append(H) or solve(H))
        H = build_Hknm(9, 3, 3)[0]
        nu_frac, phi = max_fractional_matching(H)
        tau_frac, w = min_fractional_cover(KGraph(9, 3, H.edges))  # an equal graph
        assert calls == [H]
        assert nu_frac == tau_frac == phi.value() == w.total()
        max_fractional_matching(complete(5, 3))
        assert len(calls) == 2

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

    def test_windows_of_exactly_k_entries_repeat_the_one_k_set(self):
        assert cyclic_windows([4, 6, 5], 3) == [(4, 5, 6)] * 3

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

    @settings(max_examples=60, deadline=None)
    @given(mixed_weights)
    def test_weight_labels_are_the_relabeling(self, weights):
        w = VertexWeights(tuple(weights))
        vs = range(1, w.n + 1)
        # the new label of v is 1 + the number of vertices ranked before it
        rank = tuple(1 + sum(w[u] > w[v] or (w[u] == w[v] and u < v) for u in vs) for v in vs)
        assert lp._weight_labels(w.weights) == rank == relabel_by_weights(KGraph(w.n, 3, []), w)[1]

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

    @pytest.mark.parametrize(
        "phi, message",
        [
            ({(1, 2, 4): Fraction(1)}, "support edge (1, 2, 4) is not a host edge"),
            ({(1, 2, 3): Fraction(-1, 2)}, "phi((1, 2, 3)) = -1/2 outside [0, 1]"),
            ({(1, 2, 3): 2}, "phi((1, 2, 3)) = 2 outside [0, 1]"),
            (
                {(1, 2, 3): 1, (1, 3, 5): Fraction(1, 2), (1, 4, 5): Fraction(1, 3)},
                "vertex loads exceed 1: {1: Fraction(11, 6), 3: Fraction(3, 2)}",
            ),
            ({(1, 2, 3): 0.5}, "phi((1, 2, 3)) = 0.5 is not a rational number"),
            ({(1, 2, 3): "x"}, "phi((1, 2, 3)) = 'x' is not a rational number"),
        ],
        ids=["not-a-host-edge", "negative", "int-above-1", "overload", "float", "str"],
    )
    def test_names_the_bad_entry(self, phi, message):
        H = KGraph(5, 3, [(1, 2, 3), (1, 3, 5), (1, 4, 5)])
        with pytest.raises(InvalidQueryError) as info:
            FractionalAssignment(H, phi)
        assert str(info.value) == message

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_integer_checks_agree_with_fraction_loads(self, data):
        H = complete(6, 3)
        support = data.draw(st.lists(st.sampled_from(H.edges), unique=True, max_size=6))
        phi = {e: data.draw(mixed_weights.map(lambda ws: ws[0])) for e in support}
        loads = {v: sum((x for e, x in phi.items() if v in e), Fraction(0)) for v in H.vertices()}
        if max(loads.values()) > 1:
            with pytest.raises(InvalidQueryError, match="vertex loads exceed 1"):
                FractionalAssignment(H, phi)
        else:
            assignment = FractionalAssignment(H, phi)
            assert assignment.loads() == loads
            assert assignment.value() == sum(phi.values(), Fraction(0))


FOUR_HALVES = VertexWeights((Fraction(1, 2),) * 4)
THREE_WEIGHTS = VertexWeights((Fraction(1, 2), Fraction(1, 3), Fraction(0)))


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda: VertexWeights((Fraction(3, 2),)), "must lie in"),
        (lambda: VertexWeights((Fraction(1, 2), "x")), "must lie in"),
        (lambda: VertexWeights((0.5,) * 3).is_cover_of(complete(3, 3)), "be rational numbers"),
        (lambda: weight_closure(6, 2.5, VertexWeights((Fraction(1, 2),) * 6)), "sizes must be integers"),
        (lambda: weight_closure(6, "3", VertexWeights((Fraction(1, 2),) * 6)), "sizes must be integers"),
        (lambda: weight_closure(5, 3, FOUR_HALVES), "cover 4 vertices, expected 5"),
        (lambda: relabel_by_weights(complete(5, 3), FOUR_HALVES), "cover 4 vertices, expected 5"),
        (lambda: VertexWeights((Fraction(1),) * 3).is_cover_of(complete(5, 3)), "cover 3 vertices, expected 5"),
        (lambda: FOUR_HALVES.is_cover_of(complete(3, 3)), "cover 4 vertices, expected 3"),
        (lambda: cyclic_windows([1, 2], 3), "need at least k=3 vertices for a window, got 2"),
        (lambda: cyclic_windows([1, 2, 3], 0), "window size k must be >= 1, got 0"),
        (lambda: cyclic_windows([1, 2, 3], 1.5), "sizes must be integers, got k=1.5"),
        (lambda: permute_weights(THREE_WEIGHTS, (1, 2)), r"permutation of 1\.\.3, got \(1, 2\)"),
        (lambda: permute_weights(THREE_WEIGHTS, (2, 2, 1)), r"permutation of 1\.\.3, got \(2, 2, 1\)"),
        (lambda: permute_weights(THREE_WEIGHTS, (1, 1, 5)), r"permutation of 1\.\.3, got \(1, 1, 5\)"),
    ],
    ids=[
        "weight-above-1",
        "weight-x",
        "weight-float",
        "closure-k-2.5",
        "closure-k-str",
        "closure-length",
        "relabel-length",
        "cover-fewer-weights",
        "cover-more-weights",
        "windows-fewer-than-k",
        "windows-k-0",
        "windows-k-not-an-integer",
        "permute-too-short",
        "permute-repeated-label",
        "permute-label-out-of-range",
    ],
)
def test_out_of_range_query_is_rejected(query, message):
    with pytest.raises(InvalidQueryError, match=message):
        query()
