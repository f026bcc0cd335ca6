import gc
import json
import math
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

import oracles
from hypermatch import (
    KGraph,
    build_Hknm,
    complete,
    degree,
    independence_number,
    join_clique,
    lp,
    parity_construction,
    pipeline,
    random_kgraph,
)
from hypermatch.core import induced
from hypermatch.errors import (
    BudgetExceededError,
    InternalContradictionError,
    InvalidQueryError,
    StepFailureError,
)
from hypermatch.matching import exact_nu
from hypermatch.pipeline import (
    PipelineConfig,
    SamplerSettings,
    augmentation_residual,
    check_pipeline_preconditions,
    chernoff_band,
    first_round_sampler,
    fractional_pm_pipeline,
    minimal_feasible_r,
    padded_clique_size,
)


class TestBuildAugmented:
    """The padded clique size, and the augmented graph joined from it."""

    def test_rounding_example(self):
        r = padded_clique_size(20, 3, 3, Fraction(1, 10))
        assert r == 5  # ceil((20 - 9 - 2) / 2)
        assert augmentation_residual(20, 3, 3, Fraction(1, 10), r) == Fraction(1)

    def test_eta_zero_at_exact_fit_returns_graph(self):
        H = complete(9, 3)
        r = padded_clique_size(9, 3, 3, 0)
        assert r == 0 and join_clique(H, r) is H

    def test_infeasible_m(self):
        with pytest.raises(InvalidQueryError):
            padded_clique_size(9, 3, 4, Fraction(1, 10))

    def test_degree_gain_of_original_vertices(self):
        H = random_kgraph(12, 3, 0.4, seed=2)
        r = padded_clique_size(12, 3, 3, Fraction(1, 10))
        aug = join_clique(H, r)
        gain = comb(12 + r - 1, 2) - comb(11, 2)
        for v in (1, 5, 12):
            assert degree(aug, {v}) == degree(H, {v}) + gain

    @pytest.mark.parametrize(
        "rule, args",
        [
            (padded_clique_size, (9, 3, 2.5, Fraction(1, 10))),
            (padded_clique_size, (9.5, 3, 2, Fraction(1, 10))),
            (augmentation_residual, (9, 3, 2.5, Fraction(1, 10), 1)),
            (minimal_feasible_r, (9, 3, 2.5)),
        ],
        ids=["padded-m-2.5", "padded-n-9.5", "residual-m-2.5", "minimal-m-2.5"],
    )
    def test_non_integer_sizes_are_rejected(self, rule, args):
        with pytest.raises(InvalidQueryError, match="must be integers"):
            rule(*args)


class TestPreconditions:
    def test_reported_not_enforced(self):
        H = KGraph(12, 3, [(1, 2, 3)])  # terrible degree, huge alpha
        cfg = PipelineConfig()
        pre = check_pipeline_preconditions(H, 3, minimal_feasible_r(12, 3, 3), cfg)
        assert pre["degree_ok"] is False
        assert pre["alpha_ok"] is False
        assert pre["clique_ok"] is True


class TestPipeline:
    def test_complete_12_with_minimal_padding(self):
        H = complete(12, 3)
        cfg = PipelineConfig(eta=Fraction(1, 12))
        r = padded_clique_size(12, 3, 3, cfg.eta)
        phi, trace = fractional_pm_pipeline(H, 3, r, cfg)
        assert trace.value == Fraction(12 + r, 3)
        assert phi.is_perfect()
        assert all(pre for pre in (trace.preconditions["alpha_ok"], trace.preconditions["degree_ok"]))

    def test_zero_residue_perfect_matching_is_integral(self):
        H = complete(12, 3)
        cfg = PipelineConfig(eta=Fraction(1, 100))
        # r = ceil((12 - 12 - 0.12)/2) would be negative; use m=4, eta tiny -> infeasible
        with pytest.raises(InvalidQueryError):
            padded_clique_size(12, 3, 4, Fraction(1, 100))
        phi, trace = fractional_pm_pipeline(H, 4, 0, cfg)
        assert trace.s == 0
        assert set(phi.phi.values()) == {Fraction(1)}
        assert trace.value == 4

    def test_block_route_on_template_plus_block(self):
        base, _ = build_Hknm(20, 3, 3)
        extra = list(combinations(range(3, 9), 3))
        H = KGraph(20, 3, list(base.edges) + extra)
        r = minimal_feasible_r(20, 3, 3)
        phi, trace = fractional_pm_pipeline(H, 3, r, PipelineConfig(), route="greedy")
        assert trace.route_used == "greedy"
        assert trace.value == Fraction(20 + r, 3)
        assert phi.is_perfect()
        sizes = {s.name: s.details.get("size") for s in trace.steps if "size" in s.details}
        assert sizes["matching_verify"] == 3

    def test_exact_route_on_same_instance(self):
        base, _ = build_Hknm(20, 3, 3)
        extra = list(combinations(range(3, 9), 3))
        H = KGraph(20, 3, list(base.edges) + extra)
        r = minimal_feasible_r(20, 3, 3)
        phi, trace = fractional_pm_pipeline(H, 3, r, PipelineConfig())
        assert trace.route_used == "exact"
        assert phi.is_perfect()

    def test_auto_route_fails_at_find_matching_when_the_link_is_short(self):
        # the closure's link has nu = 1 < m, and auto never runs the block route
        H, _ = build_Hknm(9, 3, 2)
        with pytest.raises(StepFailureError, match=re.escape("number 1 is below m = 2")) as exc:
            fractional_pm_pipeline(H, 2, 3, PipelineConfig(), route="auto")
        steps = exc.value.trace.steps
        assert [(st.name, st.status) for st in steps] == [
            ("preconditions", "ok"),
            ("cover", "ok"),
            ("relabel", "ok"),
            ("closure", "ok"),
            ("link_stability", "ok"),
            ("complete_block", "ok"),
            ("neighborhood_transfer", "ok"),
            ("find_matching", "failed"),
        ]
        assert steps[-1].details["link_nu"] == 1
        assert exc.value.trace.route_used is None

    def test_only_greedy_reaches_verify_on_a_lone_block(self):
        # K_6 on [6] in 12 vertices, m = 1 and r = 3 < minimal_feasible_r: the
        # closure's link is empty, so auto stops where the block route's one
        # block edge would finish
        H = KGraph(12, 3, list(combinations(range(1, 7), 3)))
        with pytest.raises(StepFailureError) as exc:
            fractional_pm_pipeline(H, 1, 3, PipelineConfig())
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status, last.details["link_nu"]) == ("find_matching", "failed", 0)
        phi, trace = fractional_pm_pipeline(H, 1, 3, PipelineConfig(), route="greedy")
        assert trace.route_used == "greedy" and phi.is_perfect()
        assert not trace.preconditions["clique_ok"]

    def test_residue_splice_with_an_empty_completion(self):
        # m = 3 covers all 9 vertices and r = 1 is the one residue vertex, so
        # the splice window is the last matching edge plus that vertex
        phi, trace = fractional_pm_pipeline(complete(9, 3), 3, 1, PipelineConfig())
        steps = {st.name: st for st in trace.steps}
        assert steps["clique_completion"].details == {"size": 0}
        assert steps["residue_splice"].details == {"value": Fraction(10, 3)}
        assert "assemble" not in steps
        assert phi.is_perfect() and trace.value == Fraction(10, 3)

    def test_greedy_route_sweep_ends_perfect_or_at_a_block_route_step(self):
        # random and template-plus-block 3-graphs; the block route may give
        # up (its guarantees are asymptotic) but never contradicts itself
        outcomes = {"perfect": 0, "block_route_failure": 0, "transversal_edges": 0}
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(9, 15)
            m = rng.randint(1, n // 3)
            if seed % 2:
                base, _ = build_Hknm(n, 3, m)
                lo = rng.randint(1, m)
                extra = combinations(range(lo, min(n, lo + rng.randint(3, 8)) + 1), 3)
                H = KGraph(n, 3, sorted(set(base.edges) | set(extra)))
            else:
                H = random_kgraph(n, 3, rng.choice([0.2, 0.5, 0.8]), seed=seed)
            r = minimal_feasible_r(n, 3, m) + rng.randint(0, 2)
            cfg = PipelineConfig(rho=(Fraction(1, 10000), Fraction(1, 2), Fraction(1000))[seed % 3])
            # auto reaches verify on every host here, so also wherever greedy does
            auto_phi, auto_trace = fractional_pm_pipeline(H, m, r, cfg)
            assert auto_trace.route_used == "exact" and auto_phi.is_perfect(), seed
            try:
                phi, trace = fractional_pm_pipeline(H, m, r, cfg, route="greedy")
            except StepFailureError as exc:
                assert exc.trace.steps[-1].name.startswith("block_route_"), seed
                outcomes["block_route_failure"] += 1
                continue
            assert phi.is_perfect() and trace.value == Fraction(n + r, 3), seed
            assert (trace.steps[-1].name, trace.steps[-1].status) == ("verify", "ok"), seed
            steps = {st.name: st for st in trace.steps}
            outcomes["perfect"] += 1
            outcomes["transversal_edges"] += steps["block_route_transversal"].details["size"]
        assert all(outcomes.values()), outcomes

    def test_edgeless_fails_at_cover_certificate(self):
        H = KGraph(12, 3, [])
        r = minimal_feasible_r(12, 3, 3)
        with pytest.raises(StepFailureError) as exc:
            fractional_pm_pipeline(H, 3, r, PipelineConfig())
        trace = exc.value.trace
        assert trace.preconditions["degree_ok"] is False
        assert any(s.name == "cover_certificate" and s.status == "failed" for s in trace.steps)

    def test_incomplete_block_fails_when_the_independence_margin_is_unmet(self):
        H = random_kgraph(9, 3, Fraction(1, 10), seed=9)
        with pytest.raises(StepFailureError) as exc:
            fractional_pm_pipeline(H, 1, 0, PipelineConfig(eps=Fraction(1, 2)))
        trace = exc.value.trace
        assert trace.preconditions["alpha_ok"] is False
        assert trace.records()[-1] == {
            "step": "complete_block",
            "status": "failed",
            "message": "low-index block [6] is not complete (independence precondition unmet)",
            "missing": [4, 5, 6],
        }

    def test_failure_inside_a_step_carries_the_trace(self):
        # r = 1 leaves no free clique vertex to complete the 4 leftover vertices
        with pytest.raises(StepFailureError) as exc:
            fractional_pm_pipeline(complete(13, 3), 3, 1, PipelineConfig())
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status) == ("clique_completion", "failed")
        assert last.details["leftover"] == 4 and last.details["clique_free"] == 0
        assert last.details == {"message": str(exc.value), **exc.value.details}

    def test_errors_keep_their_details(self):
        err = InternalContradictionError("packing LP reported unbounded", check="lp-bounded")
        assert (str(err), err.details, err.trace) == (
            "packing LP reported unbounded",
            {"check": "lp-bounded"},
            None,
        )
        hit = pickle.loads(pickle.dumps(BudgetExceededError("exact_nu node budget exceeded", nodes=7)))
        assert (str(hit), hit.details, hit.nodes) == ("exact_nu node budget exceeded", {"nodes": 7}, 7)

    def test_budget_hit_inside_a_step_is_indeterminate(self, monkeypatch):
        def out_of_budget(H):
            raise BudgetExceededError("exact_nu node budget exceeded", nodes=7)

        monkeypatch.setattr("hypermatch.pipeline.exact_nu", out_of_budget)
        with pytest.raises(BudgetExceededError) as exc:
            fractional_pm_pipeline(complete(12, 3), 3, 1, PipelineConfig(eta=Fraction(1, 12)))
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status) == ("find_matching", "indeterminate")
        assert last.record() == {
            "step": "find_matching",
            "status": "indeterminate",
            "message": "exact_nu node budget exceeded",
            "nodes": 7,
        }
        assert [s.status for s in exc.value.trace.steps[:-1]] == ["ok"] * 7

    def test_unmarked_package_error_inside_a_step_is_failed(self, monkeypatch):
        def broken(H):
            raise InvalidQueryError("link graph rejected")

        monkeypatch.setattr("hypermatch.pipeline.exact_nu", broken)
        with pytest.raises(InvalidQueryError) as exc:
            fractional_pm_pipeline(complete(12, 3), 3, 1, PipelineConfig(eta=Fraction(1, 12)))
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status) == ("find_matching", "failed")
        assert last.details == {"message": "link graph rejected"}

    def test_contradiction_names_its_step_and_carries_the_trace(self, monkeypatch):
        monkeypatch.setattr("hypermatch.pipeline.is_stable", lambda H: False)
        with pytest.raises(InternalContradictionError) as exc:
            fractional_pm_pipeline(complete(12, 3), 3, 1, PipelineConfig(eta=Fraction(1, 12)))
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status) == ("link_stability", "failed")
        assert last.details == {"message": "link of the closure is not stable"}

    def test_completion_outside_the_closure_is_caught_by_the_witness(self, monkeypatch):
        closures = []
        real_closure = pipeline.weight_closure
        real_complete = pipeline._complete_through_clique

        def recorded_closure(*args):
            closures.append(real_closure(*args))
            return closures[-1]

        def with_a_non_edge(leftover, q_free, k):
            closure = closures[-1]
            outside = next(
                e for e in combinations(range(1, closure.n + 1), k) if e not in closure.edge_set
            )
            return real_complete(leftover, q_free, k) + [outside]

        monkeypatch.setattr(pipeline, "weight_closure", recorded_closure)
        monkeypatch.setattr(pipeline, "_complete_through_clique", with_a_non_edge)
        H, _ = build_Hknm(9, 3, 2)  # its weight closure is not complete
        with pytest.raises(InvalidQueryError, match="is not a host edge") as exc:
            fractional_pm_pipeline(H, 1, 3, PipelineConfig())
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status) == ("assemble", "failed")

    def test_clique_completion_matches_the_popping_loop(self):
        rng = random.Random(7)
        for k in (3, 4, 5):
            for n_left in range(13):
                for n_q in range(13):
                    leftover = rng.sample(range(1, 40), n_left)
                    q_free = list(range(40, 40 + n_q))
                    expected = oracles.complete_through_clique(leftover, q_free, k)
                    assert pipeline._complete_through_clique(leftover, q_free, k) == expected

    def test_short_completion_is_caught_at_verify(self, monkeypatch):
        real = pipeline._complete_through_clique
        monkeypatch.setattr(
            pipeline, "_complete_through_clique", lambda *args: real(*args)[:-1]
        )
        with pytest.raises(InternalContradictionError) as exc:
            fractional_pm_pipeline(complete(12, 3), 3, 3, PipelineConfig())
        assemble, verify = exc.value.trace.steps[-2:]
        assert (assemble.name, assemble.status) == ("assemble", "ok")
        assert assemble.details == {"value": Fraction(4)}
        assert (verify.name, verify.status) == ("verify", "failed")
        assert verify.details["lp_value"] == Fraction(5)

    def test_value_matches_lp_on_random_dense(self):
        from hypermatch.lp import max_fractional_matching

        for seed in (0, 1):
            H = random_kgraph(13, 3, 0.8, seed=seed)
            r = minimal_feasible_r(13, 3, 3)
            phi, trace = fractional_pm_pipeline(H, 3, r, PipelineConfig())
            aug = join_clique(trace_relabel(H, trace), r)
            lp_val, _ = max_fractional_matching(aug)
            assert trace.value == lp_val == Fraction(13 + r, 3)

    def test_stripping_argument_yields_integral_matching(self):
        # whenever the augmented graph has a matching of size m + r, removing
        # the <= r clique-touching edges leaves >= m edges inside H; needs an
        # r small enough that n + r >= k(m + r), i.e. the padded rule, not
        # the clique-completion minimum
        H = random_kgraph(12, 3, 0.85, seed=4)
        m, r = 3, 1
        aug = join_clique(H, r)
        nu, M = exact_nu(aug)
        assert nu >= m + r
        inside = [e for e in M.edges[: m + r] if all(v <= 12 for v in e)]
        assert len(inside) >= m
        nu_H, _ = exact_nu(H)
        assert nu_H >= m

    def test_trace_records_serialize(self):
        H = complete(12, 3)
        _, trace = fractional_pm_pipeline(H, 3, 3, PipelineConfig())
        text = json.dumps(trace.records())
        assert "summary" in text

    def test_solves_the_lp_once(self, monkeypatch):
        calls = []
        solve = lp._solve_incidence_lp
        monkeypatch.setattr(lp, "_solve_incidence_lp", lambda H: calls.append(H) or solve(H))
        _, trace = fractional_pm_pipeline(complete(12, 3), 3, 3, PipelineConfig())
        assert trace.value == 5
        assert len(calls) == 1

    @pytest.mark.parametrize("n, m", [(12, 2), (13, 3), (14, 4)])
    def test_closure_core_is_the_closure_induced_on_the_original_vertices(self, monkeypatch, n, m):
        seen = {}
        real_link = pipeline.link

        def link(G, v):
            seen["core"] = G
            return real_link(G, v)

        monkeypatch.setattr(pipeline, "link", link)
        H = random_kgraph(n, 3, Fraction(7, 10), seed=n)
        assignment, trace = fractional_pm_pipeline(H, m, minimal_feasible_r(n, 3, m), PipelineConfig())
        closure = assignment.host
        assert trace.steps[-1].name == "verify"
        assert seen["core"] == induced(closure, range(1, n + 1))
        assert seen["core"].n == n and closure.n > n

    @pytest.mark.parametrize(
        "host, m, r",
        [
            (lambda: random_kgraph(12, 3, Fraction(7, 10), seed=0), 2, 6),
            (lambda: random_kgraph(13, 3, Fraction(7, 10), seed=1), 3, 5),
            (lambda: random_kgraph(14, 3, Fraction(17, 20), seed=2), 4, 4),
            (lambda: random_kgraph(12, 4, Fraction(7, 10), seed=3), 2, 6),
            (lambda: random_kgraph(12, 3, Fraction(6, 10), seed=4), 3, 0),
            (lambda: build_Hknm(9, 3, 2)[0], 1, 3),
        ],
        ids=["pool-12-2", "pool-13-3", "pool-14-4", "k4", "r0", "incomplete-closure"],
    )
    def test_closure_is_the_weight_closure_of_the_joined_cover(self, host, m, r):
        # the reference prices every k-set of [n + r] under the relabeled cover
        H = host()
        n, k = H.n, H.k
        assignment, trace = fractional_pm_pipeline(H, m, r, PipelineConfig())
        _, cover = lp.min_fractional_cover(join_clique(H, r))
        full_map = trace.relabel_old_to_new + tuple(range(n + 1, n + r + 1))
        closure = assignment.host
        assert closure == lp.weight_closure(n + r, k, lp.permute_weights(cover, full_map))
        assert closure._top_split == ((r, induced(closure, range(1, n + 1))) if r else None)

    @pytest.mark.parametrize("m, r", [("3", 1), (3, 1.5)], ids=["m-str", "r-float"])
    def test_non_integer_m_or_r_is_rejected(self, m, r):
        with pytest.raises(InvalidQueryError, match="sizes must be integers"):
            fractional_pm_pipeline(complete(12, 3), m, r, PipelineConfig())

    @pytest.mark.parametrize("removed", [(1, 6, 11), (2, 7, 9), (6, 10, 11)])
    def test_transfer_names_the_first_failing_link_edge(self, monkeypatch, removed):
        seen = {}
        real_closure, real_link = pipeline.weight_closure, pipeline.link

        def closure_without_one_edge(*args):
            G = real_closure(*args)
            return KGraph._from_sorted(G.n, G.k, [e for e in G.edges if e != removed])

        def link(G, v):
            seen["core"] = G
            return real_link(G, v)

        monkeypatch.setattr(pipeline, "weight_closure", closure_without_one_edge)
        monkeypatch.setattr(pipeline, "link", link)
        with pytest.raises(InternalContradictionError) as exc:
            fractional_pm_pipeline(complete(12, 3), 3, 1, PipelineConfig(eta=Fraction(1, 12)))
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status) == ("neighborhood_transfer", "failed")
        # the first (e, i) in link order, then vertex order, as a probe of every pair finds it
        core = seen["core"].edge_set
        expected = next(
            (e, i)
            for e in real_link(seen["core"], 12).edges
            for i in range(1, 13)
            if i not in e and tuple(sorted(e + (i,))) not in core
        )
        assert last.details["witness"] == expected == (removed[:2], removed[2])

    def test_rejects_bad_route(self):
        with pytest.raises(InvalidQueryError):
            fractional_pm_pipeline(complete(9, 3), 3, 3, PipelineConfig(), route="magic")
        with pytest.raises(InvalidQueryError, match=r"route must be auto\|greedy"):
            fractional_pm_pipeline(complete(9, 3), 3, 3, PipelineConfig(), route="exact")


def trace_relabel(H, trace):
    """Apply the trace's vertex relabeling to H (tests only)."""
    perm = trace.relabel_old_to_new
    edges = [tuple(sorted(perm[v - 1] for v in e)) for e in H.edges]
    return KGraph(H.n, H.k, edges)


class TestSampler:
    def test_keep_one_trims_to_multiple_of_k(self):
        H = KGraph(10, 3, [])
        fam = first_round_sampler(H, SamplerSettings(keep_probability=1.0, copy_count=5))
        assert all(sz == 9 for sz in fam.sizes)  # 10 mod 3 = 1 vertex trimmed

    def test_keep_zero_gives_empty_copies(self):
        H = KGraph(10, 3, [])
        fam = first_round_sampler(H, SamplerSettings(keep_probability=0.0, copy_count=4))
        assert fam.sizes == (0, 0, 0, 0)
        assert set(fam.vertex_counts.values()) == {0}

    def test_seed_reproducible(self):
        H = KGraph(30, 3, [])
        settings = SamplerSettings(keep_probability=0.5, copy_count=6, seed=5)
        a = first_round_sampler(H, settings)
        b = first_round_sampler(H, settings)
        assert a.copies == b.copies

    def test_keep_one_keeps_every_vertex(self):
        H = complete(9, 3)
        fam = first_round_sampler(H, SamplerSettings(keep_probability=1.0, copy_count=1))
        assert fam.copies[0] == tuple(range(1, 10))

    def test_keep_probability_and_copy_count_are_required(self):
        with pytest.raises(TypeError):
            SamplerSettings(seed=0)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"keep_probability": 0.5, "copy_count": 2.5}, "sizes must be integers"),
            ({"keep_probability": "x", "copy_count": 1}, "keep_probability"),
        ],
        ids=["copy-count-2.5", "keep-probability-str"],
    )
    def test_settings_that_are_not_numbers_are_rejected(self, settings, message):
        with pytest.raises(InvalidQueryError, match=message):
            SamplerSettings(**settings)

    def test_numpy_copy_count_draws_the_same_copies(self):
        H = KGraph(30, 3, [])
        a = first_round_sampler(H, SamplerSettings(0.5, np.int64(6), seed=5))
        assert a.copies == first_round_sampler(H, SamplerSettings(0.5, 6, seed=5)).copies

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint8(5)])
    def test_integer_seed_is_stored_as_the_int(self, seed):
        H = KGraph(30, 3, [])
        settings = SamplerSettings(0.5, 6, seed=seed)
        assert type(settings.seed) is int
        assert first_round_sampler(H, settings).copies == first_round_sampler(H, SamplerSettings(0.5, 6, 5)).copies


class TestChernoff:
    def test_band_inverts_tails(self):
        lo, hi = chernoff_band(4000, 0.05, 1e-3)
        mu = 200.0
        assert lo < mu < hi
        # the band edges meet the requested failure probability
        assert math.isclose(math.exp(-((mu - lo) ** 2) / (2 * mu)), 1e-3)
        assert math.isclose(math.exp(-((hi - mu) ** 2) / (3 * mu)), 1e-3)

    @pytest.mark.parametrize("fail_prob", [0, 1, "x"])
    def test_fail_prob_outside_the_open_unit_interval_is_rejected(self, fail_prob):
        with pytest.raises(InvalidQueryError, match="fail_prob"):
            chernoff_band(100, Fraction(1, 2), fail_prob)

    def test_band_wider_than_one_and_a_half_mu_is_rejected(self):
        # mu = 1/2: the lower tail needs lam = sqrt(2 mu ln 1000) > 3/4
        with pytest.raises(InvalidQueryError, match="1.5\\*mu"):
            chernoff_band(10, Fraction(1, 20), 1e-3)

    def test_zero_mean_gives_the_zero_band(self):
        assert chernoff_band(100, 0, 1e-3) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "n, p, message",
        [
            (10, -1, "p a real number"),
            (10, Fraction(3, 2), "p a real number"),
            (10.5, Fraction(1, 2), "sizes must be integers"),
        ],
        ids=["p-negative", "p-above-1", "n-10.5"],
    )
    def test_bad_n_or_p_is_rejected(self, n, p, message):
        with pytest.raises(InvalidQueryError, match=message):
            chernoff_band(n, p, 0.1)


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda: PipelineConfig(eta=0), "eta"),
        (lambda: PipelineConfig(eps=1), "eps"),
        (lambda: PipelineConfig(rho=-1), "rho"),
        (lambda: PipelineConfig(eta="x"), "eta"),
        (lambda: PipelineConfig(eps="x"), "eps"),
        (lambda: PipelineConfig(rho="x"), "rho"),
        (lambda: SamplerSettings(2, 1), "keep_probability"),
        (lambda: SamplerSettings(0.5, -1), "copy_count"),
        (lambda: fractional_pm_pipeline(complete(12, 3), 0, 3, PipelineConfig()), "m=0"),
        (lambda: padded_clique_size(20, 3, 2, -5), "eta must be a rational number >= 0, got -5"),
        (lambda: padded_clique_size(20, 3, 2, None), "eta"),
        (lambda: augmentation_residual(20, 3, 2, "3", 4), "eta"),
        (lambda: augmentation_residual(20, 3, 2, float("inf"), 4), "eta"),
        (lambda: PipelineConfig(eps=0.1), "eps must be a rational number"),
        (lambda: PipelineConfig(rho=0.001), "rho must be a nonnegative rational number"),
        (lambda: PipelineConfig(eta=0.1), "eta must be a positive rational number"),
        (lambda: minimal_feasible_r(5, 1, 1), "uniformity k must be >= 2"),
        (lambda: padded_clique_size(5, 1, 1, Fraction(1, 10)), "uniformity k must be >= 2"),
        (lambda: augmentation_residual(5, 1, 1, 0, 2), "uniformity k must be >= 2"),
        (lambda: SamplerSettings(Fraction(1, 2), 2, seed=2.5), "seed=2.5"),
        (lambda: SamplerSettings(Fraction(1, 2), 2, seed=None), "seed=None"),
        (lambda: padded_clique_size(10, 3, 1, 0.3), "eta must be a rational number >= 0, got 0.3"),
        (lambda: augmentation_residual(10, 3, 1, np.float64(0.3), 2), "eta must be a rational number"),
    ],
    ids=[
        "eta-0", "eps-1", "rho-negative", "eta-x", "eps-x", "rho-x", "keep-2", "copies-negative",
        "pipeline-m-0", "padded-eta-negative", "padded-eta-none", "residual-eta-str", "residual-eta-inf",
        "eps-float", "rho-float", "eta-float", "minimal-k-1", "padded-k-1", "residual-k-1",
        "sampler-seed-2.5", "sampler-seed-none", "padded-eta-float", "residual-eta-numpy-float",
    ],
)
def test_out_of_range_query_is_rejected(query, message):
    with pytest.raises(InvalidQueryError, match=message):
        query()


@pytest.fixture
def collector_off():
    """The cyclic collector disabled; its state and gc.garbage restored afterwards."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    yield
    gc.set_debug(flags)
    gc.garbage.clear()
    if enabled:
        gc.enable()


def test_pipeline_and_searches_free_everything_without_the_collector(collector_off):
    gc.collect()  # frees what was left before the calls
    gc.set_debug(gc.DEBUG_SAVEALL)  # from here, what only the collector frees is kept in gc.garbage
    fractional_pm_pipeline(complete(12, 3), 3, 1, PipelineConfig(eta=Fraction(1, 12)))
    H = parity_construction(7, 5, 3)
    assert exact_nu(H)[0] < H.n // H.k  # no seed is perfect, so the walk runs
    assert independence_number(build_Hknm(9, 3, 3)[0]) == 7
    gc.collect()
    assert not gc.garbage, sorted({getattr(x, "__qualname__", type(x).__name__) for x in gc.garbage})
