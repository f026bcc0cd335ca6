import json
import math
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hypermatch import (
    KGraph,
    build_Hknm,
    complete,
    degree,
    join_clique,
    lp,
    random_kgraph,
)
from hypermatch.errors import (
    InfeasibleAugmentationError,
    InvalidQueryError,
    StepFailureError,
)
from hypermatch.matching import exact_nu
from hypermatch.pipeline import (
    PipelineConfig,
    SamplerSettings,
    build_augmented,
    augmentation_residual,
    check_pipeline_preconditions,
    check_sampler_properties,
    chernoff_band,
    chernoff_tail,
    first_round_sampler,
    fractional_pm_pipeline,
    minimal_feasible_r,
)


class TestBuildAugmented:
    def test_rounding_example(self):
        H = KGraph(20, 3, [(1, 2, 3)])
        aug, r = build_augmented(H, 3, Fraction(1, 10))
        assert r == 5  # ceil((20 - 9 - 2) / 2)
        assert aug.n == 25
        assert augmentation_residual(20, 3, 3, Fraction(1, 10), r) == Fraction(1)

    def test_eta_zero_at_exact_fit_returns_graph(self):
        H = complete(9, 3)
        aug, r = build_augmented(H, 3, 0)
        assert r == 0 and aug is H

    def test_infeasible_m(self):
        H = complete(9, 3)
        with pytest.raises(InfeasibleAugmentationError):
            build_augmented(H, 4, Fraction(1, 10))

    def test_degree_gain_of_original_vertices(self):
        H = random_kgraph(12, 3, 0.4, seed=2)
        aug, r = build_augmented(H, 3, Fraction(1, 10))
        gain = comb(12 + r - 1, 2) - comb(11, 2)
        for v in (1, 5, 12):
            assert degree(aug, {v}) == degree(H, {v}) + gain

    def test_large_eta_triggers_warning_not_error(self):
        H = complete(20, 3)
        with pytest.warns(UserWarning):
            _, r = build_augmented(H, 2, Fraction(1, 2))
        assert (r - 3) * 2 < 20 - 6  # the warned-about inequality indeed fails


class TestPreconditions:
    def test_reported_not_enforced(self):
        H = KGraph(12, 3, [(1, 2, 3)])  # terrible degree, huge alpha
        cfg = PipelineConfig()
        pre = check_pipeline_preconditions(H, 3, minimal_feasible_r(12, 3, 3), cfg)
        assert pre["degree_ok"] is False
        assert pre["alpha_ok"] is False
        assert pre["clique_ok"] is True

    def test_alpha_skip_warns(self):
        H = complete(12, 3)
        with pytest.warns(UserWarning):
            pre = check_pipeline_preconditions(H, 3, 6, PipelineConfig(), check_alpha=False)
        assert pre["alpha"] is None and pre["alpha_ok"] is None


class TestPipeline:
    def test_complete_12_with_minimal_padding(self):
        H = complete(12, 3)
        cfg = PipelineConfig(eta=Fraction(1, 12))
        aug, r = build_augmented(H, 3, cfg.eta)
        phi, trace = fractional_pm_pipeline(H, 3, r, cfg)
        assert trace.value == Fraction(12 + r, 3)
        assert phi.is_perfect()
        assert all(pre for pre in (trace.preconditions["alpha_ok"], trace.preconditions["degree_ok"]))

    def test_zero_residue_perfect_matching_is_integral(self):
        H = complete(12, 3)
        cfg = PipelineConfig(eta=Fraction(1, 100))
        # r = ceil((12 - 12 - 0.12)/2) would be negative; use m=4, eta tiny -> infeasible
        with pytest.raises(InfeasibleAugmentationError):
            build_augmented(H, 4, Fraction(1, 100))
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
        phi, trace = fractional_pm_pipeline(H, 3, r, PipelineConfig(), route="exact")
        assert trace.route_used == "exact"
        assert phi.is_perfect()

    def test_edgeless_fails_at_cover_certificate(self):
        H = KGraph(12, 3, [])
        r = minimal_feasible_r(12, 3, 3)
        with pytest.raises(StepFailureError) as exc:
            fractional_pm_pipeline(H, 3, r, PipelineConfig())
        trace = exc.value.trace
        assert trace.preconditions["degree_ok"] is False
        assert any(s.name == "cover_certificate" and s.status == "failed" for s in trace.steps)

    def test_failure_inside_a_step_carries_the_trace(self):
        # r = 1 leaves no free clique vertex to complete the 4 leftover vertices
        with pytest.raises(StepFailureError) as exc:
            fractional_pm_pipeline(complete(13, 3), 3, 1, PipelineConfig())
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status) == ("clique_completion", "failed")
        assert last.details["leftover"] == 4 and last.details["clique_free"] == 0

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

    def test_rejects_bad_route(self):
        with pytest.raises(InvalidQueryError):
            fractional_pm_pipeline(complete(9, 3), 3, 3, PipelineConfig(), route="magic")


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

    def test_single_full_copy_overlap_counts(self):
        H = complete(9, 3)
        fam = first_round_sampler(H, SamplerSettings(keep_probability=1.0, copy_count=1))
        assert fam.copies[0] == tuple(range(1, 10))
        rep = check_sampler_properties(fam, H, pair_limit=2, edge_limit=1)
        assert rep.passed("pair_overlap") and rep.passed("edge_overlap")

    def test_disjoint_copies_pair_incidence(self):
        H = KGraph(12, 3, [])
        fam = first_round_sampler(H, SamplerSettings(keep_probability=0.0, copy_count=0))
        fam.copies = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        assert fam.max_pair_incidence <= 1

    def test_complete_host_min_degree_property(self):
        H = complete(20, 3)
        fam = first_round_sampler(H, SamplerSettings(keep_probability=0.6, copy_count=3, seed=9))
        rep = check_sampler_properties(fam, H, rho_prime=Fraction(1), edge_limit=len(fam.copies))
        assert rep.passed("copy_min_degree")  # induced complete graphs beat the bound at rho'=1

    def test_paper_default_shapes(self):
        H = KGraph(50, 3, [])
        fam = first_round_sampler(H, SamplerSettings(seed=2))
        assert len(fam.copies) == math.ceil(50**1.1)
        assert all(sz % 3 == 0 for sz in fam.sizes)


class TestChernoff:
    def test_zero_deviation(self):
        assert chernoff_tail(100, Fraction(1, 2), 0) == (1.0, 1.0)

    def test_worked_example(self):
        lower, upper = chernoff_tail(100, Fraction(1, 2), 15)
        assert math.isclose(upper, math.exp(-1.5))
        assert math.isclose(lower, math.exp(-2.25))

    def test_boundary_rejected(self):
        with pytest.raises(InvalidQueryError):
            chernoff_tail(100, Fraction(1, 2), 75)

    def test_band_inverts_tails(self):
        lo, hi = chernoff_band(4000, 0.05, 1e-3)
        mu = 200.0
        assert lo < mu < hi
        # the band edges actually meet the requested failure probability
        lower, _ = chernoff_tail(4000, Fraction(1, 20), Fraction(mu - lo).limit_denominator(10**6))
        _, upper = chernoff_tail(4000, Fraction(1, 20), Fraction(hi - mu).limit_denominator(10**6))
        assert lower <= 1e-3 * 1.001 and upper <= 1e-3 * 1.001
