from fractions import Fraction

import pytest

from hypermatch import KGraph, build_Hknm, complete, min_l_degree, vertex_degree_threshold
from hypermatch.harness import (
    ExperimentReport,
    TightnessFailure,
    case_split_demo,
    conjecture_search,
    emit_report,
    graph_fingerprint,
    load_report,
    meets_degree_hypothesis,
    tightness_grid,
    verify_tightness,
)


class TestTightness:
    def test_single_point_9_3_3(self):
        rep = verify_tightness([(9, 3, 3)])
        rec = rep.instances[0]
        assert rec["delta1"] == rec["threshold"] == 13
        assert rec["nu"] == 2
        assert rec["next_checked"] and rec["next_delta1"] == 18 and rec["next_nu"] == 3

    def test_m1_edgeless_points(self):
        rep = verify_tightness([(7, 3, 1)])
        rec = rep.instances[0]
        assert rec["threshold"] == 0 and rec["nu"] == 0

    def test_grid_shape(self):
        grid = tightness_grid(ks=(3,), n_max=9)
        assert (9, 3, 3) in grid and (9, 3, 4) not in grid
        assert all(k + m - 1 <= n for (n, k, m) in grid)

    def test_failure_carries_instance(self, monkeypatch):
        import hypermatch.harness as hmod

        monkeypatch.setattr(hmod, "vertex_degree_threshold", lambda n, k, m: -1)
        with pytest.raises(TightnessFailure) as exc:
            verify_tightness([(9, 3, 3)])
        assert exc.value.record["n"] == 9
        assert "3 9" in exc.value.graph_text


class TestConjectureSearch:
    def test_zero_trials_empty(self):
        rep = conjecture_search(9, 3, 2, trials=0)
        assert rep.instances == [] and rep.counterexamples == []

    def test_uniform_p1_is_complete_graph(self):
        rep = conjecture_search(9, 3, 2, model="uniform-p", trials=3, p=Fraction(1), seed=4)
        assert rep.params["accepted"] == 3
        assert all(inst["nu"] == 3 for inst in rep.instances)
        assert rep.counterexamples == []

    def test_conditioned_instances_all_pass_filter(self):
        rep = conjecture_search(9, 3, 2, model="conditioned", trials=40, seed=1)
        thr = vertex_degree_threshold(9, 3, 2)
        assert rep.params["accepted"] == 40 - rep.params["exhausted_trials"]
        assert all(inst["delta1"] > thr for inst in rep.instances)

    def test_extremal_instance_excluded_by_strict_filter(self):
        H, _ = build_Hknm(9, 3, 2)
        assert min_l_degree(H, 1) == vertex_degree_threshold(9, 3, 2)
        assert not meets_degree_hypothesis(H, 2)

    def test_planted_model_runs(self):
        rep = conjecture_search(9, 3, 2, model="planted", trials=10, seed=2)
        assert rep.params["accepted"] >= 0

    def test_counterexample_reverifier(self):
        from hypermatch.harness import _reverify_counterexample

        H, _ = build_Hknm(9, 3, 3)  # delta1 = 13, nu = 2
        assert _reverify_counterexample(H, 3, 12)  # 13 > 12 and 2 < 3
        assert not _reverify_counterexample(H, 3, 13)  # filter fails
        assert not _reverify_counterexample(H, 2, 12)  # nu not below m

    def test_deterministic_reports(self):
        a = conjecture_search(9, 3, 2, trials=25, seed=9)
        b = conjecture_search(9, 3, 2, trials=25, seed=9)
        assert emit_report(a) == emit_report(b)


class TestReports:
    def _sample(self):
        rep = ExperimentReport(
            "demo",
            params={"alpha": Fraction(1, 3), "n": 9},
            seed=5,
        )
        rep.instances.append({"n": 9, "nu": 2, "nu_prime": Fraction(7, 3), "runtime_s": 0.123})
        rep.instances.append({"n": 10, "nu": None, "status": "indeterminate"})
        rep.counterexamples.append({"trial": 3, "nu": 1})
        return rep

    def test_records_round_trip(self):
        rep = self._sample()
        text = emit_report(rep, "records")
        back = load_report(text)
        assert emit_report(back, "records") == text
        assert back.experiment == "demo" and back.seed == 5

    def test_timings_excluded_by_default(self):
        rep = self._sample()
        assert "runtime" not in emit_report(rep, "records")
        assert "0.123" in emit_report(rep, "records", include_timings=True)

    def test_rows_header_and_blanks(self):
        text = emit_report(self._sample(), "rows")
        lines = text.splitlines()
        assert lines[0] == "n,nu,nu_prime,status"
        assert lines[1] == "9,2,7/3,"
        assert lines[2] == "10,,,indeterminate"

    def test_empty_report_is_header_only(self):
        rep = ExperimentReport("empty", params={})
        rows = emit_report(rep, "rows")
        assert rows == "\n"
        records = emit_report(rep, "records").splitlines()
        assert len(records) == 1

    def test_byte_identical_on_identical_input(self):
        a, b = self._sample(), self._sample()
        assert emit_report(a, "records") == emit_report(b, "records")
        assert emit_report(a, "rows") == emit_report(b, "rows")

    def test_fingerprint_stability(self):
        H, _ = build_Hknm(9, 3, 2)
        assert graph_fingerprint(H) == graph_fingerprint(KGraph(9, 3, H.edges))


class TestCaseSplit:
    def test_template_contains_branch(self):
        H, _ = build_Hknm(12, 4, 3)
        rep = case_split_demo(H, 3, Fraction(1, 100), Fraction(1, 10000))
        assert rep.branch == "contains"
        assert rep.containment.deficiency == 0

    def test_complete_graph_concludes_on_contains_branch(self):
        H = complete(12, 3)
        rep = case_split_demo(H, 3, Fraction(1, 10**6), Fraction(1, 10000))
        assert rep.branch == "contains"
        assert rep.matching_size >= 3 and rep.concludes

    def test_edgeless_no_conclusion(self):
        H = KGraph(12, 3, [])
        rep = case_split_demo(H, 3, Fraction(1, 10**6), Fraction(1, 10000))
        assert rep.branch == "non-contains"
        assert rep.pipeline_error is not None
        assert rep.pipeline_trace.preconditions["degree_ok"] is False
        assert rep.concludes is None

    def test_dense_random_non_contains_concludes_integrally(self):
        from hypermatch import random_kgraph

        H = random_kgraph(12, 3, Fraction(7, 10), seed=8)
        rep = case_split_demo(H, 2, Fraction(1, 10**9), Fraction(1, 10000), eta=Fraction(1, 12))
        if rep.branch == "non-contains":
            assert rep.concludes or rep.augmented_nu is not None
        else:
            assert rep.matching_size >= 2
