import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from hypermatch import (
    KGraph,
    Matching,
    build_Hknm,
    complete,
    constructions,
    join_clique,
    min_l_degree,
    parity_construction,
    parse_graph,
    random_kgraph,
    vertex_degree_threshold,
)
from hypermatch.errors import BudgetExceededError, InvalidQueryError
from hypermatch.harness import (
    ExperimentReport,
    TightnessFailure,
    case_split_demo,
    conjecture_search,
    emit_report,
    graph_fingerprint,
    load_report,
    tightness_grid,
    verify_tightness,
)
from hypermatch.matching import exact_nu


class TestTightness:
    def test_single_point_9_3_3(self):
        rep = verify_tightness([(9, 3, 3)])
        rec = rep.instances[0]
        assert rec["delta1"] == rec["threshold"] == 13
        assert rec["nu"] == 2
        assert rec["next_checked"] and rec["next_delta1"] == 18 and rec["next_nu"] == 3

    def test_records_hold_exactly_the_written_keys(self):
        # (9, 3, 3) checks its next graph and (3, 3, 1) cannot; neither writes nu_prime
        base = {"n", "k", "m", "delta1", "threshold", "nu", "next_delta1", "next_nu", "next_checked"}
        rep = verify_tightness([(9, 3, 3), (3, 3, 1)])
        assert [set(rec) for rec in rep.instances] == [base, base]
        assert emit_report(rep, "rows").splitlines()[0] == ",".join(sorted(base))

    def test_m1_edgeless_points(self):
        rep = verify_tightness([(7, 3, 1)])
        rec = rep.instances[0]
        assert rec["threshold"] == 0 and rec["nu"] == 0

    def test_grid_shape(self):
        grid = tightness_grid(ks=(3,), n_max=9)
        assert (9, 3, 3) in grid and (9, 3, 4) not in grid
        assert all(k + m - 1 <= n for (n, k, m) in grid)

    def test_each_extremal_graph_is_measured_once(self, monkeypatch):
        import hypermatch.harness as hmod

        calls = []
        real = hmod.exact_nu
        monkeypatch.setattr(hmod, "exact_nu", lambda H: calls.append(len(H.edges)) or real(H))
        rep = verify_tightness(tightness_grid(ks=(3,), n_max=9))
        # one call per distinct H_3(n, m), though most points also check m + 1
        measured = {(r["n"], r["m"]) for r in rep.instances}
        measured |= {(r["n"], r["m"] + 1) for r in rep.instances if r["next_checked"]}
        assert len(calls) == len(measured) < len(rep.instances) * 2

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

    def test_extremal_instance_excluded_by_strict_filter(self, monkeypatch):
        H, _ = build_Hknm(9, 3, 2)
        assert min_l_degree(H, 1) == vertex_degree_threshold(9, 3, 2) == 7
        monkeypatch.setattr("hypermatch.harness._sample_for_model", lambda *args: H)
        rep = conjecture_search(9, 3, 2, trials=3)
        assert (rep.params["accepted"], rep.instances) == (0, [])
        assert rep.params["delta1_histogram"] == {"7": 3}

    def test_planted_model_runs(self):
        rep = conjecture_search(9, 3, 2, model="planted", trials=10, seed=2)
        assert rep.params["accepted"] >= 0

    def test_counterexample_record_reparses_to_its_fingerprint(self, monkeypatch):
        # a stand-in exact_nu that finds one true edge makes every complete
        # graph look like a counterexample for m = 2
        monkeypatch.setattr(
            "hypermatch.harness.exact_nu", lambda H: (1, Matching.from_edges(H.edges[:1]))
        )
        rep = conjecture_search(9, 3, 2, model="uniform-p", trials=2, p=Fraction(1), seed=0)
        assert [c["trial"] for c in rep.counterexamples] == [0, 1]
        for rec in rep.counterexamples:
            G = parse_graph(rec["graph"])
            assert min_l_degree(G, 1) > vertex_degree_threshold(9, 3, 2)
            assert rec["fingerprint"] == hashlib.sha256(rec["graph"].encode("ascii")).hexdigest()
            assert (rec["delta1"], rec["nu"]) == (28, 1)

    def test_exhausted_trials_are_counted(self):
        # p = 0 never clears the degree filter, so every conditioned draw gives up
        rep = conjecture_search(9, 3, 2, model="conditioned", trials=3, p=Fraction(0))
        assert (rep.params["exhausted_trials"], rep.params["accepted"]) == (3, 0)
        assert rep.instances == [] and rep.params["delta1_histogram"] == {}

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
        rep.instances.append({"n": 9, "nu": 2, "nu_prime": Fraction(7, 3)})
        rep.instances.append({"n": 10, "nu": None, "status": "indeterminate"})
        rep.counterexamples.append({"trial": 3, "nu": 1})
        return rep

    def test_records_round_trip(self):
        rep = self._sample()
        text = emit_report(rep, "records")
        back = load_report(text)
        assert emit_report(back, "records") == text
        assert back.experiment == "demo" and back.seed == 5

    def test_timings_put_the_runtime_in_the_header(self):
        rep = verify_tightness([(6, 3, 2)])
        plain = json.loads(emit_report(rep).splitlines()[0])
        timed = json.loads(emit_report(rep, include_timings=True).splitlines()[0])
        assert "runtime_s" not in plain
        assert timed.pop("runtime_s") == rep.runtime_s > 0
        assert timed == plain

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
        last = rep.pipeline_trace.steps[-1]
        assert last.status == "failed" and last.details["message"]
        assert rep.pipeline_trace.preconditions["degree_ok"] is False
        assert rep.concludes is None

    def test_budget_hit_propagates_from_the_contains_branch(self, monkeypatch):
        # the parity graph is within eps = 1/10 of H_3(9, 2), and exact_nu
        # on the remainder of its template matching walks past the root
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        with pytest.raises(BudgetExceededError, match="exact_nu"):
            case_split_demo(parity_construction(5, 4, 3), 2, Fraction(1, 10), Fraction(1, 10000))

    def test_budget_hit_in_the_pipeline_propagates_with_its_trace(self, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        with pytest.raises(BudgetExceededError) as exc:
            case_split_demo(build_Hknm(12, 3, 4)[0], 2, Fraction(1, 10**9), Fraction(1, 10000))
        last = exc.value.trace.steps[-1]
        assert (last.name, last.status) == ("preconditions", "indeterminate")

    def test_budget_hit_in_the_augmented_matching_propagates(self, monkeypatch):
        def out_of_budget(H):
            raise BudgetExceededError("exact_nu node budget exceeded", nodes=3)

        monkeypatch.setattr("hypermatch.harness.exact_nu", out_of_budget)
        with pytest.raises(BudgetExceededError):
            case_split_demo(KGraph(12, 3, []), 3, Fraction(1, 10**6), Fraction(1, 10000))

    def test_dense_random_non_contains_concludes_integrally(self):
        from hypermatch import random_kgraph

        H = random_kgraph(12, 3, Fraction(7, 10), seed=8)
        rep = case_split_demo(H, 2, Fraction(1, 10**9), Fraction(1, 10000), eta=Fraction(1, 12))
        if rep.branch == "non-contains":
            assert rep.concludes or rep.augmented_nu is not None
        else:
            assert rep.matching_size >= 2

    def test_non_contains_branch_joins_the_clique_once(self, monkeypatch):
        # the pipeline's cover step builds the only join; every module that
        # holds join_clique gets the counting wrapper
        calls = []

        def counting(H, r):
            calls.append(r)
            return original(H, r)

        original = constructions.join_clique
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hypermatch" and getattr(module, "join_clique", None) is original:
                monkeypatch.setattr(module, "join_clique", counting)
        H = random_kgraph(12, 3, Fraction(7, 10), seed=8)
        rep = case_split_demo(H, 2, Fraction(1, 10**9), Fraction(1, 10000), eta=Fraction(1, 12))
        assert rep.branch == "non-contains"
        assert calls == [rep.pipeline_trace.r]

    @staticmethod
    def _non_contains_sweep(count):
        """(H, m, report) for the first `count` seeded non-contains splits."""
        found, seed = [], 0
        while len(found) < count:
            rng = random.Random(seed)
            n = rng.randint(9, 12)
            m = rng.randint(2, (n - 2) // 3)  # n - 3m - n/12 >= 0
            eps = rng.choice([Fraction(1, 10**9), Fraction(1, 100)])
            H = random_kgraph(n, 3, rng.choice([Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)]), seed=seed)
            rep = case_split_demo(H, m, eps, Fraction(1, 10000), eta=Fraction(1, 12))
            if rep.branch == "non-contains":
                found.append((H, m, rep))
            seed += 1
        return found

    def test_augmented_nu_is_the_join_identity(self):
        sweep = self._non_contains_sweep(30)
        for H, m, rep in sweep:
            assert rep.augmented_nu == exact_nu(join_clique(H, rep.pipeline_trace.r))[0]
            if rep.concludes:
                assert rep.matching_size == exact_nu(H)[0] >= m
            else:
                assert rep.concludes is None and rep.matching_size is None
        assert {rep.concludes for _, _, rep in sweep} == {True, None}


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda: emit_report(ExperimentReport("x", {}), "xml"), "unknown report format"),
        (lambda: load_report("[1]\n"), "expected a JSON object"),
        (lambda: load_report('{"record": "x"}\n'), "unknown record kind"),
        (lambda: conjecture_search(9, 3, 2, model="bogus", trials=1), "unknown model"),
    ],
    ids=["emit-xml", "load-not-an-object", "load-unknown-record", "search-unknown-model"],
)
def test_bad_query_is_rejected(query, message):
    with pytest.raises(InvalidQueryError, match=message):
        query()
