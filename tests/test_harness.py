import hashlib
import json
from fractions import Fraction

import pytest

from hypermatch import (
    KGraph,
    Matching,
    build_Hknm,
    min_l_degree,
    parse_graph,
    vertex_degree_threshold,
)
from hypermatch.errors import InvalidQueryError
from hypermatch.harness import (
    ExperimentReport,
    TightnessFailure,
    conjecture_search,
    emit_report,
    graph_fingerprint,
    load_report,
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
        monkeypatch.setattr("hypermatch.harness._model_sampler", lambda *args: lambda key: H)
        rep = conjecture_search(9, 3, 2, trials=3)
        assert (rep.params["accepted"], rep.instances) == (0, [])
        assert rep.params["delta1_histogram"] == {"7": 3}

    def test_planted_model_runs(self, monkeypatch):
        import hypermatch.harness as hmod

        calls = []
        real = hmod.build_Hknm
        monkeypatch.setattr(hmod, "build_Hknm", lambda *args: calls.append(args) or real(*args))
        text = emit_report(conjecture_search(9, 3, 2, model="planted", trials=10, seed=2))
        # the extremal core is built once per search, and the report has the
        # bytes it had when the core was built once per trial
        assert calls == [(9, 3, 2)]
        digest = "9c70f3e835133008b618c545b630d6d2b9677a730c88d79b22590ad0bbae8659"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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

    def test_numpy_arguments_emit_the_int_bytes(self):
        import numpy as np

        a = conjecture_search(np.int64(9), np.int32(3), np.int64(2), trials=np.int64(5), seed=np.int64(9))
        b = conjecture_search(9, 3, 2, trials=5, seed=9)
        assert emit_report(a) == emit_report(b)
        assert {type(a.params[key]) for key in ("n", "k", "m", "trials")} | {type(a.seed)} == {int}

    @pytest.mark.parametrize(
        "kwargs, named",
        [({"n": "9"}, "n='9'"), ({"k": 3.0}, "k=3.0"), ({"m": 2.5}, "m=2.5"), ({"seed": None}, "seed=None"),
         ({"seed": 1.5}, "seed=1.5")],
        ids=["n-str", "k-float", "m-float", "seed-none", "seed-float"],
    )
    def test_non_integer_arguments_are_rejected(self, kwargs, named):
        args = {"n": 9, "k": 3, "m": 2, **kwargs}
        with pytest.raises(InvalidQueryError, match="must be integers") as info:
            conjecture_search(args.pop("n"), args.pop("k"), args.pop("m"), trials=1, **args)
        assert named in str(info.value)


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


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda: emit_report(ExperimentReport("x", {}), "xml"), "unknown report format"),
        (lambda: load_report("[1]\n"), "expected a JSON object"),
        (lambda: load_report('{"record": "x"}\n'), "unknown record kind"),
        (lambda: conjecture_search(9, 3, 2, model="bogus", trials=1), "unknown model"),
        (lambda: conjecture_search(9, 3, 2, model="bogus", trials=0), "unknown model"),
        (lambda: conjecture_search(9, 3, 2, p=2, trials=0), "need 0 <= p <= 1, got 2"),
        (lambda: conjecture_search(9, 3, 2, model="uniform-p", p=-1, trials=0), "got -1"),
        (lambda: conjecture_search(9, 3, 2, model="planted", p=2, trials=0), "got 2"),
        (lambda: conjecture_search(9, 3, 2, trials=2.5), "got trials=2.5"),
        (lambda: conjecture_search(9, 3, 2, trials=-5), "need trials >= 0, got -5"),
        (lambda: tightness_grid((3,), 5.5), "got n_max=5.5"),
        (lambda: tightness_grid((3.5,), 9), "got k=3.5"),
    ],
    ids=[
        "emit-xml", "load-not-an-object", "load-unknown-record", "search-unknown-model",
        "search-unknown-model-no-trials", "search-conditioned-p-2-no-trials",
        "search-uniform-p-negative-no-trials", "search-planted-p-2-no-trials",
        "search-trials-2.5", "search-trials-negative", "grid-n-max-5.5", "grid-k-3.5",
    ],
)
def test_bad_query_is_rejected(query, message):
    with pytest.raises(InvalidQueryError, match=message):
        query()
