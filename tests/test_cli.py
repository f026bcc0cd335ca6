import io
import json

import pytest

from hypermatch import (
    build_Hkl,
    complete,
    format_graph,
    harness,
    lp,
    parity_construction,
    parse_graph,
)
from hypermatch.cli import main


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_hknm(self, capsys):
        code, out = run(capsys, "gen", "--family", "hknm", "--n", "9", "--k", "3", "--m", "3")
        assert code == 0
        H = parse_graph(out)
        assert H.n == 9 and len(H.edges) == 49

    def test_complete(self, capsys):
        code, out = run(capsys, "gen", "--family", "complete", "--n", "6", "--k", "3")
        assert code == 0 and len(parse_graph(out).edges) == 20

    def test_random_seeded_reproducible(self, capsys):
        a = run(capsys, "gen", "--family", "random", "--n", "8", "--k", "3", "--p", "1/2", "--seed", "3")
        b = run(capsys, "gen", "--family", "random", "--n", "8", "--k", "3", "--p", "1/2", "--seed", "3")
        assert a == b

    def test_join_from_stdin(self, capsys, monkeypatch):
        base = format_graph(complete(5, 3))
        code, out = run(
            capsys, "gen", "--family", "join", "--r", "2", stdin=base, monkeypatch=monkeypatch
        )
        assert code == 0
        assert parse_graph(out).n == 7

    def test_hkl(self, capsys):
        code, out = run(capsys, "gen", "--family", "hkl", "--n", "7", "--k", "3", "--m", "3", "--l", "2")
        assert code == 0
        assert out == format_graph(build_Hkl((3, 4, 5, 6, 7), (1, 2), 3, 2))

    @pytest.mark.parametrize("m", ["0", "9"])
    def test_hkl_m_outside_1_to_n_plus_1_names_m(self, capsys, m):
        code = main(["gen", "--family", "hkl", "--n", "4", "--k", "3", "--m", m])
        assert code == 1 and "need 1 <= m <= n+1" in capsys.readouterr().err

    def test_parity_and_barrier(self, capsys):
        code, out = run(capsys, "gen", "--family", "parity", "--n", "6", "--k", "3", "--m", "3")
        assert code == 0 and len(parse_graph(out).edges) == 10
        code, out = run(capsys, "gen", "--family", "barrier", "--n", "6", "--k", "3")
        assert code == 0 and len(parse_graph(out).edges) == 10


class TestSolvers:
    def test_nu(self, capsys, monkeypatch):
        text = format_graph(complete(6, 3))
        code, out = run(capsys, "nu", stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert out.splitlines()[0] == "nu 2"

    def test_nu_writes_the_output_file(self, capsys, tmp_path):
        (tmp_path / "h.txt").write_text(format_graph(complete(6, 3)))
        out = tmp_path / "out.txt"
        code = main(["nu", "-i", str(tmp_path / "h.txt"), "-o", str(out)])
        assert (code, capsys.readouterr().out) == (0, "")
        assert out.read_text().splitlines()[0] == "nu 2"

    def test_nu_budget_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "2")
        monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(parity_construction(5, 4, 3))))
        code = main(["nu"])
        assert code == 2
        assert capsys.readouterr() == ("", "indeterminate after 3 nodes\n")

    def test_frac(self, capsys, monkeypatch):
        text = format_graph(complete(5, 3))
        code, out = run(capsys, "frac", "--witness", stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nu' 5/3" and lines[1] == "tau' 5/3"

    def test_frac_solves_once(self, capsys, monkeypatch):
        calls = []
        solve = lp._solve_incidence_lp
        monkeypatch.setattr(lp, "_solve_incidence_lp", lambda H: calls.append(H) or solve(H))
        text = format_graph(complete(6, 3))
        code, out = run(capsys, "frac", stdin=text, monkeypatch=monkeypatch)
        assert code == 0 and out == "nu' 2\ntau' 2\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["nu", "frac"])
    @pytest.mark.parametrize("text", ["3 x\n", "3 4\n1 2 z\n"])
    def test_non_integer_input_is_a_clean_error(self, capsys, monkeypatch, command, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main([command])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "random", "--n", "5", "--p", "1/0"],
            ["contain", "--m", "2", "--eps", "1/0"],
            ["nibble", "--bite", "one"],
        ],
        ids=["gen-p", "contain-eps", "nibble-bite"],
    )
    def test_bad_fraction_argument_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "expected a fraction p/q" in err

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["nu", "--bogus"], ["search", "--n", "9"], ["verify", "--ks", "3,x"],
            ["verify", "--ks", ""], ["pipeline", "--m", "3", "--route", "exact"],
        ],
        ids=[
            "no-command", "unknown", "missing", "verify-ks-word", "verify-ks-empty",
            "pipeline-route-exact",
        ],
    )
    def test_usage_errors_exit_1_not_indeterminate(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_input_file_is_a_clean_error(self, capsys, tmp_path):
        code = main(["nu", "--input", str(tmp_path / "missing.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "missing.txt" in err and err.count("\n") == 1

    def test_unwritable_trace_output_is_a_clean_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 12\n"))  # the pipeline fails
        code = main(["pipeline", "--m", "3", "--out", str(tmp_path / "no-dir" / "trace.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "trace.jsonl" in err and err.count("\n") == 1

    def test_contain(self, capsys, monkeypatch):
        from hypermatch import build_Hknm

        text = format_graph(build_Hknm(9, 3, 3)[0])
        code, out = run(
            capsys, "contain", "--m", "3", "--eps", "0", "--theta", "1/10",
            stdin=text, monkeypatch=monkeypatch,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["satisfied"] is True and rep["deficiency"] == 0
        assert rep["bad"] == []

    def test_nibble(self, capsys, monkeypatch):
        text = format_graph(complete(24, 3))
        code, out = run(capsys, "nibble", "--seed", "5", stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("covered ")

    def test_pipeline_trace(self, capsys, monkeypatch):
        text = format_graph(complete(12, 3))
        code, out = run(
            capsys, "pipeline", "--m", "3", "--eta", "1/12", stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["step"] == "summary" and records[0]["value"] == "13/3"

    def test_pipeline_greedy_route_runs_the_block_route(self, capsys, monkeypatch):
        text = format_graph(complete(12, 3))
        code, out = run(
            capsys, "pipeline", "--m", "3", "--eta", "1/12", "--route", "greedy",
            stdin=text, monkeypatch=monkeypatch,
        )
        records = [json.loads(line) for line in out.splitlines()]
        status = {rec["step"]: rec["status"] for rec in records[1:]}
        assert code == 0
        assert (records[0]["route"], records[0]["value"]) == ("greedy", "13/3")
        assert [step for step in status if step.startswith("block_route_")] == [
            "block_route_classify",
            "block_route_block_matching",
            "block_route_transversal",
            "block_route_extend",
        ]
        assert {status[step] for step in status if step.startswith("block_route_")} == {"ok"}
        assert status["verify"] == "ok"

    def test_pipeline_step_failure_exit_code(self, capsys, monkeypatch):
        text = format_graph(parse_graph("3 12\n"))
        code, out = run(
            capsys, "pipeline", "--m", "3", stdin=text, monkeypatch=monkeypatch
        )
        assert code == 1
        assert any(json.loads(l)["status"] == "failed" for l in out.splitlines())

    def test_pipeline_r_needs_no_eta_rule(self, capsys, monkeypatch):
        # the eta rule is infeasible here (n - km - eta*n = -6/5); --r skips it
        text = format_graph(complete(12, 3))
        code, out = run(
            capsys, "pipeline", "--m", "4", "--r", "7", stdin=text, monkeypatch=monkeypatch
        )
        summary = json.loads(out.splitlines()[0])
        assert code == 0 and summary["r"] == 7 and summary["value"] == "19/3"


# records printed by the README example and by the edgeless failure case;
# the trace records carry no timings, so these bytes are fixed
GOLDEN_COMPLETE_12 = [
    '{"constants": {"eps": "1/10", "eta": "1/12", "four_rho": "1/2500", "residual": "0", "rho": "1/10000", "two_eta_over_k": "1/18"}, "k": 3, "m": 3, "n": 12, "preconditions": {"alpha": 2, "alpha_bound": 7, "alpha_ok": true, "clique_ok": false, "degree_floor": "11866/625", "degree_ok": true, "delta1": 55, "m_range_ok": true}, "r": 1, "route": "exact", "s": 1, "status": "ok", "step": "summary", "value": "13/3"}',
    '{"alpha": 2, "alpha_bound": 7, "alpha_ok": true, "clique_ok": false, "degree_floor": "11866/625", "degree_ok": true, "delta1": 55, "m_range_ok": true, "status": "ok", "step": "preconditions"}',
    '{"status": "ok", "step": "cover", "target": "13/3", "tau": "13/3"}',
    '{"old_to_new": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], "status": "ok", "step": "relabel"}',
    '{"closure_edges": 286, "core_edges": 220, "link_edges": 55, "status": "ok", "step": "closure"}',
    '{"status": "ok", "step": "link_stability"}',
    '{"block_top": 5, "status": "ok", "step": "complete_block"}',
    '{"status": "ok", "step": "neighborhood_transfer"}',
    '{"link_nu": 5, "route": "exact", "size": 3, "status": "ok", "step": "find_matching"}',
    '{"size": 3, "status": "ok", "step": "matching_verify"}',
    '{"size": 1, "status": "ok", "step": "clique_completion"}',
    '{"status": "ok", "step": "residue_splice", "value": "13/3"}',
    '{"lp_value": "13/3", "perfect": true, "status": "ok", "step": "verify"}',
]
GOLDEN_EDGELESS_12 = [
    '{"constants": {"eps": "1/10", "eta": "1/10", "four_rho": "1/2500", "residual": "1/5", "rho": "1/10000", "two_eta_over_k": "1/15"}, "k": 3, "m": 3, "n": 12, "preconditions": {"alpha": 12, "alpha_bound": 7, "alpha_ok": false, "clique_ok": false, "degree_floor": "11866/625", "degree_ok": false, "delta1": 0, "m_range_ok": true}, "r": 1, "route": null, "s": 1, "status": "incomplete", "step": "summary", "value": null}',
    '{"alpha": 12, "alpha_bound": 7, "alpha_ok": false, "clique_ok": false, "degree_floor": "11866/625", "degree_ok": false, "delta1": 0, "m_range_ok": true, "status": "ok", "step": "preconditions"}',
    '{"status": "ok", "step": "cover", "target": "13/3", "tau": "1"}',
    '{"message": "cover below (n+r)/k certifies that no perfect fractional matching exists", "status": "failed", "step": "cover_certificate", "target": "13/3", "tau": "1"}',
]


@pytest.mark.parametrize(
    "graph, argv, code, golden",
    [
        (complete(12, 3), ["--m", "3", "--eta", "1/12"], 0, GOLDEN_COMPLETE_12),
        (parse_graph("3 12\n"), ["--m", "3"], 1, GOLDEN_EDGELESS_12),
    ],
    ids=["complete_12", "edgeless_12"],
)
def test_pipeline_records_golden(capsys, monkeypatch, graph, argv, code, golden):
    got = run(capsys, "pipeline", *argv, stdin=format_graph(graph), monkeypatch=monkeypatch)
    assert got == (code, "\n".join(golden) + "\n")


def test_pipeline_failure_writes_its_trace_then_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 12\n"))
    code = main(["pipeline", "--m", "3"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "\n".join(GOLDEN_EDGELESS_12) + "\n")
    assert err == "error: cover below (n+r)/k certifies that no perfect fractional matching exists\n"


class TestVerifySearchReport:
    def test_verify_small_grid(self, capsys):
        code, out = run(capsys, "verify", "--ks", "3", "--n-max", "7")
        assert code == 0
        header = json.loads(out.splitlines()[0])
        assert header["record"] == "report" and header["experiment"] == "tightness"

    def test_verify_repeated_k_checks_each_point_once(self, capsys):
        once = run(capsys, "verify", "--ks", "3", "--n-max", "5")
        assert run(capsys, "verify", "--ks", "3,3", "--n-max", "5") == once
        assert json.loads(once[1].splitlines()[0])["params"]["grid_size"] == 3

    def test_search_and_reformat(self, capsys, monkeypatch, tmp_path):
        code, out = run(
            capsys, "search", "--n", "9", "--k", "3", "--m", "2", "--trials", "10", "--seed", "1"
        )
        assert code == 0
        path = tmp_path / "search.records"
        path.write_text(out)
        code2, rows = run(capsys, "report", "--input", str(path), "--format", "rows")
        assert code2 == 0
        assert rows.splitlines()[0].startswith("delta1")

    def test_rows_quote_a_cell_with_a_comma_and_a_quote(self, capsys, monkeypatch):
        records = harness.emit_report(harness.ExperimentReport("x", {}, [{"note": 'a,"b"'}]))
        code, rows = run(capsys, "report", "--format", "rows", stdin=records, monkeypatch=monkeypatch)
        assert (code, rows) == (0, 'note\n"a,""b"""\n')

    def test_sigma_out_of_range_names_the_flag(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 6\n1 2 3\n4 5 6\n"))
        assert main(["nibble", "--sigma", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: --sigma must be in (0,1)")

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["search", "--n", "5", "--k", "3", "--m", "9"], None),
            (["search", "--n", "7", "--k", "3", "--m", "2", "--trials", "3", "--p", "3/2"], None),
            (["search", "--n", "9", "--k", "3", "--m", "2", "--p", "2", "--trials", "0"], None),
            (["report"], "\n"),
            (["report"], "x\n"),
            (["report"], '{"record": "report"}\n'),
            (["verify", "--ks", "0"], None),
            (["pipeline", "--m", "2"], "2 6\n1 2\n3 4\n5 6\n"),
            (["pipeline", "--m", "3", "--r", "-2"], "3 12\n"),
            (["search", "--n", "9", "--k", "0", "--m", "2"], None),
            (["search", "--n", "9", "--k", "-1", "--m", "2"], None),
            (["search", "--n", "9", "--k", "3", "--m", "2", "--trials", "-5"], None),
            (["gen", "--family", "barrier", "--n", "6", "--k", "0"], None),
            (["nibble", "--seed", "-1"], "3 6\n1 2 3\n4 5 6\n"),
            (["nibble", "--sigma", "0"], "3 6\n1 2 3\n4 5 6\n"),
            (["nibble", "--sigma", "1"], "3 6\n1 2 3\n4 5 6\n"),
            (["gen", "--family", "hkl", "--n", "4", "--k", "3", "--m", "9"], None),
            (["gen", "--family", "parity", "--n", "3", "--k", "3", "--m", "5"], None),
            (["nu"], "3\n"),
            (["nu"], "3 5\n1 2\n"),
            (["nu"], "3 5\n1 2 9\n"),
            (["contain", "--m", "0", "--eps", "1/10"], "3 5\n1 2 3\n"),
            (["contain", "--m", "9", "--eps", "1/10"], "3 5\n1 2 3\n"),
        ],
        ids=[
            "search-m-too-large", "search-p-out-of-range", "search-p-out-of-range-no-trials",
            "report-empty", "report-not-json", "report-header-incomplete", "verify-ks-zero",
            "pipeline-k-2", "pipeline-r-negative", "search-k-0", "search-k-negative",
            "search-trials-negative",
            "gen-barrier-k-0", "nibble-seed-negative", "nibble-sigma-0", "nibble-sigma-1",
            "gen-hkl-m-above-n-plus-1", "gen-parity-m-above-n",
            "nu-header-one-number", "nu-edge-too-short", "nu-vertex-out-of-range",
            "contain-m-0", "contain-w-above-n",
        ],
    )
    def test_bad_query_is_a_clean_error(self, capsys, monkeypatch, argv, stdin):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["nu", "report"])
    def test_input_that_is_not_utf8_is_a_clean_error(self, capsys, tmp_path, command):
        path = tmp_path / "f"
        path.write_bytes(b"\xff\xfe\n")
        code = main([command, "-i", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "not UTF-8" in err and err.count("\n") == 1

    def test_stdin_that_is_not_utf8_is_a_clean_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["nu"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "not UTF-8" in err and err.count("\n") == 1

    def test_help_documents_budget_env(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "HYPERMATCH_NODE_BUDGET" in out


BUDGETED_COMMANDS = {
    "nu": ["nu"],
    "pipeline": ["pipeline", "--m", "2", "--r", "5"],
    "verify": ["verify", "--ks", "3", "--n-max", "6"],
    "contain": ["contain", "--m", "3", "--eps", "1/100", "--mode", "exhaustive"],
}


class TestNodeBudget:
    """HYPERMATCH_NODE_BUDGET is the one budget; main reports a hit or a bad value."""

    def _main(self, capsys, monkeypatch, budget, argv):
        # exact_nu walks past its root on this graph (130 nodes)
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", budget)
        monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(parity_construction(5, 4, 3))))
        code = main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", list(BUDGETED_COMMANDS))
    def test_budget_hit_exits_2(self, capsys, monkeypatch, command):
        if command == "verify":
            # exact_nu settles every H_k(n, m) of the grid at its root, so
            # each call searches a graph that needs the walk instead
            search = harness.exact_nu
            walked = parity_construction(5, 4, 3)
            monkeypatch.setattr(harness, "exact_nu", lambda H: search(walked))
        code, err = self._main(capsys, monkeypatch, "1", BUDGETED_COMMANDS[command])
        assert code == 2
        assert err.startswith("indeterminate after ") and err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["abc", "0", "-5", "1.5", " 7"])
    @pytest.mark.parametrize("command", list(BUDGETED_COMMANDS))
    def test_malformed_budget_is_a_clean_error(self, capsys, monkeypatch, command, budget):
        code, err = self._main(capsys, monkeypatch, budget, BUDGETED_COMMANDS[command])
        assert code == 1
        assert err.startswith("error: HYPERMATCH_NODE_BUDGET") and err.count("\n") == 1

    def test_pipeline_budget_hit_writes_its_partial_trace(self, capsys, monkeypatch):
        from hypermatch import build_Hknm

        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(build_Hknm(12, 3, 4)[0])))
        code = main(BUDGETED_COMMANDS["pipeline"])
        out, err = capsys.readouterr()
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 2
        assert [(r["step"], r["status"]) for r in records] == [
            ("summary", "incomplete"),
            ("preconditions", "indeterminate"),
        ]
        assert records[1]["message"] == "independence_number node budget exceeded"
        assert err == f"indeterminate after {records[1]['nodes']} nodes\n"

    def test_search_budget_hit_marks_the_report_incomplete(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERMATCH_NODE_BUDGET", "1")
        # trial 2's sample needs exact_nu to walk past its root
        argv = ["search", "--n", "9", "--k", "3", "--m", "2", "--trials", "5", "--seed", "0"]
        code = main(argv)
        out, err = capsys.readouterr()
        records = [json.loads(line) for line in out.splitlines()]
        assert (code, err) == (2, "")
        assert records[0]["record"] == "report" and records[0]["incomplete"] is True
        assert any(r.get("status") == "indeterminate" for r in records[1:])

    def test_nu_has_no_budget_flags(self, capsys):
        for flag in ("--budget", "--lp-bound"):
            with pytest.raises(SystemExit) as info:
                main(["nu", flag])
            assert info.value.code == 1
