"""Command-line interface.

Subcommands: gen, nu, frac, contain, nibble, pipeline, verify, search,
report. Graphs travel in the plain text format (header "k n", one ascending
edge per line, '#' comments). Exit codes: 0 all assertions passed, 1
assertion failure, malformed input or a malformed command line, 2
indeterminate (a search hit its node budget). main alone maps package errors
to these codes, with one line on stderr; a pipeline run that fails or hits
the budget first writes its partial trace. The budget is set only by the
environment variable HYPERMATCH_NODE_BUDGET and caps every exponential
search: exact_nu, independence_number and exhaustive containment, so it
covers nu, pipeline, verify, search and contain.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .constructions import (
    build_Hkl,
    build_Hknm,
    complete,
    join_clique,
    parity_construction,
    random_kgraph,
    space_barrier,
)
from .containment import classify_good_bad, eps_contains
from .core import DEFAULT_NODE_BUDGET, NODE_BUDGET_ENV, _plain, format_graph, parse_graph
from .errors import BudgetExceededError, HypermatchError, InvalidQueryError
from .harness import conjecture_search, emit_report, load_report, tightness_grid, verify_tightness
from .lp import solve_fractional
from .matching import NibbleConfig, exact_nu, nibble_matching_report
from .pipeline import PipelineConfig, fractional_pm_pipeline, padded_clique_size


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction p/q, got {text!r}") from None


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _read_input(args) -> str:
    try:
        if args.input and args.input != "-":
            with open(args.input, "r", encoding="utf-8") as fh:
                return fh.read()
        return sys.stdin.read()
    except UnicodeDecodeError as ex:
        raise InvalidQueryError(f"input {args.input!r} is not UTF-8 text ({ex.reason})") from None


def _write(args, text: str) -> None:
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "hkl":
        if not 1 <= args.m <= args.n + 1:
            raise InvalidQueryError(f"need 1 <= m <= n+1 (|W| = m-1), got n={args.n}, m={args.m}")
        W = tuple(range(1, args.m))
        U = tuple(range(args.m, args.n + 1))
        H = build_Hkl(U, W, args.k, args.l)
    elif fam == "hknm":
        H, _ = build_Hknm(args.n, args.k, args.m)
    elif fam == "complete":
        H = complete(args.n, args.k)
    elif fam == "join":
        H = join_clique(parse_graph(_read_input(args)), args.r)
    elif fam == "parity":
        # A = {1..m}, B = {m+1..n}
        H = parity_construction(args.m, args.n - args.m, args.k)
    elif fam == "barrier":
        H = space_barrier(args.n, args.k)
    else:  # random
        H = random_kgraph(args.n, args.k, args.p, seed=args.seed)
    _write(args, format_graph(H))
    return 0


def _cmd_nu(args) -> int:
    nu, M = exact_nu(parse_graph(_read_input(args)))
    lines = [f"nu {nu}"]
    lines.extend(" ".join(str(v) for v in e) for e in M.edges)
    _write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_frac(args) -> int:
    H = parse_graph(_read_input(args))
    _, phi, w = solve_fractional(H)
    lines = [f"nu' {phi.value()}", f"tau' {w.total()}"]
    if args.witness:
        for e in phi.support():
            lines.append("phi " + " ".join(str(v) for v in e) + f" {phi.phi[e]}")
        for v in H.vertices():
            if w[v]:
                lines.append(f"w {v} {w[v]}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_contain(args) -> int:
    H = parse_graph(_read_input(args))
    rep = eps_contains(H, args.m, args.eps, mode=args.mode)
    out = {
        "m": args.m,
        "eps": rep.eps,
        "deficiency": rep.deficiency,
        "bound": rep.epsilon_bound,
        "satisfied": rep.satisfied,
        "mode": rep.search_mode,
        "W": rep.partition.W,
    }
    if args.theta is not None:
        good, bad = classify_good_bad(H, rep.partition, H.k - 1, args.theta)
        out.update(theta=args.theta, bad=bad, good_count=len(good))
    _write(args, json.dumps(_plain(out), sort_keys=True) + "\n")
    return 0


def _cmd_nibble(args) -> int:
    H = parse_graph(_read_input(args))
    if not 0 < args.sigma < 1:
        raise InvalidQueryError(f"--sigma must be in (0,1), got {args.sigma}")
    cfg = NibbleConfig(
        bite_fraction=args.bite, max_rounds=args.rounds, seed=args.seed, tau_check=args.tau
    )
    rep = nibble_matching_report(H, cfg)
    lines = [
        f"covered {rep.covered_fraction} (~{float(rep.covered_fraction):.4f})",
        f"matching {len(rep.matching.edges)}",
        f"gate degrees_ok={rep.degree_gate_ok} codegree_ok={rep.codegree_gate_ok} "
        f"D={rep.average_degree:.2f} max_codegree={rep.max_codegree}",
    ]
    for r in rep.rounds:
        lines.append(
            f"round {r.index}: alive={r.vertices_alive} edges={r.edges_alive} "
            f"D={r.average_degree:.2f} sampled={r.sampled} kept={r.kept}"
        )
    target_ok = rep.covered_fraction >= 1 - args.sigma
    lines.append(f"sigma_target {args.sigma} met={target_ok}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def _write_trace(args, trace) -> None:
    _write(args, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in trace.records()))


def _cmd_pipeline(args) -> int:
    H = parse_graph(_read_input(args))
    cfg = PipelineConfig(eta=args.eta, rho=args.rho, eps=args.eps)
    r = args.r if args.r is not None else padded_clique_size(H.n, H.k, args.m, cfg.eta)
    _write_trace(args, fractional_pm_pipeline(H, args.m, r, cfg, route=args.route)[1])
    return 0


def _cmd_verify(args) -> int:
    grid = tightness_grid(ks=args.ks, n_max=args.n_max)
    report = verify_tightness(grid)
    _write(args, emit_report(report, args.format))
    return 0


def _cmd_search(args) -> int:
    report = conjecture_search(
        args.n, args.k, args.m, model=args.model, trials=args.trials, seed=args.seed, p=args.p
    )
    _write(args, emit_report(report, args.format))
    if report.incomplete:
        return 2
    return 0


def _cmd_report(args) -> int:
    report = load_report(_read_input(args))
    _write(args, emit_report(report, args.format))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one `error:` line and exit 1, like malformed input;
    exit 2 stays reserved for an exhausted node budget."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="hypermatch",
        description="Desk-scale laboratory for matchings in k-uniform hypergraphs.",
        epilog=(
            f"The environment variable {NODE_BUDGET_ENV} caps the branch nodes of each "
            f"exponential search (default {DEFAULT_NODE_BUDGET}): exact matching, "
            "independence number and exhaustive containment, in nu, pipeline, verify, "
            "search and contain; instances that exceed it are reported indeterminate "
            "(exit code 2)."
        ),
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, graph_input=True):
        if graph_input:
            p.add_argument("--input", "-i", default="-", help="graph file (records file for report), or - for stdin")
        p.add_argument("--out", "-o", default="-", help="output file, or - for stdout")

    p = sub.add_parser("gen", help="generate a named family")
    p.add_argument(
        "--family",
        required=True,
        choices=["hkl", "hknm", "complete", "join", "parity", "barrier", "random"],
    )
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=1, help="|W| = m-1 for hkl/hknm; |A| = m for parity")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--r", type=int, default=0, help="clique size for join")
    p.add_argument("--p", type=_frac, default=Fraction(1, 2), help="edge probability, as p/q")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("nu", help="exact maximum matching")
    common(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("frac", help="exact fractional matching and cover optima")
    p.add_argument("--witness", action="store_true", help="print the witness supports")
    common(p)
    p.set_defaults(func=_cmd_frac)

    p = sub.add_parser("contain", help="template containment search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=_frac, required=True, help="containment scale, as p/q")
    p.add_argument("--mode", choices=["auto", "exhaustive", "local"], default="auto")
    p.add_argument("--theta", type=_frac, default=None, help="also classify vertices at theta")
    common(p)
    p.set_defaults(func=_cmd_contain)

    p = sub.add_parser("nibble", help="semi-random nibble matching")
    p.add_argument("--bite", type=_frac, default=NibbleConfig.bite_fraction)
    p.add_argument("--rounds", type=int, default=NibbleConfig.max_rounds)
    p.add_argument(
        "--sigma",
        type=_frac,
        default=Fraction(1, 10),
        help="leftover fraction the run is reported against, 0 < sigma < 1",
    )
    p.add_argument("--tau", type=_frac, default=NibbleConfig.tau_check)
    p.add_argument("--seed", type=int, default=NibbleConfig.seed)
    common(p)
    p.set_defaults(func=_cmd_nibble)

    p = sub.add_parser("pipeline", help="constructive perfect fractional matching")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eta", type=_frac, default=PipelineConfig.eta)
    p.add_argument("--rho", type=_frac, default=PipelineConfig.rho)
    p.add_argument("--eps", type=_frac, default=PipelineConfig.eps)
    p.add_argument("--route", choices=["auto", "greedy"], default="auto")
    p.add_argument("--r", type=int, default=None, help="override the padded clique size")
    common(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", help="tightness suite over a grid")
    p.add_argument("--ks", type=_ints, default="3,4", help="comma-separated uniformities")
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--format", choices=["records", "rows"], default="records")
    common(p, graph_input=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="randomized conjecture counterexample search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--model", choices=["uniform-p", "conditioned", "planted"], default="conditioned")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--p", type=_frac, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["records", "rows"], default="records")
    common(p, graph_input=False)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("report", help="re-emit a records report in another format")
    p.add_argument("--format", choices=["records", "rows"], default="rows")
    common(p)
    p.set_defaults(func=_cmd_report)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except HypermatchError as ex:
            if ex.trace is not None:  # a pipeline run writes its partial trace
                _write_trace(args, ex.trace)
            raise
    except BudgetExceededError as ex:
        print(f"indeterminate after {ex.nodes} nodes", file=sys.stderr)
        return 2
    except (HypermatchError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
