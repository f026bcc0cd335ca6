"""Alternating base/change pairs of the benchmark, summarized into a BENCH_*.json file.

    python3 tools/bench_pairs.py --base HEAD --change TREE --pairs 10 --seconds 25 \\
        --seeds 3101-3110 --workload pipeline --out BENCH_name.json

Each revision (a commit, or a tree from `git write-tree`) is unpacked by git
archive into its own temporary directory. Pair i runs `perfbench/run.py
--seed <seed i>` untraced in both, the base first on even pairs. For each
workload and end-to-end metric the output holds both sides' runs, medians and
quartiles, the pairs the change won (ties count for neither) and the bound
from the base's BENCHMARK.json. An existing output's `notes` are kept. Exits
1 if any item failed on either side.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pipeline", "search", "nibble", "corpus")
SIDES = ("base", "change")


def read_bounds(path) -> dict[str, tuple[str, float]]:
    """{metric: (better, bound)} for the end-to-end metrics of a BENCHMARK.json."""
    spec = json.loads(Path(path).read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    """The seeds A..B of 'A-B', or [A] of 'A'."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and the runs themselves."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, bounds: dict) -> dict:
    """Per workload and end-to-end metric, both sides' spread and the pair count.

    runs[side][workload] lists, pair by pair, the JSON objects that
    `perfbench/run.py --trace 0` prints on its last line.
    """
    out = {}
    for w, base_runs in runs["base"].items():
        sides = {"base": base_runs, "change": runs["change"][w]}
        metrics = {}
        for name, (better, bound) in bounds.items():
            b, c = ([r["metrics"][name]["value"] for r in rs] for rs in sides.values())
            sign = 1 if better == "higher" else -1
            bs, cs = spread(b), spread(c)
            rel = (cs["median"] - bs["median"]) / bs["median"]
            metrics[name] = {
                "unit": base_runs[0]["metrics"][name]["unit"],
                "better": better,
                "bound": bound,
                "base": bs,
                "change": cs,
                "change_better_pairs": f"{sum(sign * (y - x) > 0 for x, y in zip(b, c))}/{len(b)}",
                "median_change": rel,
                "within_bound": sign * rel >= -bound,
                "gain_beyond_base_iqr": sign * (cs["median"] - bs["median"]) > bs["q3"] - bs["q1"],
            }
        out[w] = {
            "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in sides.items()},
            "failed": {s: sum(r["failed"] for r in rs) for s, rs in sides.items()},
            "metrics": metrics,
        }
    return out


def unpack(rev: str, dest: Path) -> None:
    dest.mkdir()
    git = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        raise SystemExit(f"git archive {rev} failed")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} printed no result (exit {proc.returncode})") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="revision measured as the base (the parent)")
    ap.add_argument("--change", required=True, help="revision measured as the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seeds", required=True, help="A-B: one seed per pair, unused while building")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_*.json file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    seeds = parse_seeds(args.seeds)[: args.pairs]
    if len(seeds) < args.pairs:
        ap.error(f"--seeds names {len(seeds)} seeds for {args.pairs} pairs")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    revs = {"base": args.base, "change": args.change}
    git_id = ["git", "rev-parse", "--verify"]
    objects = {s: subprocess.check_output(git_id + [rev], cwd=ROOT, text=True).strip() for s, rev in revs.items()}
    runs = {s: {w: [] for w in workloads} for s in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {s: Path(tmp, s) for s in SIDES}
        for s in SIDES:
            unpack(objects[s], dirs[s])
        bounds = read_bounds(dirs["base"] / "BENCHMARK.json")
        for i, seed in enumerate(seeds):
            for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                for w in workloads:
                    res = bench(dirs[s], w, seed, args.seconds)
                    runs[s][w].append(res)
                    per_s = res["metrics"]["items_per_s"]["value"]
                    print(f"pair {i} seed {seed} {s} {w}: {per_s:.5g} items/s, {res['failed']} failed", file=sys.stderr)
    kept = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc = {
        "commits": {s: {"rev": revs[s], "object": objects[s]} for s in SIDES},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "protocol": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} (untraced)",
            "pairs": args.pairs,
            "seeds": seeds,
            "order": "base first on even pairs (0, 2, ...), change first on odd pairs",
        },
        "workloads": summarize(runs, bounds),
    }
    doc.update((key, value) for key, value in kept.items() if key == "notes")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = any(r["failed"] or not r["correct"] for by_w in runs.values() for rs in by_w.values() for r in rs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
