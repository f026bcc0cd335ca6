"""hypermatch benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the program under test is imported from
its src/ directory. With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics, with --trace 1 one with the per-layer
metrics from a traced run. --workload all runs every workload both ways and
prints every metric by name and unit. The exit code is 0 only when every
item passed its check. See perfbench/README.md for the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "search", "nibble", "corpus")
SETUP_SAMPLES = 7  # fresh processes whose set-up time is measured; the measuring one is the last
CHILD_TIMEOUT_S = 170

# One process per workload, single-threaded, with a fixed hash seed: peak RSS
# is a per-process high-water mark, and thread pools would add noise.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
        f"--t0={t0!r}",
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object for one workload: correct, attempted, failed, metrics."""
    setups = [run_worker(workload, seed, seconds, trace, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(workload, seed, seconds, trace, setup_only=False)
    setups.append(res)
    if trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "items_per_s": {"value": res["items_per_s"], "unit": "1/s"},
            "item_s.p50": {"value": res["item_s_p50"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": res["failed"] == 0 and res["items"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "items": res["items"],
        "raw_setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        "ref_kernel_s": res["ref_kernel_s"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hypermatch" / "__init__.py").is_file():
        print(f"error: no hypermatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    try:
        for workload, trace in runs:
            res = run_one(workload, args.seed, args.seconds, trace)
            results[(workload, trace)] = res
            print(
                f"# {workload} seed={args.seed} trace={trace}: {res['items']} items measured, "
                f"{res['attempted']} attempted, {res['failed']} failed; reference kernel "
                f"{res['ref_kernel_s'] * 1e3:.3f} ms (times below are scaled by "
                f"{REF_KERNEL_S * 1e3:g} ms / that), unscaled setup {res['raw_setup_s']:.4f} s"
            )
            for name, m in res["metrics"].items():
                print(f"{workload:8s} {name:55s} {m['value']:.6g} {m['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{name}": m for (w, _), res in results.items() for name, m in res["metrics"].items()}
    correct = all(res["correct"] for res in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
