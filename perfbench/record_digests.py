"""Record the seeded-output digests that the benchmark checks.

    PYTHONPATH=src python3 perfbench/record_digests.py [SEED ...]

For every workload and seed (default 0-9; run.py's default seed is 0) this
runs each pool item once, untimed, and writes the digest of its seeded
output (generated graph or search report) to perfbench/digests.json. A
benchmark item whose digest differs from the recorded one counts as failed,
so re-record only for a change that is meant to alter a random stream, and
say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

PATH = Path(__file__).with_name("digests.json")


def record(workload: str, seed: int) -> list:
    wl = workloads.WORKLOADS[workload]
    out = []
    for spec in wl.setup(seed):
        args = wl.prepare(spec)
        result = wl.run(args)
        if not wl.check(spec, args, result):
            raise SystemExit(f"{workload} seed {seed}: an item fails its check; nothing recorded")
        out.append(wl.digest(spec, args, result))
    return out


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(range(10))
    table = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            table.setdefault(workload, {})[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: {len(table[workload][str(seed)])} digests", flush=True)
    PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
