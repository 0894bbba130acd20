"""Record the reference outputs the benchmark checks every run against.

Run from the root of a checkout of the commit whose simulated outputs are
the reference (the commit that introduced the benchmark)::

    python3 perfbench/record_references.py [--workload NAME ...]

Each workload runs once, cold, in a fresh isolated process (the same
environment as a benchmark repetition), and every item's simulated payload
is written to ``perfbench/references/<workload>.json``.  ``serve_bursty``
is recorded once per arrival seed of its pool.  Re-record only when a
change to the simulator's results is intended: a host speed-up that moves a
simulated number is a bug, not a reason to re-record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from run import HERE, WORK, cache_slot, run_rep
from workloads import SERVE_SEED_POOL, WORKLOADS


def record(workload: str) -> dict:
    seeds = range(SERVE_SEED_POOL) if workload == "serve_bursty" else (0,)
    recorded: dict = {}
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for seed in seeds:
            out = os.path.join(tmp, f"{seed}.json")
            with cache_slot(f"record-{seed}") as cache_dir:
                run_rep(workload, seed, "record", cache_dir, "--out", out)
            with open(out, encoding="utf-8") as fh:
                recorded.update(json.load(fh))
    return recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(HERE, "references"), exist_ok=True)
    for workload in args.workload or WORKLOADS:
        recorded = record(workload)
        path = os.path.join(HERE, "references", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, sort_keys=True, indent=1)
            fh.write("\n")
        items = sum(len(v) for v in recorded.values())
        print(f"{workload}: {items} items -> {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
