"""Communication-stack regression harness: writes ``BENCH_comm.json``.

Standalone (no pytest-benchmark plugin) like ``bench_perf.py`` so CI can
run it directly and diff against a committed baseline::

    python benchmarks/bench_comm.py --quick --out BENCH_comm.json \
        --check-baseline benchmarks/baselines/BENCH_comm_baseline.json

Workloads:

* **collective_sweep** — prices allreduces across every backend x size x
  rank grid point through ``build_communicator``; the *simulated* times for a
  set of anchor points are machine-independent and baseline-checked
  exactly (any drift means the cost model changed — bump the digest salt).
* **hierarchical_vs_ring** — the acceptance claim: the two-level backend
  beats a flat ring on multi-node worlds for every bandwidth-bound
  (>= 1 MB) message size; reports the speedups.
* **tuner** — autotunes the default grid cold then memo-warm; the tuned
  table digest is machine-independent and baseline-checked exactly.

Wall-clock rates are reported, not gated: only the machine-independent
anchors and the table digest decide ``--check-baseline``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.comm import TuningConfig, build_communicator, tune_table
from repro.comm.selection import clear_active_tables
from repro.core import MPI_OPT
from repro.hardware import LASSEN
from repro.hardware.cluster import build_cluster
from repro.mpi import WorldSpec
from repro.mpi.comm import GpuBuffer

KIB = 1024
MIB = 1024 * 1024


def make_comm(backend: str, num_ranks: int):
    cluster = build_cluster(LASSEN, num_ranks)
    spec = None
    if backend == "mpi":
        spec = WorldSpec(num_ranks=num_ranks, policy=MPI_OPT.policy,
                         config=MPI_OPT.mv2)
    _world, comm = build_communicator(
        cluster, backend, world_spec=spec, num_ranks=num_ranks
    )
    return comm


def virtual(nbytes: int, n: int):
    return [GpuBuffer.virtual(nbytes) for _ in range(n)]


def time_collective_sweep(quick: bool) -> dict:
    rank_counts = (4, 16) if quick else (4, 16, 64, 512)
    sizes = (4 * KIB, 1 * MIB, 16 * MIB) if quick else (
        4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB
    )
    backends = ("mpi", "nccl", "hierarchical")
    anchors: dict[str, float] = {}
    ops = 0
    t0 = perf_counter()
    for backend in backends:
        for num_ranks in rank_counts:
            comm = make_comm(backend, num_ranks)
            for nbytes in sizes:
                timing = comm.allreduce(virtual(nbytes, num_ranks))
                anchors[f"{backend}:{nbytes}x{num_ranks}"] = timing.time
                ops += 1
    wall_s = perf_counter() - t0
    return {
        "ops": ops,
        "wall_s": wall_s,
        "ops_per_sec": ops / wall_s if wall_s > 0 else float("inf"),
        # machine-independent: simulated seconds per anchor collective
        "anchors": anchors,
    }


def time_hierarchical_vs_ring(quick: bool) -> dict:
    rank_counts = (16,) if quick else (16, 64, 512)
    sizes = (1 * MIB, 16 * MIB) if quick else (1 * MIB, 16 * MIB, 64 * MIB)
    speedups = {}
    for num_ranks in rank_counts:
        hier = make_comm("hierarchical", num_ranks)
        mpi = make_comm("mpi", num_ranks)
        for nbytes in sizes:
            hier_t = hier.allreduce(virtual(nbytes, num_ranks)).time
            ring_t = mpi.allreduce(
                virtual(nbytes, num_ranks), algorithm="ring"
            ).time
            assert hier_t < ring_t, (
                f"hierarchical ({hier_t:.3e}s) must beat flat ring "
                f"({ring_t:.3e}s) at {nbytes}B x {num_ranks} ranks"
            )
            speedups[f"{nbytes}x{num_ranks}"] = ring_t / hier_t
    return {"speedup_vs_ring": speedups, "min_speedup": min(speedups.values())}


def time_tuner(quick: bool) -> dict:
    from repro.comm.tuning import _TUNE_MEMO

    config = TuningConfig(
        byte_points=(4 * KIB, 1 * MIB, 16 * MIB) if quick else (
            4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB
        ),
        rank_counts=(4, 16) if quick else (4, 16, 64),
    )
    _TUNE_MEMO.clear()
    t0 = perf_counter()
    table = tune_table(config)
    cold_s = perf_counter() - t0
    t0 = perf_counter()
    again = tune_table(config)
    warm_s = perf_counter() - t0
    assert again is table, "tuner memo missed on identical config"
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "table_digest": table.digest(),
    }


def check_baseline(report: dict, baseline_path: str) -> list[str]:
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = []
    # simulated times and table digests are machine-independent: exact match
    base_anchors = baseline.get("anchors", {})
    anchors = report["workloads"]["collective_sweep"]["anchors"]
    for key, base_time in base_anchors.items():
        got = anchors.get(key)
        if got is not None and got != base_time:
            failures.append(
                f"anchor {key} drifted: {got!r} != baseline {base_time!r} "
                f"(cost model changed — regenerate baseline + bump salt)"
            )
    # the tuner grid depends on --quick; only compare like with like
    base_digest = baseline.get("table_digest")
    digest = report["workloads"]["tuner"]["table_digest"]
    if (base_digest and baseline.get("quick") == report["quick"]
            and digest != base_digest):
        failures.append(
            f"tuned table digest drifted: {digest} != baseline {base_digest}"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid for CI smoke runs")
    parser.add_argument("--out", default="BENCH_comm.json")
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="fail on simulated-time or table-digest drift")
    args = parser.parse_args(argv)

    clear_active_tables()
    workloads = {}
    print(f"[bench_comm] collective sweep ({'quick' if args.quick else 'full'}) ...")
    workloads["collective_sweep"] = time_collective_sweep(args.quick)
    print("[bench_comm]   {ops} collectives in {wall_s:.2f}s = "
          "{ops_per_sec:.0f}/s".format(**workloads["collective_sweep"]))
    print("[bench_comm] hierarchical vs flat ring ...")
    workloads["hierarchical_vs_ring"] = time_hierarchical_vs_ring(args.quick)
    print("[bench_comm]   min speedup {min_speedup:.2f}x".format(
        **workloads["hierarchical_vs_ring"]))
    print("[bench_comm] autotuner ...")
    workloads["tuner"] = time_tuner(args.quick)
    print("[bench_comm]   cold {cold_s:.2f}s  warm {warm_s:.4f}s  "
          "digest {table_digest}".format(**workloads["tuner"]))

    report = {
        "quick": args.quick,
        "workloads": workloads,
        "anchors": workloads["collective_sweep"]["anchors"],
        "table_digest": workloads["tuner"]["table_digest"],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench_comm] wrote {args.out}")

    if args.check_baseline:
        failures = check_baseline(report, args.check_baseline)
        for failure in failures:
            print(f"[bench_comm] FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"[bench_comm] baseline check passed ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
