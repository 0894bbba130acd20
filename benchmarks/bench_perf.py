"""Perf-regression harness: times the canonical workloads and writes
``BENCH_perf.json``.

Unlike the ``bench_fig*`` files (pytest-benchmark suites reproducing the
paper's figures), this is a standalone script so CI can run it without a
benchmark plugin and diff the result against a committed baseline::

    python benchmarks/bench_perf.py --quick --out BENCH_perf.json \
        --check-baseline benchmarks/baselines/BENCH_perf_baseline.json

Workloads:

* **fig10_sweep** — the Fig. 10 scenario sweep three ways: serial with
  every step simulated (the pre-perf-layer behaviour), through the fast
  path (steady-state extrapolation + result cache, cold), and again warm.
  Asserts the >=3x warm speedup and the paper-shape invariants (MPI-Opt
  beats MPI at scale) on the fast-path results.
* **fig14_profile** — the hvprof profiling run behind Fig. 14 / Table I,
  asserting the Table I bin structure (large bins improve >30%, small
  bins barely move).
* **functional_16rank** — a real 16-rank data-parallel training step
  (gradients actually averaged), the end-to-end latency anchor.
* **event_engine** — event-mode hierarchical allreduce at 16 ranks; its
  event count and summed simulated time are machine-independent and
  checked against the baseline exactly.  Its wall-clock events/sec is
  reported only: it varies by ±30 % between runs on one host, and more
  between hosts, so it cannot gate a change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from time import perf_counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from repro.core import MPI_DEFAULT, MPI_OPT, ScalingStudy, StudyConfig
from repro.core.scenarios import scenario_by_name
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.collectives.allreduce import allreduce_timing
from repro.perf import ResultCache, run_scenario_sweeps
from repro.profiling import Hvprof, improvement_summary
from repro.sim import Environment

MIB = 1024 * 1024


def _bench_config(**overrides) -> StudyConfig:
    """Zero-jitter performance mode: every step identical, so steady-state
    extrapolation is exact and results are machine-independent."""
    defaults = dict(measure_steps=8, jitter_sigma=0.0)
    defaults.update(overrides)
    return StudyConfig(**defaults)


def time_fig10_sweep(quick: bool, jobs: int) -> dict:
    scenarios = ["MPI", "MPI-Opt"] if quick else ["MPI", "MPI-Opt", "NCCL"]
    gpu_counts = [4, 8, 16, 32] if quick else [4, 8, 16, 32, 64, 128, 256, 512]
    serial_cfg = _bench_config(steady_detect=False)
    fast_cfg = _bench_config()

    t0 = perf_counter()
    serial = {
        name: ScalingStudy(scenario_by_name(name), serial_cfg).run(gpu_counts)
        for name in scenarios
    }
    serial_s = perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        t0 = perf_counter()
        cold = run_scenario_sweeps(
            scenarios, gpu_counts, fast_cfg, workers=jobs, cache=cache
        )
        cold_s = perf_counter() - t0
        t0 = perf_counter()
        warm = run_scenario_sweeps(
            scenarios, gpu_counts, fast_cfg, workers=jobs, cache=cache
        )
        warm_s = perf_counter() - t0
        cache_stats = cache.stats()

    # fast-path correctness: warm is byte-identical to cold (same digests),
    # and extrapolation tracks the fully-simulated serial run to ulp noise
    for name in scenarios:
        for pc, pw, ps in zip(cold[name], warm[name], serial[name]):
            assert pw.step_time == pc.step_time, "warm cache diverged from cold"
            assert abs(pc.step_time - ps.step_time) <= 1e-12 * ps.step_time, (
                f"extrapolated {name}@{pc.num_gpus} drifted: "
                f"{pc.step_time} vs {ps.step_time}"
            )

    # paper shape (Fig. 10/12): the optimized stack scales better
    top = gpu_counts[-1]
    mpi_eff = next(p for p in warm["MPI"] if p.num_gpus == top).efficiency
    opt_eff = next(p for p in warm["MPI-Opt"] if p.num_gpus == top).efficiency
    assert opt_eff > mpi_eff, (
        f"MPI-Opt efficiency ({opt_eff:.3f}) must beat MPI ({mpi_eff:.3f}) "
        f"at {top} GPUs"
    )

    speedup_warm = serial_s / warm_s if warm_s > 0 else float("inf")
    assert speedup_warm >= 3.0, (
        f"warm fast path only {speedup_warm:.1f}x over serial (need >=3x)"
    )
    return {
        "scenarios": scenarios,
        "gpu_counts": gpu_counts,
        "serial_s": serial_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup_cold": serial_s / cold_s if cold_s > 0 else float("inf"),
        "speedup_warm": speedup_warm,
        "mpi_efficiency_top": mpi_eff,
        "mpi_opt_efficiency_top": opt_eff,
        "cache": cache_stats,
    }


def time_fig14_profile(quick: bool) -> dict:
    steps = 20 if quick else 100
    config = StudyConfig(measure_steps=steps)
    profiles = {}
    t0 = perf_counter()
    for scenario in (MPI_DEFAULT, MPI_OPT):
        hv = Hvprof()
        ScalingStudy(scenario, config).run_point(4, hvprof=hv)
        profiles[scenario.name] = hv
    wall_s = perf_counter() - t0

    # Table I bin structure: large bins improve ~50%, total lands 30-62%
    summary = improvement_summary(profiles["MPI"], profiles["MPI-Opt"])
    large = [
        summary[label]
        for label in ("16 MB - 32 MB", "32 MB - 64 MB")
        if label in summary and summary[label] != 0.0
    ]
    assert large, "no populated large bins in the hvprof profile"
    for improvement in large:
        assert improvement > 30.0, f"large-bin improvement {improvement:.1f}% < 30%"
    assert 30.0 < summary["Total"] < 62.0, (
        f"total improvement {summary['Total']:.1f}% outside the Table I band"
    )
    return {"steps": steps, "wall_s": wall_s, "total_improvement_pct": summary["Total"]}


def time_functional_step(quick: bool) -> dict:
    """Real 16-rank data-parallel training steps: gradients actually
    computed by the numpy autograd stack and averaged through the MPI
    communicator (the integration-suite workload at benchmark scale)."""
    from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
    from repro.models import EDSR, EDSR_TINY
    from repro.trainer import DistributedTrainer

    num_ranks = 16
    steps = 1 if quick else 3
    cluster = Cluster(Environment(), LASSEN, num_nodes=num_ranks // 4)
    spec = WorldSpec(
        num_ranks=num_ranks, policy=MPI_OPT.policy, config=MPI_OPT.mv2
    )
    world = MpiWorld(cluster, spec)
    engine = HorovodEngine(world.communicator(), HorovodConfig(cycle_time_s=1e-3))
    src = SyntheticDiv2k(height=32, width=32, seed=3)
    dataset = SRDataset(src, split="train", degradation=DegradationConfig(scale=2))

    t0 = perf_counter()
    trainer = DistributedTrainer(
        lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
        engine, dataset, batch_per_rank=1, lr_patch=8, seed=4,
    )
    result = trainer.train(steps=steps)
    wall_s = perf_counter() - t0
    assert len(result.losses) == steps
    return {"ranks": num_ranks, "steps": steps, "wall_s": wall_s}


def time_event_engine(quick: bool) -> dict:
    """Event-mode hierarchical allreduce: events, simulated time, events/sec."""
    iterations = 30 if quick else 100
    num_ranks = 16
    cluster = Cluster(Environment(), LASSEN, num_nodes=num_ranks // 4)
    spec = WorldSpec(
        num_ranks=num_ranks, policy=MPI_OPT.policy, config=MPI_OPT.mv2
    )
    world = MpiWorld(cluster, spec, mode=ExecutionMode.EVENT)
    env = cluster.env
    ranks = list(range(num_ranks))
    t0 = perf_counter()
    sim_time = 0.0
    for _ in range(iterations):
        t = allreduce_timing(world.coster, ranks, 16 * MIB, algorithm="hierarchical")
        sim_time += t.time
    wall_s = perf_counter() - t0
    events = env.events_processed
    return {
        "iterations": iterations,
        "wall_s": wall_s,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else float("inf"),
        "simulated_time_s": sim_time,
    }


def check_baseline(report: dict, baseline_path: str) -> list[str]:
    """Exact checks of the event engine's machine-independent outputs."""
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("quick") != report["quick"]:
        return [
            f"baseline {baseline_path} was recorded with quick="
            f"{baseline.get('quick')}; rerun with the same grid"
        ]
    failures = []
    base = baseline["workloads"]["event_engine"]
    got = report["workloads"]["event_engine"]
    for key in ("events", "simulated_time_s"):
        if got[key] != base[key]:
            failures.append(
                f"event engine {key} drifted: {got[key]!r} != baseline "
                f"{base[key]!r} (the event engine's work changed)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep for CI smoke runs")
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1))
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="fail if the event engine's event count or "
                        "simulated time differs from this baseline")
    args = parser.parse_args(argv)

    workloads = {}
    print(f"[bench_perf] fig10 sweep ({'quick' if args.quick else 'full'}) ...")
    workloads["fig10_sweep"] = time_fig10_sweep(args.quick, args.jobs)
    print(
        "[bench_perf]   serial {serial_s:.2f}s  cold {cold_s:.2f}s  "
        "warm {warm_s:.3f}s  ({speedup_warm:.0f}x warm)".format(
            **workloads["fig10_sweep"]
        )
    )
    print("[bench_perf] fig14 hvprof profile ...")
    workloads["fig14_profile"] = time_fig14_profile(args.quick)
    print("[bench_perf]   {wall_s:.2f}s, Table I total {total_improvement_pct:.1f}%".format(
        **workloads["fig14_profile"]))
    print("[bench_perf] functional 16-rank step ...")
    workloads["functional_16rank"] = time_functional_step(args.quick)
    print("[bench_perf]   {wall_s:.2f}s".format(**workloads["functional_16rank"]))
    print("[bench_perf] event engine ...")
    workloads["event_engine"] = time_event_engine(args.quick)
    print("[bench_perf]   {events} events in {wall_s:.2f}s = {events_per_sec:.0f}/s".format(
        **workloads["event_engine"]))

    report = {
        "quick": args.quick,
        "jobs": args.jobs,
        "workloads": workloads,
        "events_per_sec": workloads["event_engine"]["events_per_sec"],
        "sweep_speedup_warm": workloads["fig10_sweep"]["speedup_warm"],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench_perf] wrote {args.out}")

    if args.check_baseline:
        failures = check_baseline(report, args.check_baseline)
        for failure in failures:
            print(f"[bench_perf] FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"[bench_perf] baseline check passed ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
