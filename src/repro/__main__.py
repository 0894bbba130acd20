"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library for the common reproduction workflows:

* ``python -m repro scale --scenario MPI-Opt --gpus 4,32,512 --jobs 4``
* ``python -m repro profile --gpus 4 --steps 100``
* ``python -m repro table1``
* ``python -m repro fig1``
* ``python -m repro models``
* ``python -m repro cache stats``
* ``python -m repro resilience --gpus 8 --fail 3@2.0 --report report.json``
* ``python -m repro hybrid plan --ranks 8192``

``--profile`` (before the subcommand) wraps any of them in cProfile and
prints the top cumulative-time entries; sweep results go through the
on-disk result cache unless ``--no-cache`` is given.
"""

from __future__ import annotations

import argparse
import sys

from repro.perf import ResultCache, default_cache_dir, profiled_call

from repro.core import (
    MPI_DEFAULT,
    MPI_OPT,
    SCENARIOS,
    OptimizationPipeline,
    ScalingStudy,
    StudyConfig,
    scenario_by_name,
)
from repro.hardware import V100_16GB
from repro.models import get_model_cost, list_model_costs
from repro.models.costing import ThroughputModel
from repro.profiling import Hvprof, comparison_table
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes


def _make_cache(args: argparse.Namespace) -> ResultCache:
    return ResultCache(args.cache_dir, enabled=not args.no_cache)


def _add_engine_mode(parser: argparse.ArgumentParser) -> None:
    """``--fast`` / ``--exact`` engine-mode switch (default exact)."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--fast", dest="engine_mode", action="store_const", const="fast",
        help="trace/replay fast path (bit-identical to --exact; "
             "see docs/engine_fastpath.md)",
    )
    group.add_argument(
        "--exact", dest="engine_mode", action="store_const", const="exact",
        help="walk every collective schedule through the full cost model",
    )
    parser.set_defaults(engine_mode="exact")


def cmd_scale(args: argparse.Namespace) -> int:
    from repro.core.scenarios import scenario_spec_by_name
    from repro.parallel import ParallelLayout

    scenario = scenario_by_name(args.scenario)
    workload = scenario_spec_by_name(args.workload)
    gpu_counts = [int(g) for g in args.gpus.split(",")]
    # the measurement window must cover at least one local-SGD period
    # and one full video sequence
    measure_steps = max(args.steps, args.local_sgd, workload.frames)
    layout = ParallelLayout(
        tp=args.tp, pp=args.pp,
        microbatches=args.microbatches, schedule=args.schedule,
    )
    study = ScalingStudy(scenario, StudyConfig(measure_steps=measure_steps,
                                               model=args.model,
                                               engine_mode=args.engine_mode,
                                               compression=args.compression,
                                               local_sgd_h=args.local_sgd,
                                               layout=layout,
                                               workload=workload))
    cache = _make_cache(args)
    points = study.run(gpu_counts, jobs=args.jobs, cache=cache)
    model_label = (
        args.model if workload.is_degenerate
        else f"{args.model}, {workload.name}"
    )
    table = TextTable(
        ["GPUs", "images/s", "efficiency", "step (ms)"],
        title=f"Scaling study — {scenario.name} ({model_label})",
    )
    for p in points:
        table.add_row(
            p.num_gpus, f"{p.images_per_second:.1f}", f"{p.efficiency:.1%}",
            f"{p.step_time * 1e3:.1f}",
        )
    print(table.render())
    if cache.enabled:
        stats = cache.stats()
        print(
            f"result cache: {stats['hits']} hit(s), {stats['misses']} miss(es) "
            f"({cache.directory})"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    config = StudyConfig(measure_steps=args.steps)
    profiles = {}
    for scenario in (MPI_DEFAULT, MPI_OPT):
        hv = Hvprof()
        ScalingStudy(scenario, config).run_point(args.gpus, hvprof=hv)
        profiles[scenario.name] = hv
        print(hv.report(title=f"hvprof — {scenario.name}"))
    print(comparison_table(profiles["MPI"], profiles["MPI-Opt"]))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    args.gpus, args.steps = 4, 100
    return cmd_profile(args)


def cmd_fig1(_args: argparse.Namespace) -> int:
    table = TextTable(["Model", "Batch", "images/s"],
                      title="Fig. 1 — single-V100 throughput")
    for name, batch in (("edsr-paper", 4), ("resnet-50", 32)):
        tm = ThroughputModel(get_model_cost(name), V100_16GB)
        table.add_row(name, batch, f"{tm.images_per_second(batch):.1f}")
    print(table.render())
    return 0


def cmd_models(_args: argparse.Namespace) -> int:
    table = TextTable(
        ["Model", "Params", "Gradient bytes", "Forward GFLOP/img"],
        title="Registered model cost structures",
    )
    for name in list_model_costs():
        cost = get_model_cost(name)
        table.add_row(
            name,
            f"{cost.total_params / 1e6:.2f}M",
            format_bytes(cost.gradient_bytes),
            f"{cost.flops_forward / 1e9:.1f}",
        )
    print(table.render())
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
    else:
        print(f"cache directory: {cache.directory}")
        print(f"entries: {cache.entry_count()}")
    return 0


def _parse_failures(specs: list[str]):
    """``rank@time`` or ``rank@time@down_s`` → RankFailure list."""
    from repro.faults import RankFailure

    failures = []
    for spec in specs:
        parts = spec.split("@")
        if len(parts) not in (2, 3):
            raise SystemExit(
                f"bad --fail spec {spec!r}; expected rank@time[@down_s]"
            )
        down = float(parts[2]) if len(parts) == 3 else None
        failures.append(
            RankFailure(rank=int(parts[0]), time=float(parts[1]), down_s=down)
        )
    return failures


def cmd_resilience(args: argparse.Namespace) -> int:
    """Run one scaling point under a fault plan and itemize the recovery."""
    import json

    from repro.faults import FaultPlan
    from repro.resilience import (
        CheckpointPolicy,
        RecoveryAccounting,
        RecoveryPolicy,
    )

    scenario = scenario_by_name(args.scenario)
    specs = args.fail or ["3@2.0"]
    plan = FaultPlan(seed=args.seed, faults=tuple(_parse_failures(specs)))
    policy = RecoveryPolicy(
        restart=not args.no_restart,
        blacklist_after=args.blacklist_after,
        regrow=args.regrow,
        checkpoint=CheckpointPolicy(interval_steps=args.ckpt_interval),
    )
    study = ScalingStudy(
        scenario,
        StudyConfig(measure_steps=args.steps, model=args.model,
                    engine_mode=args.engine_mode),
        fault_plan=plan,
        recovery=policy,
    )
    cache = _make_cache(args)
    gpu_counts = [int(g) for g in args.gpus.split(",")]
    points = study.run(gpu_counts, jobs=args.jobs, cache=cache)
    mode = "shrink-continue" if args.no_restart else "restart-from-checkpoint"
    for p in points:
        r = p.resilience or {}
        print(
            f"== {scenario.name} @ {p.num_gpus} GPUs — {mode} "
            f"(plan seed {args.seed}) =="
        )
        print(
            f"throughput {p.images_per_second:.1f} images/s, "
            f"final world {r.get('final_world_size', p.num_gpus)}"
        )
        if p.resilience is not None:
            for line in RecoveryAccounting.from_payload(r).lines():
                print(line)
            print(f"fault-trace digest   {r['trace_digest']}")
    if args.report:
        from repro.core.study import point_payload

        report = {
            "scenario": scenario.name,
            "plan_seed": args.seed,
            "policy": mode,
            "points": [point_payload(p) for p in points],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"recovery report written to {args.report}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Simulate inference serving under one or all routing policies."""
    import json

    from repro.faults import FaultPlan
    from repro.serve import (
        POLICY_NAMES,
        VIDEO_MIX,
        AdmissionConfig,
        AutoscalerConfig,
        BatchingConfig,
        ServeJob,
        ServeScenario,
        SLOConfig,
        WorkloadConfig,
        run_serve_jobs,
        simulate_serve,
    )

    policies = list(POLICY_NAMES) if args.policy == "all" else [args.policy]
    video = args.workload == "video"
    # video arrivals are session starts (each expands into a whole frame
    # train), so the sensible default rate is streams/s, not frames/s
    rate = args.rate if args.rate is not None else (2.0 if video else 25.0)
    if video:
        workload = WorkloadConfig(
            kind="video", rate_rps=rate, classes=VIDEO_MIX
        )
    else:
        workload = WorkloadConfig(kind=args.workload, rate_rps=rate)
    autoscaler = AutoscalerConfig(
        enabled=not args.no_autoscale, max_replicas=args.max_replicas
    )

    def scenario_for(policy: str) -> ServeScenario:
        return ServeScenario(
            name=f"{args.workload}-{policy}",
            model=args.model,
            routing=policy,
            initial_replicas=args.replicas,
            workload=workload,
            batching=BatchingConfig(
                max_batch=args.max_batch,
                timeout_s=args.batch_timeout_ms / 1e3,
                # different upscale factors never pad into one batch
                mix_scales=not video,
            ),
            admission=AdmissionConfig(queue_capacity=args.queue_capacity),
            autoscaler=autoscaler,
            slo=SLOConfig(target_latency_s=args.slo_ms / 1e3),
            session_affinity=video,
        )

    plan = None
    if args.fail:
        plan = FaultPlan(
            seed=args.seed, faults=tuple(_parse_failures(args.fail))
        )

    if args.trace:
        # trace collection needs the live event list: run the first policy
        # inline, bypassing the cache
        from repro.profiling import write_chrome_trace

        report = simulate_serve(
            scenario_for(policies[0]),
            duration_s=args.duration,
            seed=args.seed,
            fault_plan=plan,
            collect_trace=True,
            engine_mode=args.engine_mode,
        )
        n = write_chrome_trace(args.trace, report.trace)
        reports = [report]
        print(f"chrome trace ({n} events) written to {args.trace}")
        if len(policies) > 1:
            jobs = [
                ServeJob(scenario_for(p), duration_s=args.duration,
                         seed=args.seed, fault_plan=plan,
                         engine_mode=args.engine_mode)
                for p in policies[1:]
            ]
            reports += run_serve_jobs(
                jobs, workers=args.jobs, cache=_make_cache(args)
            )
    else:
        jobs = [
            ServeJob(scenario_for(p), duration_s=args.duration,
                     seed=args.seed, fault_plan=plan,
                     engine_mode=args.engine_mode)
            for p in policies
        ]
        cache = _make_cache(args)
        reports = run_serve_jobs(jobs, workers=args.jobs, cache=cache)
        if cache.enabled:
            stats = cache.stats()
            print(
                f"result cache: {stats['hits']} hit(s), "
                f"{stats['misses']} miss(es) ({cache.directory})"
            )

    for report in reports:
        print(
            f"== serve {report.scenario} — policy {report.policy}, "
            f"{report.duration_s:g} s, seed {report.seed} =="
        )
        for line in report.lines():
            print(line)
    if args.report:
        payload = {
            "kind": "serve-sweep",
            "seed": args.seed,
            "duration_s": args.duration,
            "reports": [r.to_payload() for r in reports],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"serving report written to {args.report}")
    return 0


def cmd_comm(args: argparse.Namespace) -> int:
    """``comm tune`` / ``comm show`` — the selection-table workflow."""
    import json

    from repro.comm import (
        BACKENDS,
        TuningConfig,
        default_table,
        tune_compression_table,
        tune_table,
    )
    from repro.comm.selection import SelectionTable

    if args.comm_command == "tune":
        config = TuningConfig(
            backend=args.backend,
            byte_points=tuple(int(s) for s in args.sizes.split(",")),
            rank_counts=tuple(int(r) for r in args.ranks.split(",")),
        )
        if args.compression:
            table = tune_compression_table(
                config, topk_ratio=args.topk_ratio, cache=_make_cache(args)
            )
        else:
            table = tune_table(config, cache=_make_cache(args))
        print(table.render())
        print(f"table digest: {table.digest()}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(table.to_payload(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"table written to {args.out}")
    else:  # show
        if args.table:
            with open(args.table, encoding="utf-8") as fh:
                table = SelectionTable.from_payload(json.load(fh))
        else:
            table = default_table(args.backend)
        print(table.render())
        print(f"table digest: {table.digest()}")
        print(f"backends: {', '.join(BACKENDS)}")
    return 0


def cmd_hybrid(args: argparse.Namespace) -> int:
    """``hybrid plan`` — rank (dp, tp, pp) layouts for a target world."""
    import json

    from repro.parallel.planner import PlannerConfig, plan_hybrid

    config = PlannerConfig(
        ranks=args.ranks,
        scenario=args.scenario,
        model=args.model,
        batch_per_gpu=args.batch,
        engine_mode=args.engine_mode,
        max_tp=args.max_tp,
        max_pp=args.max_pp,
        microbatches=tuple(int(m) for m in args.microbatches.split(",")),
        fusion_mib=(
            tuple(int(f) for f in args.fusion_mib.split(","))
            if args.fusion_mib else ()
        ),
        schedules=tuple(args.schedules.split(",")),
        use_tuned_tables=args.tuned,
    )
    cache = _make_cache(args)
    report = plan_hybrid(config, jobs=args.jobs, cache=cache)

    table = TextTable(
        ["#", "dp", "tp", "pp", "mb", "sched", "table", "step (ms)",
         "images/s", "bubble", "train (s)"],
        title=(
            f"Hybrid plan — {args.ranks} ranks, {args.scenario} "
            f"({args.model}, {config.engine_mode})"
        ),
    )
    for rank, row in enumerate(report["points"][: args.top], start=1):
        table.add_row(
            rank, row["dp"], row["tp"], row["pp"], row["microbatches"],
            row["schedule"], row["table"],
            f"{row['step_time'] * 1e3:.2f}",
            f"{row['images_per_second']:.0f}",
            f"{row['bubble_fraction']:.0%}",
            f"{row['time_to_train_s']:.1f}",
        )
    print(table.render())
    if report["infeasible"]:
        print(f"{len(report['infeasible'])} layout(s) infeasible "
              f"(simulated OOM); see --report for reasons")
    best = report["best"]
    print(
        f"recommended layout: dp={best['dp']} tp={best['tp']} pp={best['pp']} "
        f"microbatches={best['microbatches']} ({best['schedule']}, "
        f"{best['table']} table) — step {best['step_time'] * 1e3:.2f} ms"
    )
    if report["hybrid_speedup"] is not None:
        print(
            f"best hybrid vs best pure-dp: "
            f"{report['hybrid_speedup']:.3f}x on simulated time-to-train"
        )
    print(f"plan digest: {report['digest']}")
    if cache.enabled:
        stats = cache.stats()
        print(
            f"result cache: {stats['hits']} hit(s), {stats['misses']} "
            f"miss(es) ({cache.directory})"
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"plan report written to {args.report}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    report = OptimizationPipeline(num_gpus=args.gpus, steps=args.steps).run()
    print(report.table())
    for line in report.diagnosis:
        print(f"diagnosis: {line}")
    for line in report.recommendations:
        print(f"recommend: {line}")
    print(f"throughput gain: {report.throughput_gain_pct:.1f}%")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the invariant-checked chaos campaign."""
    import json

    from repro.chaos import (
        POLICY_NAMES,
        SCENARIOS as CHAOS_SCENARIOS,
        CampaignConfig,
        run_campaign,
    )

    scenarios = (
        tuple(sorted(CHAOS_SCENARIOS))
        if args.scenarios == "all"
        else tuple(args.scenarios.split(","))
    )
    policies = (
        POLICY_NAMES if args.policies == "all"
        else tuple(args.policies.split(","))
    )
    config = CampaignConfig(
        scenarios=scenarios,
        policies=policies,
        seeds=args.seeds,
        num_gpus=args.gpus,
        measure_steps=args.steps,
        serve_duration_s=args.duration,
    )
    cache = _make_cache(args)
    report = run_campaign(config, jobs=args.jobs, cache=cache)
    cells = len(report.rows)
    print(
        f"== chaos campaign: {len(scenarios)} scenario(s) x "
        f"{len(policies)} polic(ies) x {args.seeds} seed(s) = "
        f"{cells} cell(s), {args.gpus} GPUs =="
    )
    for line in report.lines():
        print(line)
    if cache.enabled:
        stats = cache.stats()
        print(
            f"result cache: {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es) ({cache.directory})"
        )
    print(f"campaign digest: {report.digest}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"campaign report written to {args.report}")
    failures = report.failures()
    if failures:
        for f in failures:
            print(
                f"INVARIANT FAILED: {f['invariant']} at "
                f"({f['scenario']}, {f['policy']}, seed {f['seed']}): "
                f"{f['detail']}",
                file=sys.stderr,
            )
        return 1
    checked = sum(len(row["invariants"]) for row in report.rows)
    print(f"all {checked} invariant check(s) green")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the subcommand in cProfile and print the top entries",
    )
    parser.add_argument(
        "--profile-out", default="repro-profile.pstats",
        help="pstats dump path for --profile",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scale = sub.add_parser("scale", help="run a scaling study")
    scale.add_argument("--scenario", default="MPI-Opt",
                       choices=[s.name for s in SCENARIOS])
    scale.add_argument("--gpus", default="4,16,64")
    scale.add_argument("--steps", type=int, default=2)
    scale.add_argument("--model", default="edsr-paper")
    scale.add_argument("--workload", default="image",
                       choices=["image", "multiscale", "multiscale8", "video"],
                       help="training workload scenario: single-image "
                            "(the paper's), multi-scale heads (x2/x4[/x8] "
                            "in one run), or recurrent video sequences; "
                            "see docs/scenarios.md")
    scale.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent sweep points")
    scale.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
    scale.add_argument("--cache-dir", default=None,
                       help=f"result cache directory (default {default_cache_dir()})")
    scale.add_argument("--compression", default="none",
                       metavar="MODE",
                       help="gradient compression: none, fp16, bf16, or "
                            "topk:<ratio> (e.g. topk:0.01); see "
                            "docs/compression.md")
    scale.add_argument("--local-sgd", type=int, default=1, metavar="H",
                       help="local-SGD sync period: H-1 communication-free "
                            "steps between parameter-averaging syncs "
                            "(1 = synchronous SGD)")
    scale.add_argument("--tp", type=int, default=1,
                       help="tensor-parallel degree (dp is derived; "
                            "see docs/parallelism.md)")
    scale.add_argument("--pp", type=int, default=1,
                       help="pipeline-parallel depth")
    scale.add_argument("--microbatches", type=int, default=1,
                       help="microbatch count per pipeline replica "
                            "(requires --pp > 1)")
    scale.add_argument("--schedule", default="1f1b",
                       choices=["1f1b", "gpipe"],
                       help="pipeline schedule (differ only in live-"
                            "activation memory)")
    _add_engine_mode(scale)
    scale.set_defaults(func=cmd_scale)

    profile = sub.add_parser("profile", help="hvprof default vs MPI-Opt")
    profile.add_argument("--gpus", type=int, default=4)
    profile.add_argument("--steps", type=int, default=20)
    profile.set_defaults(func=cmd_profile)

    table1 = sub.add_parser("table1", help="reproduce Table I (100 steps)")
    table1.set_defaults(func=cmd_table1)

    fig1 = sub.add_parser("fig1", help="reproduce Fig. 1 anchors")
    fig1.set_defaults(func=cmd_fig1)

    models = sub.add_parser("models", help="list model cost structures")
    models.set_defaults(func=cmd_models)

    diagnose = sub.add_parser("diagnose", help="run the §III pipeline")
    diagnose.add_argument("--gpus", type=int, default=4)
    diagnose.add_argument("--steps", type=int, default=10)
    diagnose.set_defaults(func=cmd_diagnose)

    res = sub.add_parser(
        "resilience",
        help="run a scaling point under injected faults with elastic recovery",
    )
    res.add_argument("--scenario", default="MPI-Opt",
                     choices=[s.name for s in SCENARIOS])
    res.add_argument("--gpus", default="8",
                     help="comma-separated world sizes to run")
    res.add_argument("--steps", type=int, default=8,
                     help="measured training steps per point")
    res.add_argument("--model", default="edsr-paper")
    res.add_argument("--fail", action="append", default=None,
                     metavar="RANK@TIME[@DOWN]",
                     help="inject a rank failure (repeatable); DOWN seconds "
                          "makes the outage transient for --regrow")
    res.add_argument("--seed", type=int, default=0, help="fault plan seed")
    res.add_argument("--no-restart", action="store_true",
                     help="shrink-and-continue instead of checkpoint restart")
    res.add_argument("--regrow", action="store_true",
                     help="re-admit ranks whose outage window ends")
    res.add_argument("--blacklist-after", type=int, default=0,
                     help="evict a rank after this many straggler offenses")
    res.add_argument("--ckpt-interval", type=int, default=2,
                     help="checkpoint every N steps")
    res.add_argument("--jobs", type=int, default=1)
    res.add_argument("--no-cache", action="store_true")
    res.add_argument("--cache-dir", default=None)
    res.add_argument("--report", default=None,
                     help="write the JSON recovery report to this path")
    _add_engine_mode(res)
    res.set_defaults(func=cmd_resilience)

    serve = sub.add_parser(
        "serve",
        help="simulate SR inference serving (batching, routing, autoscaling)",
    )
    serve.add_argument("--policy", default="jsq",
                       choices=["rr", "jsq", "least-loaded", "all"],
                       help="routing policy, or 'all' to sweep every policy")
    serve.add_argument("--workload", default="poisson",
                       choices=["poisson", "diurnal", "bursty", "video"],
                       help="arrival process; 'video' streams sessions of "
                            "frames with per-frame deadlines, session "
                            "affinity, and scale-pure batching")
    serve.add_argument("--rate", type=float, default=None,
                       help="mean arrival rate (requests/s; video: "
                            "session starts/s). Default 25, video 2")
    serve.add_argument("--duration", type=float, default=60.0,
                       help="length of the arrival trace (simulated seconds)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--model", default="edsr-paper")
    serve.add_argument("--replicas", type=int, default=2,
                       help="initial replica count")
    serve.add_argument("--max-replicas", type=int, default=8,
                       help="autoscaler ceiling")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--batch-timeout-ms", type=float, default=25.0)
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="bounded per-replica queue (admission control)")
    serve.add_argument("--slo-ms", type=float, default=250.0,
                       help="latency SLO target for goodput accounting")
    serve.add_argument("--no-autoscale", action="store_true")
    serve.add_argument("--fail", action="append", default=None,
                       metavar="REPLICA@TIME[@DOWN]",
                       help="kill a replica mid-run (repeatable); failover "
                            "retries its orphaned requests")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --policy all sweeps")
    serve.add_argument("--no-cache", action="store_true")
    serve.add_argument("--cache-dir", default=None)
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace_event JSON timeline "
                            "(chrome://tracing / Perfetto)")
    serve.add_argument("--report", default=None,
                       help="write the JSON serving report to this path")
    _add_engine_mode(serve)
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="run the invariant-checked chaos campaign "
             "(scenario x policy x seed)",
    )
    chaos.add_argument("--scenarios", default="all",
                       help="comma-separated chaos scenarios, or 'all' "
                            "(node-failure, switch-failure, partition, "
                            "wire-corruption, ckpt-corruption, "
                            "serve-failover, video-failover)")
    chaos.add_argument("--policies", default="all",
                       help="comma-separated recovery policies, or 'all' "
                            "(restart, shrink)")
    chaos.add_argument("--seeds", type=int, default=3,
                       help="seeds per (scenario, policy) cell")
    chaos.add_argument("--gpus", type=int, default=16,
                       help="world size of the training cells")
    chaos.add_argument("--steps", type=int, default=40,
                       help="measured training steps per cell")
    chaos.add_argument("--duration", type=float, default=60.0,
                       help="serving cell duration (simulated seconds)")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent cells")
    chaos.add_argument("--no-cache", action="store_true")
    chaos.add_argument("--cache-dir", default=None)
    chaos.add_argument("--report", default=None, metavar="PATH",
                       help="write the JSON campaign report to this path")
    chaos.set_defaults(func=cmd_chaos)

    comm = sub.add_parser(
        "comm",
        help="tune or inspect collective algorithm-selection tables",
    )
    comm.add_argument("comm_command", choices=["tune", "show"],
                      nargs="?", default="show")
    comm.add_argument("--backend", default="mpi",
                      help="communication backend (mpi, nccl, hierarchical)")
    comm.add_argument("--ranks", default="4,16,64",
                      help="comma-separated rank counts to sweep (tune)")
    comm.add_argument("--sizes", default="4096,65536,1048576,16777216,67108864",
                      help="comma-separated message sizes in bytes (tune)")
    comm.add_argument("--out", default=None, metavar="PATH",
                      help="write the tuned table as JSON (tune)")
    comm.add_argument("--table", default=None, metavar="PATH",
                      help="show a previously tuned table JSON instead of "
                           "the builtin default")
    comm.add_argument("--compression", action="store_true",
                      help="tune compression modes (none/fp16/topk) instead "
                           "of collective algorithms")
    comm.add_argument("--topk-ratio", type=float, default=0.01,
                      help="top-k density for the compression sweep")
    comm.add_argument("--no-cache", action="store_true")
    comm.add_argument("--cache-dir", default=None)
    comm.set_defaults(func=cmd_comm)

    hybrid = sub.add_parser(
        "hybrid",
        help="plan a hybrid (dp x tp x pp) layout for a target world size",
    )
    hybrid.add_argument("hybrid_command", choices=["plan"],
                        nargs="?", default="plan")
    hybrid.add_argument("--ranks", type=int, default=8192,
                        help="target world size (simulated GPUs)")
    hybrid.add_argument("--scenario", default="MPI-Opt",
                        choices=[s.name for s in SCENARIOS])
    hybrid.add_argument("--model", default="edsr-paper")
    hybrid.add_argument("--batch", type=int, default=4,
                        help="per-GPU training batch size")
    hybrid.add_argument("--max-tp", type=int, default=0,
                        help="largest tensor-parallel degree to consider "
                             "(0 = the node's GPU count)")
    hybrid.add_argument("--max-pp", type=int, default=4,
                        help="largest pipeline depth to consider")
    hybrid.add_argument("--microbatches", default="2,4,8,16",
                        help="comma-separated microbatch counts for "
                             "pipelined layouts")
    hybrid.add_argument("--fusion-mib", default=None,
                        help="extra Horovod fusion-threshold variants to "
                             "price (comma-separated MiB)")
    hybrid.add_argument("--schedules", default="1f1b",
                        help="pipeline schedules to price (1f1b, gpipe)")
    hybrid.add_argument("--tuned", action="store_true",
                        help="also price every layout under a tuned comm "
                             "selection table (comm tune)")
    hybrid.add_argument("--top", type=int, default=10,
                        help="ranked layouts to print")
    hybrid.add_argument("--jobs", type=int, default=1,
                        help="worker processes for candidate pricing")
    hybrid.add_argument("--no-cache", action="store_true")
    hybrid.add_argument("--cache-dir", default=None)
    hybrid.add_argument("--report", default=None, metavar="PATH",
                        help="write the full JSON plan report to this path")
    _add_engine_mode(hybrid)
    # planning sweeps dozens of multi-thousand-rank points; the fast engine
    # is bit-identical to exact (pinned by the equivalence suite), so it is
    # the default here — --exact opts into the full schedule walk
    hybrid.set_defaults(engine_mode="fast")
    hybrid.set_defaults(func=cmd_hybrid)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("cache_command", choices=["stats", "clear"],
                       nargs="?", default="stats")
    cache.add_argument("--cache-dir", default=None)
    cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.profile:
        code, report = profiled_call(args.func, args, out_path=args.profile_out)
        print(report)
        print(f"profile written to {args.profile_out}")
        return code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
