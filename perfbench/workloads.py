"""The four benchmark workloads, each a closed loop over one public entry point.

A workload is built once (``build``) and then run any number of times
against a result cache: ``steps`` lists its entry-point calls, each timed
on its own, and ``items`` reduces a step's result to one ``(name,
payload)`` item per priced unit (a scaling point, a planner
candidate, a chaos cell, a serve run), whose payload holds only simulated
values.  Those payloads are what the benchmark compares against the
references recorded in ``perfbench/references/``.

This module imports ``repro``; the caller puts the checkout's ``src`` on
``sys.path`` first (see ``rep.py``).
"""

from __future__ import annotations

import functools
import json

#: serve_bursty draws its arrival seed from this many recorded seeds: the
#: benchmark seed selects one (seed mod the pool size), and every seed in
#: the pool has a recorded reference payload
SERVE_SEED_POOL = 32


def canonical(payload) -> str:
    """Value form used to compare payloads (floats round-trip exactly)."""
    return json.dumps(payload, sort_keys=True, allow_nan=True)


def _plain(payload):
    return json.loads(json.dumps(payload))


class Workload:
    """Defaults shared by the workloads below.

    ``steps`` lists the run's public entry-point calls in closed-loop order,
    each a ``(name, call)`` pair with ``call(cache)`` returning what the
    entry point returned; ``items`` reduces one step's result to its items.
    """

    #: items a warm re-run does not produce: their runs bypass the result
    #: cache, so re-running them would time costing, not the cache read path
    warm_skipped: frozenset = frozenset()

    @staticmethod
    def item_ok(payload: dict) -> bool:
        """Workload-specific verdict on an item that matches its reference."""
        return True


class PaperSweep(Workload):
    """Figs. 10-13 weak-scaling sweep (MPI, MPI-Opt, NCCL x 4..512 GPUs,
    fast engine, default jitter), one ``ScalingStudy.run`` per point, plus
    the Fig. 14 hvprof run (100 steps on 4 GPUs, MPI and MPI-Opt).  The
    jitter stream is seeded inside the program, so the input does not vary
    with the benchmark seed."""

    name = "paper_sweep"
    BACKENDS = ("MPI", "MPI-Opt", "NCCL")
    PROFILED = ("MPI", "MPI-Opt")
    PROFILE_STEPS = 100
    PROFILE_GPUS = 4

    def __init__(self, seed: int):
        from repro.core.scenarios import scenario_by_name
        from repro.core.study import PAPER_GPU_COUNTS, StudyConfig

        self.gpu_counts = list(PAPER_GPU_COUNTS)
        self.scenarios = {n: scenario_by_name(n) for n in self.BACKENDS}
        self.config = StudyConfig(engine_mode="fast")
        self.profile_config = StudyConfig(
            engine_mode="fast", measure_steps=self.PROFILE_STEPS
        )
        self.reference_key = "fixed-input"
        self.warm_skipped = frozenset(
            f"fig14:{name}@{self.PROFILE_GPUS}" for name in self.PROFILED
        )

    def steps(self, *, warm: bool = False):
        steps = [
            (f"{name}@{n}", functools.partial(self._point, name, n))
            for name in self.BACKENDS
            for n in self.gpu_counts
        ]
        for name in () if warm else self.PROFILED:
            steps.append(
                (
                    f"fig14:{name}@{self.PROFILE_GPUS}",
                    functools.partial(self._profile, name),
                )
            )
        return steps

    def _point(self, name: str, num_gpus: int, cache):
        from repro.core.study import ScalingStudy

        study = ScalingStudy(self.scenarios[name], self.config)
        return study.run([num_gpus], jobs=1, cache=cache)

    def _profile(self, name: str, cache):
        from repro.core.study import ScalingStudy
        from repro.profiling import Hvprof

        hv = Hvprof()
        point = ScalingStudy(
            self.scenarios[name], self.profile_config
        ).run_point(self.PROFILE_GPUS, hvprof=hv)
        return point, hv

    def items(self, step: str, result) -> list[tuple[str, dict]]:
        from repro.core.study import point_payload

        if not step.startswith("fig14:"):
            (point,) = result
            return [(step, _plain(point_payload(point)))]
        point, hv = result
        bins = {
            b.label: [s.count, s.total_time, s.total_bytes]
            for b, s in hv.by_bin("allreduce").items()
        }
        payload = {"point": point_payload(point), "allreduce_bins": bins}
        return [(step, _plain(payload))]


class HybridPlan(Workload):
    """``plan_hybrid`` at 2048 ranks over pure dp, tp in {2, 4} and pp <= 2
    (one microbatch count), fast engine, planner memo off.  The input does
    not vary with the benchmark seed."""

    name = "hybrid_plan"

    def __init__(self, seed: int):
        from repro.parallel.planner import PlannerConfig

        self.config = PlannerConfig(
            ranks=2048, max_tp=4, max_pp=2, microbatches=(4,)
        )
        self.reference_key = "fixed-input"

    def steps(self, *, warm: bool = False):
        return [("plan", self._plan)]

    def _plan(self, cache):
        from repro.parallel.planner import plan_hybrid

        return plan_hybrid(self.config, jobs=1, cache=cache, use_memo=False)

    def items(self, step: str, report) -> list[tuple[str, dict]]:
        items = [
            (
                f"dp{r['dp']}-tp{r['tp']}-pp{r['pp']}-mb{r['microbatches']}"
                f"-{r['schedule']}-f{r['fusion_mib']}-{r['table']}",
                r,
            )
            for r in report["points"]
        ]
        # the plan-level verdict (ranking, best layout, infeasible set) is
        # one more checked item; the report's digest is salted and skipped
        summary = {
            k: report[k]
            for k in (
                "ranks", "global_batch", "steps_to_train", "candidates",
                "infeasible", "best", "best_pure_dp", "best_hybrid",
                "hybrid_speedup",
            )
        }
        items.append(("plan", summary))
        return [(n, _plain(p)) for n, p in items]


class ChaosCampaign(Workload):
    """``run_campaign``, one call per cell: every chaos family x both
    recovery policies, 16 GPUs, one seed, both engine modes per cell.  The
    chaos seed range is fixed inside the program, so the input does not
    vary with the benchmark seed.  A cell also fails when any of its
    invariants is red."""

    name = "chaos_campaign"

    def __init__(self, seed: int):
        from repro.chaos.campaign import CampaignConfig

        full = CampaignConfig(seeds=1, num_gpus=16)
        self.configs = {
            f"{scenario}/{policy}": CampaignConfig(
                scenarios=(scenario,), policies=(policy,), seeds=1,
                num_gpus=16,
            )
            for scenario in full.scenarios
            for policy in full.policies
        }
        self.reference_key = "fixed-input"

    def steps(self, *, warm: bool = False):
        return [
            (name, functools.partial(self._cell, config))
            for name, config in self.configs.items()
        ]

    @staticmethod
    def _cell(config, cache):
        from repro.chaos.campaign import run_campaign

        return run_campaign(config, jobs=1, cache=cache)

    def items(self, step: str, report) -> list[tuple[str, dict]]:
        return [
            (
                f"{row['scenario']}/{row['policy']}/seed{row['seed']}",
                _plain(row),
            )
            for row in report.rows
        ]

    @staticmethod
    def item_ok(payload: dict) -> bool:
        """A chaos cell also fails when any of its invariants is red."""
        return all(inv["ok"] for inv in payload["invariants"])


class ServeBursty(Workload):
    """``run_serve_jobs`` on one bursty (MMPP) arrival stream: the default
    single-frame mix at the default rate, JSQ routing, autoscaling, 30
    simulated minutes.  The benchmark seed picks the arrival seed."""

    name = "serve_bursty"
    DURATION_S = 1800.0

    def __init__(self, seed: int):
        from repro.serve import ServeJob, ServeScenario
        from repro.serve.workload import WorkloadConfig

        self.arrival_seed = seed % SERVE_SEED_POOL
        scenario = ServeScenario(
            name="bench-bursty",
            routing="jsq",
            workload=WorkloadConfig(kind="bursty"),
        )
        self.job = ServeJob(
            scenario, duration_s=self.DURATION_S, seed=self.arrival_seed
        )
        self.reference_key = f"arrival-seed-{self.arrival_seed}"

    def steps(self, *, warm: bool = False):
        return [("serve", self._serve)]

    def _serve(self, cache):
        from repro.serve import run_serve_jobs

        return run_serve_jobs([self.job], workers=1, cache=cache)

    def items(self, step: str, reports) -> list[tuple[str, dict]]:
        (report,) = reports
        return [
            (f"serve:seed{self.arrival_seed}", _plain(report.to_payload()))
        ]


_CLASSES = {
    cls.name: cls for cls in (PaperSweep, HybridPlan, ChaosCampaign, ServeBursty)
}
WORKLOADS = tuple(_CLASSES)


def build(name: str, seed: int):
    return _CLASSES[name](seed)


def item_failures(workload, items, reference: dict | None) -> dict[str, str]:
    """Map each failed item's name to why it failed.

    An item fails when its payload differs from the recorded reference
    (values, not cache digests) or, for chaos cells, when an invariant is
    red.  Reference items that the run did not produce fail too.
    """
    failures: dict[str, str] = {}
    seen = set()
    for name, payload in items:
        seen.add(name)
        if reference is None:
            failures[name] = "no reference recorded"
        elif name not in reference:
            failures[name] = "not in the reference"
        elif canonical(payload) != canonical(reference[name]):
            failures[name] = "differs from the reference: " + _first_diff(
                payload, reference[name]
            )
        elif not workload.item_ok(payload):
            failures[name] = "invariant red"
    for name in reference or {}:
        if name not in seen:
            failures[name] = "missing from the run"
    return failures


def _first_diff(a, b, path: str = "") -> str:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}/{key} present on one side only"
            if canonical(a[key]) != canonical(b[key]):
                return _first_diff(a[key], b[key], f"{path}/{key}")
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if canonical(x) != canonical(y):
                return _first_diff(x, y, f"{path}[{i}]")
    return f"{path or '/'}: {canonical(a)[:80]} != {canonical(b)[:80]}"
