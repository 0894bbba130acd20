"""The scaling-study harness behind Figs. 10-13.

For one :class:`~repro.core.scenarios.Scenario` and GPU count it assembles
the whole simulated stack — cluster, CUDA contexts under the visibility
policy, MPI/NCCL backend, Horovod engine — and walks training steps of the
paper's workload (EDSR, batch 4/GPU, 48x48 LR patches):

``step = forward + max(backward_with_stragglers, comm_finish) + blocking + update``

where ``comm_finish`` comes from the Horovod engine running the model's
real gradient-readiness schedule through Tensor Fusion and the backend's
collective algorithms.  One executor walks every multi-GPU point: a small
periodic *step plan* (every-step gradient sync, local-SGD periods, video
sequences; the hybrid executor hands in its own constants) says what each
step does, and a fault plan perturbs the same loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.core.calibration import (
    COMPUTE_JITTER_SIGMA,
    HOROVOD_TUNED,
    OPTIMIZER_BYTES_PER_PARAM,
    PAGEABLE_BLOCKING_FACTOR,
    TRAIN_BATCH_PER_GPU,
)
from repro.comm.api import broadcast_weights
from repro.comm.registry import build_communicator
from repro.compression import CompressionConfig
from repro.core.scenarios import IMAGE_SPEC, Scenario, ScenarioSpec
from repro.errors import ConfigError
from repro.hardware.cluster import build_cluster
from repro.hardware.specs import ClusterSpec, LASSEN
from repro.horovod.coordinator import straggler_factor
from repro.horovod.engine import HorovodEngine, StepTiming
from repro.horovod.env import HorovodConfig
from repro.horovod.fusion import PendingTensor
from repro.models.costing import ModelCostModel, ThroughputModel, TrainingMemoryModel
from repro.models.registry import get_model_cost, get_scenario_cost
from repro.mpi.process import WorldSpec
from repro.parallel.layout import ParallelLayout
from repro.profiling.hvprof import Hvprof
from repro.utils.seeding import SeedSequenceFactory

# Step kinds of a step plan (see ScalingStudy.step_plan).
LOCAL = "local"  # forward + backward + update, no communication
FRAME = "frame"  # forward + backward only: a BPTT frame defers the update
PARAMS = "params"  # parameter-averaging sync after the backward (local-SGD)
GRADS = "grads"  # gradient allreduce overlapped with the backward


@dataclass(frozen=True)
class StudyConfig:
    """Workload and environment of one scaling study."""

    model: str = "edsr-paper"
    batch_per_gpu: int = TRAIN_BATCH_PER_GPU
    cluster: ClusterSpec = LASSEN
    horovod: HorovodConfig = HOROVOD_TUNED
    jitter_sigma: float = COMPUTE_JITTER_SIGMA
    warmup_steps: int = 1
    measure_steps: int = 2
    # Refuse configurations whose per-GPU footprint (params + optimizer +
    # activations + fusion buffer + CUDA context) exceeds HBM — a simulated
    # run must OOM where the real one would (Fig. 9's boundary).
    check_memory: bool = True
    # Strong scaling: fix the *global* batch and shrink the per-GPU share as
    # GPUs are added (the paper runs weak scaling; this is the companion
    # experiment).  ``None`` keeps the paper's weak-scaling regime.
    global_batch: int | None = None
    # Steady-state extrapolation: once ``steady_window`` consecutive measured
    # steps agree within ``steady_rel_tol`` (relative spread), stop simulating
    # and extrapolate the remaining measure steps at the converged value.
    # With the default jitter the spread stays above any tight tolerance, so
    # this only fires for zero-jitter runs — where the measured steps agree
    # to ulp-level accumulator noise and the extrapolated mean matches a
    # full simulation within ~1e-15 relative (pinned by equivalence tests).
    steady_detect: bool = True
    steady_window: int = 3
    steady_rel_tol: float = 1e-9
    # Engine execution mode: "exact" walks every collective schedule through
    # the full transport cost model; "fast" attaches the repro.sim.fastpath
    # session, which prices each transfer class once and replays it for
    # every warm transfer of the class bit-identically (equivalence pinned
    # by tests/test_engine_equivalence.py).
    engine_mode: str = "exact"
    # Gradient compression spec ("none", "fp16", "bf16", "topk:<ratio>")
    # applied at the Horovod engine's wire boundary; see docs/compression.md.
    compression: str = "none"
    # Local-SGD sync period H: 1 is synchronous SGD (gradient allreduce
    # every step); H > 1 runs H-1 communication-free local steps between
    # parameter-averaging syncs.
    local_sgd_h: int = 1
    # Parallel layout: the default is pure data parallelism (dp = world
    # size).  Any tp/pp/microbatching routes the point through the hybrid
    # executor (repro.parallel); layouts fold into point digests like any
    # other config field, so dp-only and hybrid points never share cache
    # entries.
    layout: ParallelLayout = ParallelLayout()
    # Workload scenario: what one step processes.  The default (the
    # paper's single-image/single-scale workload) routes through the
    # registered cost model and the unchanged step loop, so every
    # pre-existing simulated anchor stays bit-identical.  Multi-scale
    # specs swap in the multi-head cost structure; temporal specs
    # (frames > 1) run the video BPTT loop — frames-1 communication-free
    # frame steps, then a sequence-boundary step carrying the gradient
    # allreduce and the update.  Folds into point digests like any other
    # config field.
    workload: ScenarioSpec = IMAGE_SPEC

    def __post_init__(self) -> None:
        if self.batch_per_gpu < 1:
            raise ConfigError("batch_per_gpu must be >= 1")
        if self.measure_steps < 1:
            raise ConfigError("measure_steps must be >= 1")
        if self.steady_window < 2:
            raise ConfigError("steady_window must be >= 2")
        if self.steady_rel_tol < 0:
            raise ConfigError("steady_rel_tol must be >= 0")
        if self.engine_mode not in ("exact", "fast"):
            raise ConfigError(
                f"engine_mode must be 'exact' or 'fast', got {self.engine_mode!r}"
            )
        if self.local_sgd_h < 1:
            raise ConfigError(
                f"local_sgd_h must be >= 1, got {self.local_sgd_h}"
            )
        if self.local_sgd_h > self.measure_steps:
            # a measurement window shorter than one period would never
            # execute a parameter sync and report zero communication
            raise ConfigError(
                f"measure_steps ({self.measure_steps}) must cover at least "
                f"one local-SGD period (local_sgd_h={self.local_sgd_h})"
            )
        if not isinstance(self.layout, ParallelLayout):
            raise ConfigError(
                f"layout must be a ParallelLayout, got {self.layout!r}"
            )
        if not self.layout.is_pure_dp and self.local_sgd_h > 1:
            raise ConfigError(
                "hybrid (tp/pp) layouts do not compose with local-SGD "
                f"(local_sgd_h={self.local_sgd_h}); run one or the other"
            )
        if not isinstance(self.workload, ScenarioSpec):
            raise ConfigError(
                f"workload must be a ScenarioSpec, got {self.workload!r}"
            )
        if self.workload.is_temporal and self.local_sgd_h > 1:
            raise ConfigError(
                "temporal (video) workloads do not compose with local-SGD "
                f"(local_sgd_h={self.local_sgd_h}): a step plan has one "
                "period, and a video sequence already syncs gradients at "
                "its boundary where local-SGD would average parameters"
            )
        if self.workload.is_temporal and self.workload.frames > self.measure_steps:
            # a measurement window shorter than one sequence would never
            # cross a sequence boundary and report zero communication
            raise ConfigError(
                f"measure_steps ({self.measure_steps}) must cover at least "
                f"one video sequence (frames={self.workload.frames})"
            )
        if not self.workload.is_degenerate and not self.layout.is_pure_dp:
            raise ConfigError(
                "hybrid (tp/pp) layouts support only the default workload "
                f"scenario for now, got {self.workload.name!r}"
            )
        CompressionConfig.parse(self.compression)  # raises ConfigError


@dataclass
class ScalingPoint:
    """Measured state of one (scenario, gpu count) run."""

    scenario: str
    num_gpus: int
    # Clean points: num_gpus * batch / step_time.  Fault points:
    # sum(world_size * batch) / sum(step time) over the measured steps, so
    # steps on a shrunk world count the images they really processed.
    images_per_second: float
    step_time: float
    forward_time: float
    # Fault points (run under a fault plan) report the un-inflated
    # backward; clean points report it with the straggler factor applied.
    backward_time: float
    exposed_comm_time: float
    coordination_time: float
    update_time: float
    blocking_time: float  # pageable staging stealing compute (default path)
    comm_wall_time: float  # sum of collective durations
    message_sizes: list[int] = field(default_factory=list)
    regcache_hit_rate: float | None = None
    efficiency: float | None = None
    # Steady-state bookkeeping: how many steps were actually simulated vs
    # extrapolated at the converged per-step time.  Clean points count
    # measure steps only; fault points also count warm-up steps and steps
    # replayed after a restart.
    simulated_steps: int = 0
    extrapolated_steps: int = 0
    # Recovery report for runs under a fault plan: the itemized
    # time-to-solution ledger (RecoveryAccounting payload) plus the
    # world-size trajectory and fault-trace digest.  None for clean runs.
    resilience: dict | None = None
    # Hybrid-layout decomposition (dp/tp/pp, bubble fraction, tp/pp comm
    # shares, stage bounds) for points the hybrid executor priced; None
    # for pure data-parallel points.
    parallelism: dict | None = None
    # Workload scenario payload (ScenarioSpec.to_payload) for points run
    # under a non-default spec (multi-scale heads, video sequences);
    # None for the paper's degenerate single-image workload.
    workload: dict | None = None

    @property
    def per_gpu_rate(self) -> float:
        return self.images_per_second / self.num_gpus


class ScalingStudy:
    """Runs the paper's weak-scaling experiment for one scenario.

    With a ``fault_plan``, elastic recovery perturbs each multi-GPU
    point's step loop: rank failures are detected by a heartbeat
    supervisor, absorbed per the ``recovery`` policy (restart-from-
    checkpoint on the shrunk world by default), and every second of
    overhead is itemized into the point's ``resilience`` report.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: StudyConfig | None = None,
        *,
        fault_plan=None,
        recovery=None,
    ):
        self.scenario = scenario
        self.config = config or StudyConfig()
        self.fault_plan = fault_plan
        self.recovery = recovery
        workload = self.config.workload
        if workload.is_degenerate:
            # the paper's workload: the registered cost model, unchanged —
            # every pre-existing simulated anchor stays bit-identical
            self.cost: ModelCostModel = get_model_cost(self.config.model)
        else:
            self.cost = get_scenario_cost(
                self.config.model,
                scales=workload.scales,
                patch=workload.patch,
                recurrent=workload.recurrent,
            )
        self.throughput = ThroughputModel(self.cost, self.config.cluster.node.gpu)
        self.memory = TrainingMemoryModel(self.cost)

    def batch_for(self, num_gpus: int) -> int:
        """Per-GPU batch at this scale (weak: constant; strong: shrinking)."""
        if self.config.global_batch is not None:
            return max(1, self.config.global_batch // num_gpus)
        return self.config.batch_per_gpu

    # -- single-GPU baseline (no communication) -------------------------------
    def single_gpu_rate(self) -> float:
        batch = self.batch_for(1)
        T = self.config.workload.frames
        if T == 1:
            return self.throughput.images_per_second(batch)
        # video: the optimizer update fires once per sequence, so it
        # amortizes over the frame steps (same arithmetic as the 1-GPU
        # point, so efficiency is exactly 1.0 there)
        step = (
            self.throughput.forward_time(batch)
            + self.throughput.backward_time(batch)
            + self._update_time() / T
        )
        return batch / step

    def _update_time(self) -> float:
        gpu = self.config.cluster.node.gpu
        return (
            self.cost.total_params * OPTIMIZER_BYTES_PER_PARAM / gpu.hbm_bandwidth
        )

    def _gradient_stream(
        self, backward_time: float, rng=None, cost: ModelCostModel | None = None
    ) -> list[PendingTensor]:
        """Per-tensor readiness of ``cost``'s gradients (the study's model
        by default); optional per-step jitter.

        Real backward passes jitter a few percent step to step, so fusion
        groups (and hence message sizes / registration extents) vary — the
        reason the paper's registration-cache hit rate is ~93%, not ~100%.
        """
        schedule = (self.cost if cost is None else cost).gradient_schedule()
        if rng is None:
            noise = [0.0] * len(schedule)
        else:
            noise = rng.normal(0.0, self.config.jitter_sigma, len(schedule))
        return [
            PendingTensor(
                t.name,
                t.nbytes,
                ready_time=max(0.0, t.ready_fraction * backward_time * (1.0 + eps)),
            )
            for t, eps in zip(schedule, noise)
        ]

    def _parameter_stream(self) -> list[PendingTensor]:
        """Model weights as a zero-ready-time stream (local-SGD sync).

        Parameter tensors mirror the gradient schedule's names and sizes;
        they are all resident when the sync fires, so every ready time is
        zero and fusion packs them as one back-to-back burst.
        """
        return [
            PendingTensor(t.name, t.nbytes, ready_time=0.0)
            for t in self.cost.gradient_schedule()
        ]

    def contexts_per_gpu(self) -> int:
        """Processes holding a CUDA context on each GPU under this policy.

        Singleton visibility leaves one; the legacy full-visibility policy
        leaves one per co-located rank (the Fig. 6a overhead kernels).
        """
        gpn = self.config.cluster.node.gpus_per_node
        return self.scenario.policy.app_mask(0, gpn).count

    def check_memory_feasible(self, batch: int) -> None:
        """Raise if the per-GPU training footprint exceeds device memory."""
        gpu = self.config.cluster.node.gpu
        required = (
            self.memory.bytes_required(batch)
            + self.config.horovod.fusion_threshold
            + self.contexts_per_gpu() * gpu.context_overhead_bytes
        )
        if required > gpu.memory_bytes:
            raise ConfigError(
                f"batch {batch} of {self.cost.name} needs "
                f"{required / 2**30:.2f} GiB/GPU "
                f"({self.contexts_per_gpu()} context(s)) but {gpu.name} has "
                f"{gpu.memory_bytes / 2**30:.0f} GiB (simulated OOM)"
            )

    def max_feasible_batch(self) -> int:
        """Largest per-GPU batch that fits under this scenario's policy."""
        gpu = self.config.cluster.node.gpu
        available = (
            gpu.memory_bytes
            - self.config.horovod.fusion_threshold
            - self.contexts_per_gpu() * gpu.context_overhead_bytes
        )
        return self.memory.max_batch(available)

    # -- result cache addressing ----------------------------------------------
    def point_digest(
        self, num_gpus: int, *, fault_plan=None, recovery=None
    ) -> str:
        """Content address of the point this study would produce.

        Folds in everything that determines the result: scenario (policy,
        MV2 config, backend), the full :class:`StudyConfig`, world size and
        per-GPU batch, the ``MV2_*``/``HOROVOD_*``/``REPRO_SIM_*`` environment
        knobs, the fault plan and recovery policy (the study's own unless
        overridden), the digests of any active ``repro.comm`` selection
        tables (so tuned-table runs never alias untuned cached results),
        and the cache version salt.
        """
        from repro.comm.selection import active_table_digests
        from repro.perf.digest import canonical_digest, env_knobs

        if fault_plan is None:
            fault_plan = self.fault_plan
        if recovery is None:
            recovery = self.recovery
        return canonical_digest(
            {
                "kind": "scaling-point",
                "scenario": self.scenario,
                "config": self.config,
                "num_gpus": num_gpus,
                "batch_per_gpu": self.batch_for(num_gpus),
                "env": env_knobs(),
                "fault_plan": fault_plan,
                "recovery": recovery,
                "comm_tables": active_table_digests(),
            }
        )

    # -- one scale point ---------------------------------------------------------
    def run_point(
        self, num_gpus: int, *, hvprof: Hvprof | None = None, cache=None
    ) -> ScalingPoint:
        """Run one point, through the result cache when one is given.

        Profiled runs (``hvprof``) bypass the cache: observers must see the
        live event stream, and op counts depend on the number of simulated
        steps, which steady-state extrapolation would shorten.
        """
        use_cache = (
            cache is not None and getattr(cache, "enabled", True) and hvprof is None
        )
        if use_cache:
            digest = self.point_digest(num_gpus)
            hit = cache.get(digest)
            if hit is not None:
                return point_from_payload(hit)
        point = self._run_point(num_gpus, hvprof=hvprof)
        if use_cache:
            cache.put(digest, point_payload(point))
        return point

    def step_plan(self) -> tuple[str, ...]:
        """One period of this study's step schedule; step ``i`` runs
        ``plan[i % len(plan)]``.

        Synchronous SGD syncs gradients every step; local-SGD runs H-1
        communication-free local steps, then a parameter-averaging sync;
        video BPTT runs T-1 frame steps (forward+backward only, carrying
        the recurrent state), then a sequence-boundary step that drains the
        accumulated gradient and applies the one update per sequence.
        """
        H, T = self.config.local_sgd_h, self.config.workload.frames
        if H > 1:
            return (LOCAL,) * (H - 1) + (PARAMS,)
        return (FRAME,) * (T - 1) + (GRADS,)

    def _run_point(
        self, num_gpus: int, *, hvprof: Hvprof | None = None
    ) -> ScalingPoint:
        cfg = self.config
        if not cfg.layout.is_pure_dp:
            if self.fault_plan is not None:
                raise ConfigError(
                    "hybrid (tp/pp) layouts do not compose with fault plans: "
                    "a failed rank takes down a dp replica spread over tp*pp "
                    "ranks, and shrinking such a replica has no defined "
                    "semantics; run the resilience study data-parallel"
                )
            from repro.parallel.executor import HybridExecutor

            return HybridExecutor(self).run(num_gpus, cfg.layout, hvprof=hvprof)
        batch = self.batch_for(num_gpus)
        if cfg.check_memory:
            self.check_memory_feasible(batch)
        forward = self.throughput.forward_time(batch)
        backward = self.throughput.backward_time(batch)
        update = self._update_time()
        if num_gpus == 1:
            # no communication; a video sequence amortizes its one update
            # over the frame steps (``update / 1`` is exact for images)
            step = forward + backward + update / cfg.workload.frames
            return ScalingPoint(
                scenario=self.scenario.name,
                num_gpus=1,
                images_per_second=batch / step,
                step_time=step,
                forward_time=forward,
                backward_time=backward,
                exposed_comm_time=0.0,
                coordination_time=0.0,
                update_time=update,
                blocking_time=0.0,
                comm_wall_time=0.0,
                workload=self._workload_payload(),
            )
        cluster = build_cluster(cfg.cluster, num_gpus)
        return self._execute(
            num_gpus,
            batch,
            self.step_plan(),
            cluster=cluster,
            ranks=num_gpus,
            forward=forward,
            backward=backward
            * straggler_factor(num_gpus, sigma=cfg.jitter_sigma),
            update=update,
            grad_cost=self.cost,
            recovery=(
                None if self.fault_plan is None
                else _ElasticRecovery(self, cluster, num_gpus, backward)
            ),
            hvprof=hvprof,
        )

    def _workload_payload(self) -> dict | None:
        workload = self.config.workload
        return None if workload.is_degenerate else workload.to_payload()

    def _execute(
        self,
        num_gpus: int,
        batch: int,
        plan: tuple[str, ...],
        *,
        cluster,
        ranks: int,
        forward: float,
        backward: float,
        update: float,
        grad_cost: ModelCostModel,
        sync_step: float = 0.0,
        recovery: _ElasticRecovery | None = None,
        hvprof: Hvprof | None = None,
    ) -> ScalingPoint:
        """Walk ``warmup_steps + measure_steps`` steps of ``plan``.

        The one step loop behind every multi-GPU point.  ``ranks`` ranks of
        ``cluster`` (``None`` for a single rank: no world, no
        communication) run the Horovod engine; ``backward`` is the
        straggler-inflated backward of the full world, ``sync_step`` the
        hybrid layout's per-step tp sync, and ``grad_cost`` whose gradient
        schedule the engine reduces.  A ``recovery`` hook perturbs the loop
        under a fault plan: it polls the supervisor before every step,
        shrinks, restarts or regrows the world, and sets the per-step
        backward from the live ranks' compute factors.
        """
        cfg = self.config
        period = len(plan)
        world = engine = transport = None
        if cluster is not None:
            world, comm = build_communicator(
                cluster,
                self.scenario.backend,
                world_spec=WorldSpec(
                    num_ranks=ranks,
                    policy=self.scenario.policy,
                    config=self.scenario.mv2,
                ),
                num_ranks=ranks,
                # a clean point attaches no injector at all: an attached one
                # pins the transport's class prices to the simulation clock
                faults=None if recovery is None else recovery.injector,
            )
            if cfg.engine_mode == "fast":
                from repro.sim.fastpath import enable_fastpath

                enable_fastpath(world)
            if hvprof is not None:
                comm.add_observer(hvprof.observer)
            engine = HorovodEngine(
                comm, cfg.horovod,
                compression=CompressionConfig.parse(cfg.compression),
            )
            transport = getattr(world, "transport", None)
        # Steady-state extrapolation only makes sense in performance mode:
        # a profiler is counting per-step ops, so every step must be real.
        # A periodic plan converges on whole-period sums and replays each
        # phase's value; extrapolated steps skip the engine.
        steady = None
        if (
            cfg.steady_detect
            and hvprof is None
            and cfg.measure_steps > cfg.steady_window
        ):
            from repro.perf.steady import PeriodicSteadyState, SteadyStateDetector

            window = (cfg.steady_window, cfg.steady_rel_tol)
            steady = (
                SteadyStateDetector(*window) if period == 1
                else PeriodicSteadyState(period, *window)
            )
        if recovery is not None:
            recovery.attach(engine, steady)
        # seeded independently of the scenario so that scenario comparisons
        # (Figs. 10-12) see identical per-step jitter (paired runs)
        rng = SeedSequenceFactory(2021).generator("gradient-jitter", num_gpus)
        # a run whose every step is communication-free reports the
        # zero-comm regime
        timing = StepTiming(
            backward_time=backward, comm_finish=0.0, coordination_time=0.0
        )
        blocking = 0.0
        extrapolated = 0
        records: list[float] = []  # per-step time; truncated on restart
        while len(records) < cfg.warmup_steps + cfg.measure_steps:
            bwd = backward if recovery is None else recovery.before_step(records)
            step_index = len(records)  # after any restart truncation
            kind = plan[step_index % period]
            if kind == GRADS:
                # drawn even for extrapolated steps: the jitter RNG consumes
                # the same draws as a full run, so a resumption after a
                # re-arm stays aligned with exact simulation
                stream = self._gradient_stream(bwd, rng=rng, cost=grad_cost)
            extrapolating = steady is not None and steady.converged()
            if extrapolating:
                step = steady.phase_value(step_index)
                extrapolated += 1
            elif kind == FRAME:
                step = forward + bwd
            elif kind == LOCAL:
                step = forward + bwd + update
            else:
                comm_finish = 0.0
                if engine is not None:
                    staged_before = (
                        transport.max_staged_seconds() if transport else 0.0
                    )
                    if kind == PARAMS:
                        stream = self._parameter_stream()
                    timing = engine.run_step(
                        stream,
                        backward_time=0.0 if kind == PARAMS else bwd,
                        force_dense=kind == PARAMS,
                    )
                    # Pageable staging copies block the GPU stream: charge
                    # the busiest rank's staging time serially.
                    staged_delta = (
                        transport.max_staged_seconds() - staged_before
                        if transport else 0.0
                    )
                    blocking = staged_delta * PAGEABLE_BLOCKING_FACTOR
                    comm_finish = timing.comm_finish
                if kind == PARAMS:
                    # weights average after the backward, not under it
                    step = forward + bwd + blocking + update + comm_finish
                else:
                    step = (
                        forward
                        + max(bwd, comm_finish)
                        + blocking
                        + sync_step
                        + update
                    )
            if (
                steady is not None
                and not extrapolating
                and step_index >= cfg.warmup_steps
            ):
                steady.observe(step, step_index % period)
            records.append(step)
            if recovery is not None:
                recovery.after_step(records, step)
        measured = records[cfg.warmup_steps:]
        mean_step = sum(measured) / len(measured)
        regcache = None
        if world is not None and self.scenario.backend == "mpi":
            stats = world.regcache_stats()
            regcache = stats["hit_rate"] if stats["hits"] + stats["misses"] else None
        point = ScalingPoint(
            scenario=self.scenario.name,
            num_gpus=num_gpus,
            images_per_second=num_gpus * batch / mean_step,
            step_time=mean_step,
            forward_time=forward,
            backward_time=backward,
            exposed_comm_time=timing.exposed_comm_time,
            coordination_time=timing.coordination_time,
            update_time=update,
            blocking_time=blocking,
            comm_wall_time=timing.total_comm_time,
            message_sizes=[m.nbytes for m in timing.messages],
            regcache_hit_rate=regcache,
            simulated_steps=cfg.measure_steps - extrapolated,
            extrapolated_steps=extrapolated,
            workload=self._workload_payload(),
        )
        if recovery is not None:
            point = recovery.report(point, records, batch)
        return point

    def _checkpoint_nbytes(self) -> int:
        """Bytes one checkpoint writes: fp32 weights + optimizer state."""
        return int(self.cost.total_params * (4 + OPTIMIZER_BYTES_PER_PARAM))

    # -- full sweep ---------------------------------------------------------------
    def run(
        self, gpu_counts: list[int], *, jobs: int = 1, cache=None
    ) -> list[ScalingPoint]:
        """Run the sweep; ``jobs > 1`` fans points out over worker processes.

        The parallel path requires a registered scenario (workers rebuild
        the study from its name); a custom scenario object falls back to
        the serial path.  Results are merged in ``gpu_counts`` order either
        way — worker completion order never changes the output.
        """
        base = self.single_gpu_rate()
        if jobs != 1 and self._parallel_safe():
            from repro.perf.parallel import (
                PointJob,
                active_table_payloads,
                run_point_jobs,
            )

            tables = active_table_payloads()
            point_jobs = [
                PointJob(
                    self.scenario.name, g, self.config,
                    fault_plan=self.fault_plan, recovery=self.recovery,
                    comm_tables=tables,
                )
                for g in gpu_counts
            ]
            points = run_point_jobs(point_jobs, workers=jobs, cache=cache)
        else:
            points = [self.run_point(g, cache=cache) for g in gpu_counts]
        for point in points:
            point.efficiency = point.images_per_second / (point.num_gpus * base)
        return points

    def _parallel_safe(self) -> bool:
        """True iff workers can reconstruct this exact study by name."""
        from repro.core.scenarios import scenario_by_name

        try:
            return scenario_by_name(self.scenario.name) == self.scenario
        except ConfigError:
            return False


class _ElasticRecovery:
    """A fault plan's perturbation hook on the point executor.

    Mirrors the functional trainer's orchestration on the performance
    model: a heartbeat supervisor detects dead ranks, the recovery policy
    decides between restart-from-checkpoint (steps since the last snapshot
    are discarded as lost work and re-simulated on the shrunk ring) and
    shrink-and-continue; chronic stragglers can be blacklisted, and ranks
    whose outage window ends can be regrown.  All overheads land in the
    point's ``resilience`` ledger.

    Steady-state extrapolation under faults: the detector re-arms on every
    world perturbation (failure, blacklist, regrow, straggler slowdown) so
    the recovery transient never poisons the converged value.
    """

    def __init__(
        self, study: ScalingStudy, cluster, num_gpus: int, backward: float
    ):
        from repro.faults.injector import FaultInjector
        from repro.resilience.accounting import RecoveryAccounting
        from repro.resilience.policy import RESTART_FROM_CHECKPOINT
        from repro.resilience.supervisor import HeartbeatSupervisor

        self.study = study
        self.plan = study.fault_plan
        self.injector = FaultInjector(self.plan, topology=cluster.topology())
        self.policy = study.recovery or RESTART_FROM_CHECKPOINT
        self.supervisor = HeartbeatSupervisor(
            range(num_gpus), self.injector, self.policy.heartbeat
        )
        self.acct = RecoveryAccounting()
        self.ckpt_nbytes = study._checkpoint_nbytes()
        self.backward = backward  # un-inflated: stragglers apply per step
        self.num_gpus = num_gpus
        self.live = list(range(num_gpus))
        self.world_sizes: list[int] = []  # per record; truncated on restart
        # (step, corrupt) per retained snapshot, oldest first — restart
        # walks newest -> oldest past corrupt files (checksum verification)
        self.snapshots: list[tuple[int, bool]] = []
        self.saves = 0
        self.clock = 0.0

    def attach(self, engine, steady) -> None:
        """Bind the world the executor built; take the initial snapshot."""
        self.engine, self.steady = engine, steady
        if self.policy.restart:
            self._checkpoint(0)

    def _checkpoint(self, step: int) -> None:
        cost = self.policy.checkpoint.write_cost(self.ckpt_nbytes)
        self.clock += cost
        self.acct.note_checkpoint(cost)
        self.snapshots.append(
            (step, self.injector.checkpoint_corrupt(self.saves, self.clock))
        )
        self.saves += 1
        # retention rotation mirrors CheckpointManager.keep_last
        del self.snapshots[: -self.policy.checkpoint.keep_last]

    def _rearm(self) -> None:
        if self.steady is not None:
            self.steady.rearm()

    def before_step(self, records: list[float]) -> float:
        """Absorb the faults due by now; return this step's backward."""
        policy, injector, supervisor = self.policy, self.injector, self.supervisor
        live = self.live
        # Whole failure domains are declared atomically: every rank a
        # node/switch/partition fault took down shares one detection
        # window, and each successive group's stall is charged off the
        # *updated* clock — overlapping windows never double-charge.
        dead = []
        for group in supervisor.poll_domains(self.clock):
            members = [d for d in group.detections if d.rank in live]
            if not members:
                continue
            stall = max(0.0, group.declared_at - self.clock)
            self.clock += stall
            self.acct.note_detection(stall)
            for d in members:
                live.remove(d.rank)
            dead.extend(members)
        if not live:
            from repro.errors import RankFailedError

            raise RankFailedError(
                f"all {self.num_gpus} ranks failed under plan "
                f"seed={self.plan.seed}"
            )
        if dead:
            self.engine.shrink_to(sorted(live))
            self._rearm()
            if policy.restart:
                self._restart(records)
        if policy.blacklist_after > 0:
            for rank in supervisor.over_limit(policy.blacklist_after):
                if rank in live and len(live) > 1:
                    live.remove(rank)
                    supervisor.drop(rank)
                    self.engine.shrink_to(sorted(live))
                    self._rearm()
                    self.acct.note_blacklist(rank)
                    injector.record(
                        "rank-blacklisted", self.clock, rank=rank,
                        detail=f"offenses>={policy.blacklist_after}",
                    )
        if policy.regrow:
            for rank in supervisor.recovered(self.clock):
                live.append(rank)
                live.sort()
                supervisor.readmit(rank)
                self.engine.reform_to(list(live))
                self._rearm()
                # the regrown replica's weights ride the re-formed ring:
                # one comm-layer broadcast of the checkpoint payload,
                # charged with the restart overhead
                rebcast = broadcast_weights(self.engine.comm, self.ckpt_nbytes)
                rebcast_s = rebcast.time if rebcast is not None else 0.0
                self.acct.note_regrow(
                    rank, policy.restart_overhead_s + rebcast_s
                )
                self.clock += policy.restart_overhead_s + rebcast_s
                injector.record(
                    "rank-regrown", self.clock, rank=rank,
                    detail=f"world={len(live)}",
                )
        fault_factor = 1.0
        for rank in live:
            f = injector.compute_factor(rank, self.clock, len(records))
            supervisor.note_compute(rank, f, self.clock)
            fault_factor = max(fault_factor, f)
        if fault_factor > 1.0 or injector.wire_corruption_active(self.clock):
            # a straggler slowdown perturbs the step time without any
            # membership change — the converged value is stale.  An active
            # wire-corruption window likewise forces real steps:
            # extrapolation sends no messages, so corruption (and its CRC
            # retransmit cost) would silently vanish.
            self._rearm()
        return (
            self.backward
            * straggler_factor(len(live), sigma=self.study.config.jitter_sigma)
            * fault_factor
        )

    def _restart(self, records: list[float]) -> None:
        """Checksum-verified recovery: walk newest -> oldest, charging a
        read per attempt, past corrupt snapshots."""
        policy = self.policy
        restore_step = None
        read = 0.0
        for snap_step, corrupt in reversed(self.snapshots):
            read += policy.checkpoint.read_cost(self.ckpt_nbytes)
            if not corrupt:
                restore_step = snap_step
                break
            self.injector.record(
                "ckpt-corrupt-skipped", self.clock, detail=f"step={snap_step}",
            )
        if restore_step is None:
            from repro.errors import CheckpointError

            raise CheckpointError(
                f"no valid checkpoint survives under plan "
                f"seed={self.plan.seed}: all "
                f"{len(self.snapshots)} retained snapshot(s) corrupt "
                f"(keep_last={policy.checkpoint.keep_last})"
            )
        lost_steps = len(records) - restore_step
        if lost_steps > 0:
            lost = sum(records[restore_step:])
            self.acct.productive_s -= lost
            self.acct.note_lost_work(lost, steps=lost_steps)
            del records[restore_step:]
            del self.world_sizes[restore_step:]
        self.acct.note_restart(read + policy.restart_overhead_s)
        self.clock += read + policy.restart_overhead_s
        self.injector.record(
            "restart", self.clock,
            detail=f"from step {restore_step} world={len(self.live)} verified",
        )

    def after_step(self, records: list[float], step: float) -> None:
        self.world_sizes.append(len(self.live))
        self.clock += step
        self.acct.note_productive(step)
        if self.policy.restart and self.policy.checkpoint.due(len(records)):
            self._checkpoint(len(records))

    def report(
        self, point: ScalingPoint, records: list[float], batch: int
    ) -> ScalingPoint:
        """The fault-point view of ``point``, plus its recovery ledger."""
        warmup = self.study.config.warmup_steps
        trace = self.injector.trace
        trace_kinds: dict[str, int] = {}
        for event in trace:
            trace_kinds[event.kind] = trace_kinds.get(event.kind, 0) + 1
        return replace(
            point,
            images_per_second=(
                sum(w * batch for w in self.world_sizes[warmup:])
                / sum(records[warmup:])
            ),
            backward_time=self.backward,
            simulated_steps=len(records) - point.extrapolated_steps,
            resilience={
                **self.acct.to_payload(),
                # the independently-accumulated simulation clock: the chaos
                # invariant `productive + overheads == wall clock` checks
                # the ledger against this, not against its own sum
                "wall_clock_s": self.clock,
                "world_sizes": list(self.world_sizes),
                "final_world_size": len(self.live),
                "trace_digest": trace.digest(),
                "trace_events": len(trace),
                "trace_kinds": {k: trace_kinds[k] for k in sorted(trace_kinds)},
            },
        )


# -- cache (de)serialization ---------------------------------------------------
def point_payload(point: ScalingPoint) -> dict:
    """JSON-encodable form of a point (floats round-trip exactly)."""
    return asdict(point)


def point_from_payload(payload: dict) -> ScalingPoint:
    """Rebuild a :class:`ScalingPoint` from :func:`point_payload` output."""
    return ScalingPoint(**payload)


#: the paper's sweep: 1 node (4 GPUs) up to 128 Lassen nodes (512 GPUs)
PAPER_GPU_COUNTS = [4, 8, 16, 32, 64, 128, 256, 512]
