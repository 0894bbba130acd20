"""Tests for the hybrid (dp x tp x pp) parallelism subsystem.

Layout validation messages, cost-model partitioning invariants, the
reduce-scatter collectives backing tensor parallelism, digest separation
of hybrid points, per-point steady-state detection (no converged
window carries across points or layouts), and the planner's byte-identical determinism across jobs=1 /
jobs=N / warm-cache runs.
"""

import json

import numpy as np
import pytest

from repro.comm import build_communicator
from repro.core.scenarios import scenario_by_name
from repro.core.study import ScalingStudy, StudyConfig, point_payload
from repro.errors import ConfigError, MpiError
from repro.hardware import LASSEN
from repro.hardware.cluster import build_cluster
from repro.models import get_model_cost
from repro.mpi.comm import GpuBuffer
from repro.parallel import (
    ParallelLayout,
    model_width,
    shard_layer,
    split_stage_bounds,
    stage_models,
)
from repro.parallel.executor import HybridExecutor, dp_cluster_spec
from repro.parallel.planner import (
    PlannerConfig,
    _PLAN_MEMO,
    enumerate_layouts,
    plan_hybrid,
)
from repro.utils.units import MIB


EDSR = get_model_cost("edsr-paper")


class TestLayoutValidation:
    def test_dp_product_must_equal_world(self):
        with pytest.raises(ConfigError, match="must equal world size"):
            ParallelLayout(dp=3, tp=2, pp=2).resolved(16)

    def test_footprint_must_divide_world(self):
        with pytest.raises(ConfigError, match="does not divide world size"):
            ParallelLayout(tp=2, pp=3, microbatches=3).resolved(16)

    def test_tp_must_divide_model_width(self):
        with pytest.raises(ConfigError, match="must divide model width"):
            ParallelLayout(tp=3).validate_model(EDSR)

    def test_microbatches_must_divide_batch(self):
        layout = ParallelLayout(tp=1, pp=2, microbatches=16)
        with pytest.raises(ConfigError, match="must divide the global batch"):
            layout.validate_batch(3)

    def test_pipeline_deeper_than_model_rejected(self):
        deep = ParallelLayout(pp=len(EDSR.layers) + 1,
                              microbatches=len(EDSR.layers) + 1)
        with pytest.raises(ConfigError, match="exceeds the model's"):
            deep.validate_model(EDSR)

    def test_footprint_must_pack_into_nodes(self):
        with pytest.raises(ConfigError, match="pack evenly into nodes"):
            ParallelLayout(tp=2, pp=3, microbatches=3).validate_cluster(4)

    def test_microbatching_requires_pipeline(self):
        with pytest.raises(ConfigError, match="microbatches"):
            ParallelLayout(microbatches=4)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ConfigError, match="schedule"):
            ParallelLayout(pp=2, microbatches=2, schedule="zigzag")

    def test_dp_auto_derivation(self):
        layout = ParallelLayout(tp=2, pp=2, microbatches=4).resolved(16)
        assert layout.dp == 4
        assert not layout.is_pure_dp
        assert ParallelLayout().resolved(8).dp == 8
        assert ParallelLayout().is_pure_dp

    def test_hybrid_rejects_local_sgd(self):
        with pytest.raises(ConfigError, match="local-SGD"):
            StudyConfig(layout=ParallelLayout(tp=2), local_sgd_h=4)

    def test_layout_type_checked(self):
        with pytest.raises(ConfigError, match="must be a ParallelLayout"):
            StudyConfig(layout="tp2")


class TestPartitioning:
    def test_shard_divides_exactly(self):
        width = model_width(EDSR)
        assert width == 1024
        for layer in EDSR.layers:
            shard = shard_layer(layer, 2)
            if layer.cout % 2 == 0 and layer.cout > 0:
                assert shard.params * 2 == layer.params
                assert shard.activation_bytes * 2 == layer.activation_bytes
                assert shard.flops_forward * 2 == layer.flops_forward
            else:
                assert shard is layer  # replicated

    def test_stage_bounds_contiguous_and_nonempty(self):
        for pp in (1, 2, 3, 4):
            bounds = split_stage_bounds(EDSR.layers, pp)
            assert len(bounds) == pp
            assert bounds[0][0] == 0
            assert bounds[-1][1] == len(EDSR.layers)
            for (s0, e0), (s1, _e1) in zip(bounds, bounds[1:]):
                assert e0 == s1
            assert all(e > s for s, e in bounds)

    def test_params_conserved_across_grid(self):
        for tp, pp in ((1, 1), (2, 2), (4, 3), (1, 4)):
            layout = ParallelLayout(
                tp=tp, pp=pp, microbatches=pp if pp > 1 else 1)
            stages = stage_models(EDSR, layout)
            total = 0
            for stage in stages:
                sharded = set(stage.sharded_layers)
                for layer in stage.cost.layers:
                    total += (
                        layer.params * tp if layer.name in sharded
                        else layer.params
                    )
            assert total == EDSR.total_params

    def test_boundary_is_unsharded_activation(self):
        layout = ParallelLayout(tp=4, pp=2, microbatches=2)
        stages = stage_models(EDSR, layout)
        bounds = split_stage_bounds(EDSR.layers, 2)
        cut = EDSR.layers[bounds[0][1] - 1]
        assert stages[0].boundary_activation_bytes == cut.activation_bytes
        assert stages[-1].boundary_activation_bytes == 0

    def test_dp_cluster_spec_packing(self):
        spec = dp_cluster_spec(LASSEN, ParallelLayout(tp=2, dp=8))
        assert spec.node.gpus_per_node == 2
        assert spec.ib is LASSEN.ib
        whole = dp_cluster_spec(LASSEN, ParallelLayout(tp=4, pp=2, dp=8,
                                                       microbatches=2))
        assert whole.node.gpus_per_node == 1


class TestReduceScatter:
    def test_hierarchical_mirrors_allgather(self):
        _, comm = build_communicator(
            build_cluster(LASSEN, 8), "hierarchical", num_ranks=8)
        _, ag = comm.allgather([GpuBuffer.virtual(MIB) for _ in range(8)])
        _, rs = comm.reduce_scatter(
            [GpuBuffer.virtual(8 * MIB) for _ in range(8)])
        assert rs.time == ag.time  # exact byte-mirror of the same segments
        assert rs.op == "reduce_scatter"
        assert rs.time > 0

    def test_hierarchical_functional(self):
        _, comm = build_communicator(
            build_cluster(LASSEN, 4), "hierarchical", num_ranks=4)
        arrays = [
            np.full(8, float(r + 1), dtype=np.float32) for r in range(4)
        ]
        shards, _ = comm.reduce_scatter(
            [GpuBuffer.from_array(a) for a in arrays])
        assert len(shards) == 4
        for shard in shards:
            np.testing.assert_array_equal(shard, 10.0)  # 1+2+3+4

    def test_hierarchical_divisibility_validated(self):
        from repro.errors import CommError

        _, comm = build_communicator(
            build_cluster(LASSEN, 4), "hierarchical", num_ranks=4)
        with pytest.raises(CommError):
            comm.reduce_scatter([GpuBuffer.virtual(6) for _ in range(4)])

    def test_mpi_ring_reduce_scatter(self):
        from tests.test_extra_collectives import make_comm

        comm = make_comm(4)
        arrays = [
            np.arange(8, dtype=np.float32) * (r + 1) for r in range(4)
        ]
        shards, timing = comm.reduce_scatter(
            [GpuBuffer.from_array(a) for a in arrays])
        np.testing.assert_array_equal(
            np.concatenate(shards), np.arange(8, dtype=np.float32) * 10)
        assert timing.time > 0
        with pytest.raises(MpiError):
            comm.reduce_scatter([GpuBuffer.virtual(6) for _ in range(4)])


class TestDigestSeparation:
    """Satellite 2: hybrid layouts fold into the point digest."""

    def test_salt_bumped(self):
        from repro.perf.digest import CACHE_VERSION_SALT

        assert CACHE_VERSION_SALT == "repro-perf-v10"

    def test_layouts_never_share_cache_entries(self):
        scn = scenario_by_name("MPI-Opt")
        digests = {
            ScalingStudy(scn, StudyConfig(layout=layout)).point_digest(16)
            for layout in (
                ParallelLayout(),
                ParallelLayout(tp=2),
                ParallelLayout(tp=4),
                ParallelLayout(pp=2, microbatches=4),
                ParallelLayout(pp=2, microbatches=8),
                ParallelLayout(tp=2, pp=2, microbatches=4),
                ParallelLayout(tp=2, pp=2, microbatches=4,
                               schedule="gpipe"),
            )
        }
        assert len(digests) == 7


class TestSteadyRearm:
    """Each point gets its own steady-state detector: nothing converged at
    one point or layout carries into the next."""

    def test_same_hybrid_point_twice_is_identical(self):
        # regression: a detector shared across a study's points used to
        # carry its converged window into the re-run, which then stopped
        # after one simulated step (1/9 instead of 3/7)
        cfg = StudyConfig(
            jitter_sigma=0.0, measure_steps=10,
            layout=ParallelLayout(pp=2, microbatches=4),
        )
        study = ScalingStudy(scenario_by_name("MPI-Opt"), cfg)
        first = study.run_point(16)
        second = study.run_point(16)
        assert point_payload(second) == point_payload(first)
        assert (first.simulated_steps, first.extrapolated_steps) == (3, 7)

    def test_executor_rearms_on_layout_change(self):
        # a tolerance wide enough that a window straddling two layouts
        # would (wrongly) pass: without the re-arm, point B would stop
        # after one simulated step and extrapolate a mean polluted by
        # layout A's converged window
        cfg = StudyConfig(
            jitter_sigma=0.0, measure_steps=10,
            steady_window=3, steady_rel_tol=0.9,
        )
        shared = HybridExecutor(ScalingStudy(scenario_by_name("MPI-Opt"), cfg))
        a = shared.run(16, ParallelLayout(pp=2, microbatches=4))
        assert a.extrapolated_steps > 0  # converged early
        b = shared.run(16, ParallelLayout(pp=4, microbatches=8))
        fresh = HybridExecutor(
            ScalingStudy(scenario_by_name("MPI-Opt"), cfg)
        ).run(16, ParallelLayout(pp=4, microbatches=8))
        assert b.simulated_steps >= cfg.steady_window
        assert b.step_time == fresh.step_time
        assert b.step_time != a.step_time


class TestHybridExecution:
    def test_degenerate_layout_matches_pure_dp(self):
        scn = scenario_by_name("MPI-Opt")
        pure = ScalingStudy(scn, StudyConfig()).run_point(8)
        explicit = ScalingStudy(
            scn, StudyConfig(layout=ParallelLayout(dp=8))
        ).run_point(8)
        assert explicit.parallelism is None  # routed through the dp path
        assert explicit.step_time == pure.step_time

    def test_parallelism_report_shape(self):
        scn = scenario_by_name("MPI-Opt")
        point = ScalingStudy(
            scn,
            StudyConfig(layout=ParallelLayout(tp=2, pp=2, microbatches=4)),
        ).run_point(16)
        par = point.parallelism
        assert par["dp"] == 4 and par["tp"] == 2 and par["pp"] == 2
        assert par["bubble_fraction"] == pytest.approx(1 / 5)
        assert par["tp_comm_time"] > 0
        assert par["pp_hop_time"] > 0
        assert len(par["stage_bounds"]) == 2

    def test_hybrid_rejects_fault_plans(self):
        from repro.faults import FaultPlan, RankFailure

        study = ScalingStudy(
            scenario_by_name("MPI-Opt"),
            StudyConfig(layout=ParallelLayout(tp=2)),
            fault_plan=FaultPlan(seed=1, faults=[RankFailure(rank=0,
                                                             time=1.0)]),
        )
        with pytest.raises(ConfigError, match="fault plans"):
            study.run_point(8)

    def test_oom_layout_rejected(self):
        # GPipe holds every microbatch live; a huge per-replica batch on
        # one stage must trip the simulated-OOM check
        study = ScalingStudy(
            scenario_by_name("MPI-Opt"),
            StudyConfig(
                batch_per_gpu=512,
                layout=ParallelLayout(pp=2, microbatches=2,
                                      schedule="gpipe"),
            ),
        )
        with pytest.raises(ConfigError, match="simulated OOM"):
            study.run_point(8)


class TestTrainerLayout:
    @staticmethod
    def _parts():
        from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
        from repro.hardware import Cluster
        from repro.horovod import HorovodConfig, HorovodEngine
        from repro.models import EDSR as EDSRModel, EDSR_TINY
        from repro.mpi import MpiWorld, Mv2Config, WorldSpec
        from repro.mpi.process import SingletonDevicePolicy
        from repro.sim import Environment

        cluster = Cluster(Environment(), LASSEN, num_nodes=1)
        spec = WorldSpec(
            num_ranks=4, policy=SingletonDevicePolicy(),
            config=Mv2Config(mv2_visible_devices="all",
                             registration_cache=True))
        engine = HorovodEngine(
            MpiWorld(cluster, spec).communicator(),
            HorovodConfig(cycle_time_s=2e-3))
        dataset = SRDataset(
            SyntheticDiv2k(height=24, width=24, seed=7), split="train",
            degradation=DegradationConfig(scale=2))
        factory = (lambda rank:
                   EDSRModel(EDSR_TINY, rng=np.random.default_rng(50 + rank)))
        return factory, engine, dataset

    def test_functional_trainer_rejects_model_parallel(self):
        from repro.trainer import DistributedTrainer

        factory, engine, dataset = self._parts()
        with pytest.raises(ConfigError, match="data-parallel only"):
            DistributedTrainer(
                factory, engine, dataset, batch_per_rank=1, lr_patch=8,
                layout=ParallelLayout(tp=2))

    def test_functional_trainer_accepts_pure_dp_layout(self):
        from repro.trainer import DistributedTrainer

        factory, engine, dataset = self._parts()
        trainer = DistributedTrainer(
            factory, engine, dataset, batch_per_rank=1, lr_patch=8,
            layout=ParallelLayout())
        assert trainer.layout.is_pure_dp


class TestFastpathStats:
    def test_stats_surface(self):
        from repro.sim import enable_fastpath, fastpath_stats
        from repro.mpi.collectives.allreduce import allreduce_timing
        from tests.test_mpi_collectives import make_world

        world = make_world(4)
        assert fastpath_stats(world) is None  # nothing attached yet
        session = enable_fastpath(world)
        assert session is not None
        for _ in range(3):
            allreduce_timing(world.coster, list(range(4)), 4 * MIB,
                             algorithm="ring")
        stats = fastpath_stats(world)
        assert stats == session.stats()
        assert stats["replayed_transfers"] > 0


class TestPlanner:
    def test_config_validation(self):
        with pytest.raises(ConfigError, match="ranks"):
            PlannerConfig(ranks=1)
        with pytest.raises(ConfigError, match="engine_mode"):
            PlannerConfig(ranks=16, engine_mode="turbo")
        with pytest.raises(ConfigError, match="schedule"):
            PlannerConfig(ranks=16, schedules=("zigzag",))
        with pytest.raises(ConfigError, match="microbatches"):
            PlannerConfig(ranks=16, microbatches=())

    def test_enumeration_rules(self):
        config = PlannerConfig(ranks=16)
        layouts = enumerate_layouts(config)
        assert layouts[0].is_pure_dp  # the baseline leads
        for layout in layouts:
            assert layout.dp * layout.tp * layout.pp == 16
            assert 4 % layout.tp == 0  # slices a Lassen node
            assert model_width(EDSR) % layout.tp == 0
        # tp=3 never appears (neither node nor width divisible)
        assert all(l.tp != 3 for l in layouts)

    def test_plan_deterministic_across_jobs_and_cache(self, tmp_path):
        from repro.perf import ResultCache

        config = PlannerConfig(ranks=16, max_pp=2, microbatches=(4,))
        _PLAN_MEMO.clear()
        serial = plan_hybrid(config, jobs=1, use_memo=False)
        fanned = plan_hybrid(config, jobs=2, use_memo=False)
        cache = ResultCache(str(tmp_path))
        cold = plan_hybrid(config, jobs=1, cache=cache, use_memo=False)
        warm = plan_hybrid(config, jobs=1, cache=cache, use_memo=False)
        blobs = {
            json.dumps(r, sort_keys=True)
            for r in (serial, fanned, cold, warm)
        }
        assert len(blobs) == 1  # byte-identical
        _PLAN_MEMO.clear()

    def test_plan_memo_round_trips(self):
        config = PlannerConfig(ranks=8, max_pp=2, microbatches=(4,))
        _PLAN_MEMO.clear()
        first = plan_hybrid(config)
        second = plan_hybrid(config)
        assert first == second
        assert first is not second  # defensive copies, not shared state
        _PLAN_MEMO.clear()

    def test_plan_report_shape(self):
        config = PlannerConfig(ranks=16, max_pp=2, microbatches=(4,))
        _PLAN_MEMO.clear()
        report = plan_hybrid(config)
        assert report["kind"] == "hybrid-plan"
        assert report["best"] == report["points"][0]
        assert report["best_pure_dp"] is not None
        assert report["best_hybrid"] is not None
        assert report["hybrid_speedup"] > 0
        times = [row["step_time"] for row in report["points"]]
        assert times == sorted(times)
        assert report["steps_to_train"] * report["global_batch"] >= 240000
        _PLAN_MEMO.clear()

    def test_fast_and_exact_plans_agree(self):
        # the two engines must produce identical layout economics; only
        # the digest (which records the mode) may differ
        config = PlannerConfig(ranks=8, max_pp=2, microbatches=(4,))
        _PLAN_MEMO.clear()
        fast = plan_hybrid(config, use_memo=False)
        exact = plan_hybrid(
            PlannerConfig(ranks=8, max_pp=2, microbatches=(4,),
                          engine_mode="exact"),
            use_memo=False,
        )
        assert fast["digest"] != exact["digest"]
        fast_rows = json.dumps(fast["points"], sort_keys=True)
        exact_rows = json.dumps(exact["points"], sort_keys=True)
        assert fast_rows == exact_rows
        _PLAN_MEMO.clear()
