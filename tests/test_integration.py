"""Cross-stack integration tests and failure injection.

These exercise multiple subsystems together: functional training over both
backends, event-mode collectives fed by Horovod, memory-pressure failure
paths, checkpoint/resume of distributed runs, and the Horovod auto-tuner.
"""

import numpy as np
import pytest

from repro.core import MPI_DEFAULT, MPI_OPT, HorovodTuner, ScalingStudy, StudyConfig
from repro.core.tuning import TuningResult
from repro.cuda import CudaRuntime, VisibilityMask
from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
from repro.errors import ConfigError, CudaOutOfMemoryError
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.models import EDSR, EDSR_TINY, get_model_cost
from repro.models.costing import TrainingMemoryModel
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.comm import GpuBuffer
from repro.nccl import NcclWorld
from repro.profiling import Hvprof
from repro.sim import Environment
from repro.trainer import (
    DistributedTrainer,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.units import GIB, MIB


@pytest.fixture(scope="module")
def dataset():
    src = SyntheticDiv2k(height=32, width=32, seed=3)
    return SRDataset(src, split="train", degradation=DegradationConfig(scale=2))


def make_engine(num_gpus=2, scenario=MPI_OPT, mode=ExecutionMode.ANALYTIC):
    cluster = Cluster(Environment(), LASSEN, num_nodes=max(1, num_gpus // 4))
    spec = WorldSpec(num_ranks=num_gpus, policy=scenario.policy,
                     config=scenario.mv2)
    world = MpiWorld(cluster, spec, mode=mode)
    return HorovodEngine(world.communicator(), HorovodConfig(cycle_time_s=1e-3))


class TestBackendParity:
    def test_nccl_and_mpi_functional_training_agree(self, dataset):
        """Same seeds, different backends: the numerics must be identical
        (both compute the same averaged gradients)."""
        losses = {}
        for backend in ("mpi", "nccl"):
            if backend == "mpi":
                engine = make_engine(2)
            else:
                cluster = Cluster(Environment(), LASSEN, num_nodes=1)
                world = NcclWorld(cluster, 2)
                engine = HorovodEngine(
                    world.communicator(), HorovodConfig(cycle_time_s=1e-3)
                )
            trainer = DistributedTrainer(
                lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
                engine, dataset, batch_per_rank=1, lr_patch=8, seed=4,
            )
            result = trainer.train(steps=3)
            losses[backend] = result.losses
        np.testing.assert_allclose(losses["mpi"], losses["nccl"], rtol=1e-6)

    def test_hvprof_attaches_to_both_backends(self):
        """The profiler is backend-agnostic (paper §I: 'agnostic to the DL
        framework, communication backend, and system')."""
        hv = Hvprof()
        engine = make_engine(4)
        engine.comm.add_observer(hv.observer)
        engine.comm.allreduce([GpuBuffer.virtual(1 * MIB) for _ in range(4)])

        cluster = Cluster(Environment(), LASSEN, num_nodes=1)
        nccl = NcclWorld(cluster, 4).communicator()
        nccl.add_observer(hv.observer)
        nccl.allreduce([GpuBuffer.virtual(1 * MIB) for _ in range(4)])

        backends = {r.backend for r in hv.records}
        assert backends == {"mpi", "nccl"}


class TestEventModeIntegration:
    def test_functional_allreduce_through_event_engine(self):
        """Real data + event-driven timing in one call."""
        cluster = Cluster(Environment(), LASSEN, num_nodes=2)
        spec = WorldSpec(num_ranks=8, policy=MPI_OPT.policy, config=MPI_OPT.mv2)
        world = MpiWorld(cluster, spec, mode=ExecutionMode.EVENT)
        comm = world.communicator()
        arrays = [np.full(1024, float(r), dtype=np.float32) for r in range(8)]
        timing = comm.allreduce([GpuBuffer.from_array(a) for a in arrays])
        for a in arrays:
            np.testing.assert_allclose(a, sum(range(8)))
        assert timing.time > 0
        assert timing.mode is ExecutionMode.EVENT

    def test_event_mode_study_point_close_to_analytic(self):
        fast = StudyConfig(measure_steps=1, warmup_steps=0)
        analytic = ScalingStudy(MPI_OPT, fast).run_point(8)
        # event mode through the same study machinery
        from repro.comm import build_communicator
        from repro.hardware.cluster import build_cluster
        from repro.horovod.engine import HorovodEngine as HE

        cluster = build_cluster(LASSEN, 8)
        spec = WorldSpec(num_ranks=8, policy=MPI_OPT.policy, config=MPI_OPT.mv2)
        world, comm = build_communicator(cluster, "mpi", world_spec=spec,
                                         mode=ExecutionMode.EVENT)
        study = ScalingStudy(MPI_OPT, fast)
        engine = HE(comm, fast.horovod)
        stream = study._gradient_stream(analytic.backward_time)
        timing = engine.run_step(stream, backward_time=analytic.backward_time)
        assert timing.comm_finish == pytest.approx(
            analytic.exposed_comm_time + analytic.backward_time, rel=0.6
        )


class TestFailureInjection:
    def test_oom_when_activations_exceed_hbm(self):
        """Driving the CUDA memory model past 16 GB raises with diagnostics."""
        cluster = Cluster(Environment(), LASSEN, num_nodes=1)
        runtime = CudaRuntime(cluster, 0)
        ctx = runtime.create_context(pid=1, mask=VisibilityMask.single(0))
        memory_model = TrainingMemoryModel(get_model_cost("edsr-paper"))
        ctx.malloc(memory_model.fixed_bytes(), tag="params+opt")
        per_image = memory_model.per_image_bytes()
        with pytest.raises(CudaOutOfMemoryError) as excinfo:
            for image in range(200):
                ctx.malloc(per_image, tag="activations")
        assert "activations" in str(excinfo.value)
        # OOM must not corrupt the pool: freeing everything recovers
        ctx.destroy()
        assert cluster.gpu_memory(cluster.gpu_ref(0)).used == 0

    def test_overhead_kernels_trigger_earlier_oom(self):
        """Fig. 6a as a failure mode: remote-process contexts steal the HBM
        that the large-batch run needed."""
        def max_allocs(extra_contexts):
            cluster = Cluster(Environment(), LASSEN, num_nodes=1)
            runtime = CudaRuntime(cluster, 0)
            ctx = runtime.create_context(pid=1, mask=VisibilityMask.single(0))
            for pid in range(2, 2 + extra_contexts):
                other = runtime.create_context(
                    pid=pid, mask=VisibilityMask.all_devices(4)
                )
                other.touch_all_visible()
            count = 0
            try:
                while True:
                    ctx.malloc(1 * GIB, tag="batch")
                    count += 1
            except CudaOutOfMemoryError:
                return count

        assert max_allocs(extra_contexts=3) < max_allocs(extra_contexts=0)

    def test_mismatched_gradient_stream_rejected(self, dataset):
        from repro.errors import HorovodError
        from repro.horovod.fusion import PendingTensor

        engine = make_engine(2)
        bad = PendingTensor("g", 8, data=[np.zeros(2, dtype=np.float32)])
        with pytest.raises(HorovodError):
            engine.run_step([bad])

    def test_study_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            StudyConfig(batch_per_gpu=0)
        with pytest.raises(ConfigError):
            StudyConfig(measure_steps=0)


class TestCheckpointResume:
    def test_distributed_resume_preserves_sync_and_progress(self, dataset, tmp_path):
        engine = make_engine(2)
        factory = lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(80 + rank))
        trainer = DistributedTrainer(
            factory, engine, dataset, batch_per_rank=1, lr_patch=8, seed=9,
        )
        trainer.train(steps=3)
        path = str(tmp_path / "dist.npz")
        save_checkpoint(trainer.models[0], path, step=3)

        engine2 = make_engine(2)
        resumed = DistributedTrainer(
            factory, engine2, dataset, batch_per_rank=1, lr_patch=8, seed=9,
        )
        step = load_checkpoint(resumed.models[0], path)
        assert step == 3
        # re-broadcast rank 0's weights to the other replicas
        from repro.horovod.optimizer import broadcast_parameters

        broadcast_parameters(resumed.models, engine2)
        assert resumed.replicas_in_sync()
        for (_, p1), (_, p2) in zip(
            trainer.models[0].named_parameters(),
            resumed.models[0].named_parameters(),
        ):
            np.testing.assert_array_equal(p1.data, p2.data)
        result = resumed.train(steps=2)
        assert result.steps == 2
        assert resumed.replicas_in_sync()


class TestAutoTuner:
    def test_tuner_beats_stock_cycle_for_default_mpi(self):
        """§II-D tuning: for the EDSR stream on default MVAPICH2 at one
        node, a longer-than-stock cycle (more fusion, fewer staged
        messages) wins."""
        tuner = HorovodTuner(
            MPI_DEFAULT,
            thresholds=(64 * MIB,),
            cycle_times=(3.5e-3, 25e-3),
            base_config=StudyConfig(measure_steps=1),
        )
        result = tuner.tune(num_gpus=4)
        assert isinstance(result, TuningResult)
        assert result.best.cycle_time_s == pytest.approx(25e-3)
        assert result.improvement_over(64 * MIB, 3.5e-3) > 1.02

    def test_tuner_grid_complete(self):
        tuner = HorovodTuner(
            MPI_OPT,
            thresholds=(32 * MIB, 64 * MIB),
            cycle_times=(10e-3, 55e-3),
            base_config=StudyConfig(measure_steps=1),
        )
        result = tuner.tune(num_gpus=4)
        assert len(result.grid) == 4
        assert result.best_images_per_second == max(r for _, _, r in result.grid)

    def test_unknown_grid_point_rejected(self):
        tuner = HorovodTuner(
            MPI_OPT, thresholds=(64 * MIB,), cycle_times=(55e-3,),
            base_config=StudyConfig(measure_steps=1),
        )
        result = tuner.tune(num_gpus=4)
        with pytest.raises(ConfigError):
            result.improvement_over(1, 1.0)
