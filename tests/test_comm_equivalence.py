"""Bit-identity of the unified comm stack with the raw backends.

With no selection table installed, a communicator from
``build_communicator`` must reproduce the raw ``world.communicator()``
timings *exactly* (==, not approx) — same algorithms, same collective
times, same engine step timings — from single-node worlds up to the
paper's 128-node (512-GPU) scale.
"""

import pytest

from repro.comm.registry import build_communicator
from repro.comm.selection import clear_active_tables
from repro.core import MPI_OPT
from repro.hardware import LASSEN
from repro.hardware.cluster import build_cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.horovod.fusion import PendingTensor
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi.comm import GpuBuffer
from repro.nccl import NcclWorld
from repro.utils.units import KIB, MIB

#: 1 node up to the paper's 128-node scale
RANK_COUNTS = (4, 16, 128, 512)
SIZES = (4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB)


@pytest.fixture(autouse=True)
def _no_active_tables():
    clear_active_tables()
    yield
    clear_active_tables()


def make_spec(num_ranks):
    return WorldSpec(num_ranks=num_ranks, policy=MPI_OPT.policy,
                     config=MPI_OPT.mv2)


def raw_comm(backend, num_ranks):
    cluster = build_cluster(LASSEN, num_ranks)
    if backend == "mpi":
        return MpiWorld(cluster, make_spec(num_ranks)).communicator()
    return NcclWorld(cluster, num_ranks).communicator()


def routed_comm(backend, num_ranks):
    cluster = build_cluster(LASSEN, num_ranks)
    spec = make_spec(num_ranks) if backend == "mpi" else None
    _world, comm = build_communicator(
        cluster, backend, world_spec=spec, num_ranks=num_ranks
    )
    return comm


def virtual(nbytes, n):
    return [GpuBuffer.virtual(nbytes) for _ in range(n)]


class TestCollectiveBitIdentity:
    @pytest.mark.parametrize("backend", ["mpi", "nccl"])
    @pytest.mark.parametrize("num_ranks", RANK_COUNTS)
    def test_allreduce_identical_across_sizes(self, backend, num_ranks):
        raw = raw_comm(backend, num_ranks)
        routed = routed_comm(backend, num_ranks)
        for nbytes in SIZES:
            a = raw.allreduce(virtual(nbytes, num_ranks))
            b = routed.allreduce(virtual(nbytes, num_ranks))
            assert b.time == a.time  # bit-identical, not approx
            assert b.algorithm == a.algorithm
            assert b.segments == a.segments

    @pytest.mark.parametrize("backend", ["mpi", "nccl"])
    @pytest.mark.parametrize("num_ranks", (4, 16, 512))
    def test_bcast_and_barrier_identical(self, backend, num_ranks):
        raw = raw_comm(backend, num_ranks)
        routed = routed_comm(backend, num_ranks)
        for nbytes in (64 * KIB, 16 * MIB):
            a = raw.bcast(virtual(nbytes, num_ranks))
            b = routed.bcast(virtual(nbytes, num_ranks))
            assert b.time == a.time
        assert routed.barrier().time == raw.barrier().time

    @pytest.mark.parametrize("num_ranks", (8, 64))
    def test_restricted_ring_stays_identical(self, num_ranks):
        raw = raw_comm("mpi", num_ranks).restrict(range(num_ranks - 1))
        routed = routed_comm("mpi", num_ranks).restrict(range(num_ranks - 1))
        for nbytes in (64 * KIB, 16 * MIB):
            a = raw.allreduce(virtual(nbytes, num_ranks - 1))
            b = routed.allreduce(virtual(nbytes, num_ranks - 1))
            assert b.time == a.time
            assert b.algorithm == a.algorithm


class TestEngineStepIdentity:
    def stream(self):
        return [
            PendingTensor(name=f"grad{i}", nbytes=(i + 1) * 256 * KIB,
                          ready_time=i * 1e-3)
            for i in range(6)
        ]

    @pytest.mark.parametrize("backend", ["mpi", "nccl"])
    @pytest.mark.parametrize("num_ranks", (4, 16))
    def test_step_timing_identical(self, backend, num_ranks):
        config = HorovodConfig(cycle_time_s=1e-3)
        raw = HorovodEngine(raw_comm(backend, num_ranks), config)
        routed = HorovodEngine(routed_comm(backend, num_ranks), config)
        a = raw.run_step(self.stream(), backward_time=5e-3)
        b = routed.run_step(self.stream(), backward_time=5e-3)
        assert b.comm_finish == a.comm_finish
        assert b.coordination_time == a.coordination_time
        assert b.cycles_used == a.cycles_used
        assert [(m.nbytes, m.start, m.finish, m.algorithm)
                for m in b.messages] == \
               [(m.nbytes, m.start, m.finish, m.algorithm)
                for m in a.messages]


class TestStudyIdentity:
    def test_scaling_point_unchanged_by_refactor_seam(self):
        """A study point driven through build_communicator is repeatable
        bit for bit."""
        from repro.core import ScalingStudy, StudyConfig

        config = StudyConfig(measure_steps=2)
        study = ScalingStudy(MPI_OPT, config)
        point = study.run_point(8)
        again = ScalingStudy(MPI_OPT, config).run_point(8)
        assert again.step_time == point.step_time
        assert again.images_per_second == point.images_per_second
