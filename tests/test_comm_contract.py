"""The communicator contract every backend keeps, and the envelope fault
penalties the NCCL and hierarchical backends charge.

One parametrized suite over ``mpi``/``nccl``/``hierarchical``: membership
(``restrict``/``reform``), each backend's own error type, buffer
validation, per-op observer accounting across elastic re-forms, and
selection-table routing that survives them.  The penalty tests pin the
exact simulated time of a seeded message fault and the exact record a
severed hop writes, so a change to the shared penalty walk that moves a
number or a text fails here.
"""

import pytest

from repro.comm import build_communicator
from repro.comm.selection import (
    SelectionTable,
    clear_active_tables,
    set_active_table,
)
from repro.core import MPI_OPT
from repro.errors import CommError, MpiError, MpiTimeoutError, NcclError
from repro.faults import FaultInjector, FaultPlan, MessageFault, PartitionFault
from repro.faults.domains import Topology
from repro.hardware import LASSEN
from repro.hardware.cluster import build_cluster
from repro.mpi import WorldSpec
from repro.mpi.comm import GpuBuffer
from repro.profiling import Hvprof
from repro.utils.units import KIB, MIB

#: backend -> the error type its communicator raises
ERRORS = {"mpi": MpiError, "nccl": NcclError, "hierarchical": CommError}
BACKENDS = tuple(ERRORS)
#: backend -> an algorithm its heuristic does not pick for 4 KiB on 8 ranks
FORCED = {"mpi": "ring", "nccl": "nccl-tree", "hierarchical": "hier-2level"}


@pytest.fixture(autouse=True)
def _no_active_tables():
    clear_active_tables()
    yield
    clear_active_tables()


def build(backend, num_ranks, **kwargs):
    cluster = build_cluster(LASSEN, num_ranks)
    spec = None
    if backend == "mpi":
        spec = WorldSpec(num_ranks=num_ranks, policy=MPI_OPT.policy,
                         config=MPI_OPT.mv2)
    _world, comm = build_communicator(
        cluster, backend, world_spec=spec, num_ranks=num_ranks, **kwargs
    )
    return comm


def virtual(nbytes, n):
    return [GpuBuffer.virtual(nbytes) for _ in range(n)]


@pytest.mark.parametrize("backend", BACKENDS)
class TestCommunicatorContract:
    def test_restrict_to_subset(self, backend):
        comm = build(backend, 8)
        sub = comm.restrict([0, 2, 5])
        assert sub.ranks == [0, 2, 5]
        assert sub.size == 3
        assert sub.world is comm.world
        assert sub.allreduce(virtual(4 * KIB, 3)).num_ranks == 3

    def test_foreign_rank_and_zero_ranks_raise_backend_error(self, backend):
        comm = build(backend, 8)
        sub = comm.restrict([0, 1, 2, 3])
        error = ERRORS[backend]
        with pytest.raises(error):
            sub.restrict([4])  # in the world, not in this communicator
        with pytest.raises(error):
            comm.restrict([99])
        with pytest.raises(error):
            comm.restrict([])
        with pytest.raises(error):
            comm.reform([8])  # outside the world
        with pytest.raises(error):
            comm.reform([])

    def test_reform_regrows_to_full_world(self, backend):
        comm = build(backend, 8)
        back = comm.restrict([0, 1, 2, 3]).reform(range(8))
        assert back.ranks == list(range(8))
        assert back.size == 8
        assert back.allreduce(virtual(4 * KIB, 8)).num_ranks == 8

    def test_mismatched_buffers_raise_backend_error(self, backend):
        comm = build(backend, 4)
        sizes = [4 * KIB, 4 * KIB, 4 * KIB, 8 * KIB]
        with pytest.raises(ERRORS[backend]):
            comm.allreduce([GpuBuffer.virtual(n) for n in sizes])
        with pytest.raises(ERRORS[backend]):
            comm.allreduce(virtual(4 * KIB, 3))  # one buffer short

    def test_observer_records_each_op_once_after_restrict(self, backend):
        comm = build(backend, 8)
        hv = Hvprof()
        comm.add_observer(hv.observer)
        sub = comm.restrict([0, 1, 2, 3])
        sub.allreduce(virtual(1 * MIB, 4))
        sub.bcast(virtual(1 * MIB, 4))
        assert [r.op for r in hv.records] == ["allreduce", "bcast"]
        assert all(r.backend == backend for r in hv.records)
        assert all(r.num_ranks == 4 for r in hv.records)
        assert (sub.op_count, comm.op_count) == (2, 0)

    def test_active_table_survives_restrict_and_reform(self, backend):
        heuristic = build(backend, 8).allreduce(virtual(4 * KIB, 8)).algorithm
        routed = FORCED[backend]
        set_active_table(SelectionTable(
            backend=backend, byte_edges=(), rank_edges=(),
            algorithms=((routed,),), source="tuned",
        ))
        comm = build(backend, 8)
        sub = comm.restrict([0, 1, 2, 3])
        assert sub.allreduce(virtual(4 * KIB, 4)).algorithm == routed
        back = sub.reform(range(8))
        assert back.allreduce(virtual(4 * KIB, 8)).algorithm == routed
        if backend != "hierarchical":  # it has only the one algorithm
            assert heuristic != routed


# -- message-fault penalties of the analytic envelopes -------------------------

#: exact 16-rank (4-node) 16 MiB allreduce time under the seeded message
#: fault below; pinned, not derived
MESSAGE_FAULT_TIME = {
    "nccl": 0.005507446348733234,
    "hierarchical": 0.0038257292351094752,
}

#: the first severed hop and the detail text of its msg-timeout record when
#: node 2 is partitioned off a 4-node world
SEVERED = {
    "nccl": (7, 8, "16777216B severed ring hop",
             r"^ring hop 7->8 \(16777216B\) path severed"),
    "hierarchical": (4, 8, "severed leader-ring hop",
                     r"^leader-ring hop 4->8 path severed"),
}


@pytest.mark.parametrize("backend", ["nccl", "hierarchical"])
class TestEnvelopeFaultPenalties:
    def test_seeded_message_fault_time_is_pinned(self, backend):
        plan = FaultPlan(
            seed=1, faults=(MessageFault(drop_prob=0.5, delay_s=2e-4),)
        )
        injector = FaultInjector(plan)
        comm = build(backend, 16, faults=injector)
        timing = comm.allreduce(virtual(16 * MIB, 16))
        assert timing.time == MESSAGE_FAULT_TIME[backend]
        # the walk both delayed and dropped hops (one retransmit each)
        kinds = {e.kind for e in injector.trace.events}
        assert {"msg-delay", "msg-drop"} <= kinds
        clean = build(backend, 16).allreduce(virtual(16 * MIB, 16)).time
        assert timing.time > clean

    def test_partition_at_t0_times_out_with_one_record(self, backend):
        plan = FaultPlan(faults=(PartitionFault(nodes=(2,)),))
        injector = FaultInjector(
            plan, topology=Topology.from_spec(LASSEN, num_nodes=4)
        )
        comm = build(backend, 16, faults=injector)
        src, dst, detail, message = SEVERED[backend]
        with pytest.raises(MpiTimeoutError, match=message) as err:
            comm.allreduce(virtual(16 * MIB, 16))
        assert str(err.value).endswith(
            "(partition/switch outage); retry budget (4) exhausted after "
            "0.003500s"
        )
        timeouts = injector.trace.by_kind("msg-timeout")
        assert len(timeouts) == 1
        event = timeouts[0]
        assert (event.time, event.src, event.dst, event.detail) == (
            0.0, src, dst, detail
        )
