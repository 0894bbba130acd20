"""NCCL communicator: ring/tree allreduce timing + functional semantics.

Presents the same lock-step SPMD interface as
:class:`repro.mpi.comm.Communicator` so Horovod can swap backends
(`HOROVOD_GPU_ALLREDUCE=NCCL` vs MPI in the paper's runs).

Fault injection is symmetric with the MPI backend since the ``repro.comm``
refactor: a :class:`~repro.faults.FaultInjector` handed to
:class:`NcclWorld` degrades the cost envelope — link faults scale the
NVLink/IB hop classes (bandwidth and latency), and message faults charge
their delay (plus one deterministic chunk retransmission per drop) against
the inter-node hops of the ring.  The injector is consulted at the
communicator's accumulated comm-stream time, which is the envelope's
analogue of the MPI transport's per-transfer clock.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.comm.api import BaseCommunicator
from repro.errors import NcclError
from repro.hardware.cluster import Cluster
from repro.hardware.links import LinkKind
from repro.mpi.collectives.base import CollectiveTiming, ExecutionMode
from repro.mpi.comm import GpuBuffer, apply_allreduce, apply_bcast
from repro.mpi.datatypes import ReduceOp
from repro.nccl.protocol import DEFAULT_PROTOCOL, NcclProtocol
from repro.nccl.rings import build_ring, ring_bandwidth, ring_hop_latency


def hop_penalty(
    faults, hops, now: float, retransmit_s: float, *,
    ring: str, detail: str, nbytes: int | None = None,
) -> float:
    """Injected message-fault penalty over an envelope's network hops.

    Mirrors the MPI transport's per-message verdicts at envelope
    granularity: each (src, dst) hop is consulted once per collective at
    ``now``; delays accumulate hop by hop, and a drop costs one
    deterministic retransmission (``retransmit_s``, a pipeline chunk).  A
    *severed* hop (partition / switch outage) can never succeed: the
    sender waits out the whole retry ladder, then the collective raises
    :class:`~repro.errors.MpiTimeoutError` after one ``msg-timeout``
    record — surfaced, not a hang.  ``ring`` names the hop in the error,
    ``nbytes`` (if given) its payload, and ``detail`` is the record text.
    """
    delay = 0.0
    for src, dst in hops:
        verdict = faults.message_verdict(src, dst, now)
        delay += verdict.delay_s
        if verdict.severed:
            from repro.errors import MpiTimeoutError
            from repro.faults.plan import RetryPolicy

            retry = RetryPolicy()
            faults.record("msg-timeout", now, src=src, dst=dst, detail=detail)
            payload = "" if nbytes is None else f" ({nbytes}B)"
            raise MpiTimeoutError(
                f"{ring} hop {src}->{dst}{payload} path severed "
                f"(partition/switch outage); retry budget "
                f"({retry.max_retries}) exhausted after "
                f"{retry.ladder_time():.6f}s"
            )
        if verdict.drop:
            delay += retransmit_s
    return delay


class NcclCommunicator(BaseCommunicator):
    """Ring/tree-based collectives with NCCL cost envelope."""

    error = NcclError

    # -- timing models ----------------------------------------------------------
    def _node_count(self) -> int:
        gpn = self.world.cluster.gpus_per_node
        return len({r // gpn for r in self.ranks})

    def _now(self) -> float:
        """The envelope's clock: accumulated time on the comm stream."""
        return self.total_comm_time

    def _link_fault(self, kind: LinkKind) -> tuple[float, float]:
        faults = self.world.faults
        if faults is None:
            return 1.0, 0.0
        return faults.link_state(kind, self._now())

    def _message_delay(self, nbytes: int) -> float:
        """Message-fault penalty over the ring's inter-node hops."""
        faults = self.world.faults
        if faults is None or len(self.ranks) <= 1 or nbytes == 0:
            return 0.0
        cluster = self.world.cluster
        proto = self.world.protocol
        ring = build_ring(cluster, self.ranks)
        hops = [
            (rank, nxt)
            for rank, nxt in zip(ring, ring[1:] + ring[:1])
            if cluster.gpu_ref(rank).node != cluster.gpu_ref(nxt).node
        ]
        ib_bw = cluster.spec.ib.bandwidth * proto.ib_efficiency
        return hop_penalty(
            faults, hops, self._now(),
            proto.inter_step_latency_s + proto.chunk_bytes / ib_bw,
            ring="ring", nbytes=nbytes, detail=f"{nbytes}B severed ring hop",
        )

    def _ring_allreduce_time(self, nbytes: int) -> float:
        p = len(self.ranks)
        proto = self.world.protocol
        if p <= 1 or nbytes == 0:
            return 0.0
        faults = self.world.faults
        if nbytes <= proto.ll_threshold:
            _, extra = self._link_fault(
                LinkKind.IB if self._node_count() > 1 else LinkKind.NVLINK_P2P
            )
            return (
                proto.ll_op_latency_s
                + math.log2(max(p, 2)) * (proto.intra_step_latency_s + extra)
                + self._message_delay(nbytes)
            )
        bw = ring_bandwidth(
            self.world.cluster, self.ranks, proto, faults=faults, now=self._now()
        )
        hop = ring_hop_latency(
            self.world.cluster, self.ranks, proto, faults=faults, now=self._now()
        )
        steps = 2 * (p - 1)
        # chunk pipelining: latency per pipeline stage + bandwidth term
        fill = min(nbytes / p, proto.chunk_bytes) / bw if bw != float("inf") else 0.0
        return (
            steps * (hop + fill)
            + 2 * nbytes * (p - 1) / (p * bw)
            + self._message_delay(nbytes)
        )

    def _tree_allreduce_time(self, nbytes: int) -> float:
        """Double-binary-tree estimate: depth in nodes, full bandwidth."""
        p = len(self.ranks)
        proto = self.world.protocol
        nodes = self._node_count()
        if p <= 1 or nbytes == 0:
            return 0.0
        cluster = self.world.cluster
        ib_factor, ib_extra = self._link_fault(LinkKind.IB)
        nv_factor, nv_extra = self._link_fault(LinkKind.NVLINK_P2P)
        ib_bw = cluster.spec.ib.bandwidth * proto.ib_efficiency * max(ib_factor, 1e-12)
        nv_bw = (
            cluster.spec.node.nvlink_gpu_gpu.bandwidth
            * proto.nvlink_efficiency
            * max(nv_factor, 1e-12)
        )
        depth = math.ceil(math.log2(max(nodes, 2))) + math.ceil(
            math.log2(max(p // max(nodes, 1), 2))
        )
        step_extra = ib_extra if nodes > 1 else nv_extra
        latency = 2 * depth * (proto.inter_step_latency_s + step_extra)
        # reduce + broadcast sweep: 2n over the bottleneck (IB when multi-node)
        bw = ib_bw if nodes > 1 else nv_bw
        return (
            latency
            + 2 * nbytes / bw
            + 2 * depth * (proto.chunk_bytes / bw)
            + self._message_delay(nbytes)
        )

    def _allreduce_time(
        self, nbytes: int, algorithm: str | None = None
    ) -> tuple[float, str]:
        """Auto-select ring vs tree, or honor an explicit override (the
        seam the ``repro.comm`` selection tables route through)."""
        if algorithm in ("ring", "nccl-ring"):
            return self._ring_allreduce_time(nbytes), "nccl-ring"
        if algorithm in ("tree", "nccl-tree"):
            return self._tree_allreduce_time(nbytes), "nccl-tree"
        if algorithm is not None:
            raise NcclError(
                f"unknown NCCL allreduce algorithm {algorithm!r}; "
                f"use 'nccl-ring' or 'nccl-tree'"
            )
        ring = self._ring_allreduce_time(nbytes)
        if self._node_count() >= self.world.protocol.tree_node_threshold:
            tree = self._tree_allreduce_time(nbytes)
            if tree < ring:
                return tree, "nccl-tree"
        return ring, "nccl-ring"

    def _allgather_time(self, nbytes_per_rank: int) -> float:
        """Ring allgather: each rank's block circulates p-1 hops.

        Same envelope family as the ring allreduce, with a single
        bandwidth sweep (``n(p-1)/B`` per rank) and no reduction term —
        sparse gradient payloads use this path.
        """
        p = len(self.ranks)
        proto = self.world.protocol
        if p <= 1 or nbytes_per_rank == 0:
            return 0.0
        faults = self.world.faults
        bw = ring_bandwidth(
            self.world.cluster, self.ranks, proto, faults=faults, now=self._now()
        )
        hop = ring_hop_latency(
            self.world.cluster, self.ranks, proto, faults=faults, now=self._now()
        )
        steps = p - 1
        fill = (
            min(nbytes_per_rank, proto.chunk_bytes) / bw
            if bw != float("inf")
            else 0.0
        )
        return (
            steps * (hop + fill)
            + nbytes_per_rank * (p - 1) / bw
            + self._message_delay(nbytes_per_rank)
        )

    def _bcast_time(self, nbytes: int) -> float:
        p = len(self.ranks)
        proto = self.world.protocol
        if p <= 1 or nbytes == 0:
            return 0.0
        faults = self.world.faults
        bw = ring_bandwidth(
            self.world.cluster, self.ranks, proto, faults=faults, now=self._now()
        )
        hop = ring_hop_latency(
            self.world.cluster, self.ranks, proto, faults=faults, now=self._now()
        )
        # pipelined ring broadcast: n/B + (p-1) pipeline stages
        return (
            nbytes / bw
            + (p - 1) * (hop + proto.chunk_bytes / bw)
            + self._message_delay(nbytes)
        )

    # -- collective API ------------------------------------------------------------
    def allreduce(
        self,
        buffers: Sequence[GpuBuffer],
        op: ReduceOp = ReduceOp.SUM,
        *,
        average: bool = False,
        algorithm: str | None = None,
    ) -> CollectiveTiming:
        nbytes = self._validate(buffers)
        apply_allreduce(buffers, op, average=average)
        time, algo = self._allreduce_time(nbytes, self._route(nbytes, algorithm))
        timing = CollectiveTiming(
            "allreduce", algo, nbytes, self.size, time, ExecutionMode.ANALYTIC
        )
        self._notify(timing)
        return timing

    def allgather(self, buffers: Sequence[GpuBuffer]):
        """Gather every rank's data to all ranks (ring envelope)."""
        nbytes = self._validate(buffers)
        datas = [b.data for b in buffers]
        gathered = None
        if all(d is not None for d in datas):
            gathered = [d.copy() for d in datas]
        timing = CollectiveTiming(
            "allgather",
            "nccl-ring",
            nbytes,
            self.size,
            self._allgather_time(nbytes),
            ExecutionMode.ANALYTIC,
        )
        self._notify(timing)
        return gathered, timing

    def bcast(
        self, buffers: Sequence[GpuBuffer], *, root_index: int = 0
    ) -> CollectiveTiming:
        nbytes = self._validate(buffers)
        apply_bcast(buffers, root_index)
        timing = CollectiveTiming(
            "bcast",
            "nccl-ring",
            nbytes,
            self.size,
            self._bcast_time(nbytes),
            ExecutionMode.ANALYTIC,
        )
        self._notify(timing)
        return timing

    def barrier(self) -> CollectiveTiming:
        p = len(self.ranks)
        proto = self.world.protocol
        time = (
            math.ceil(math.log2(max(p, 2))) * proto.inter_step_latency_s
            if p > 1
            else 0.0
        )
        timing = CollectiveTiming(
            "barrier", "nccl", 0, p, time, ExecutionMode.ANALYTIC
        )
        self._notify(timing)
        return timing


class NcclWorld:
    """NCCL job state: cluster + protocol; visibility policies do not apply.

    The hierarchical backend reuses it with its own communicator class.
    """

    backend_name = "nccl"
    communicator_class = NcclCommunicator

    def __init__(
        self,
        cluster: Cluster,
        num_ranks: int,
        protocol: NcclProtocol = DEFAULT_PROTOCOL,
        *,
        faults=None,
    ):
        error = self.communicator_class.error
        if num_ranks < 1:
            raise error(f"num_ranks must be >= 1, got {num_ranks}")
        if num_ranks > cluster.num_gpus:
            raise error(
                f"{num_ranks} ranks > {cluster.num_gpus} GPUs in cluster"
            )
        self.cluster = cluster
        self.protocol = protocol
        self.num_ranks = num_ranks
        self.faults = faults

    @property
    def size(self) -> int:
        return self.num_ranks

    def communicator(self):
        return self.communicator_class(self, range(self.num_ranks))
