"""The hierarchical two-level collective backend.

Composes the split Laanait et al. (arXiv:1909.11150) exploit on NVLink-dense
nodes: an intra-node NVLink reduce-scatter, an inter-node IB allreduce over
the per-GPU shards, and an intra-node broadcast (allgather of the reduced
shards).  Each node's g GPUs therefore drive the network with 1/g-sized
shards concurrently through the shared HCA, so the inter-node phase moves
``2n(nodes-1)/nodes`` bytes at IB rate while the full-message hops stay on
NVLink — which is why this backend beats a flat ring on multi-node worlds
once messages are bandwidth-bound (>= ~1 MB).

Analytic envelope only (like the NCCL backend): per-phase α-β terms using
the NCCL protocol constants for link efficiencies and step latencies.
Functional semantics are the shared lock-step helpers, and the
:class:`~repro.faults.FaultInjector` degrades the NVLink/IB phases exactly
as it does the other backends' cost envelopes.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.comm.api import BaseCommunicator
from repro.errors import CommError
from repro.hardware.links import LinkKind
from repro.mpi.collectives.base import CollectiveTiming, ExecutionMode
from repro.mpi.comm import GpuBuffer, apply_allreduce, apply_bcast
from repro.mpi.datatypes import ReduceOp
from repro.nccl.communicator import NcclWorld, hop_penalty

#: the one algorithm this backend implements
ALGORITHM = "hier-2level"


class HierarchicalCommunicator(BaseCommunicator):
    """Intra-node reduce-scatter + inter-node allreduce + intra broadcast."""

    error = CommError

    # -- topology -----------------------------------------------------------
    def _node_groups(self) -> list[list[int]]:
        gpn = self.world.cluster.gpus_per_node
        by_node: dict[int, list[int]] = {}
        for r in sorted(self.ranks):
            by_node.setdefault(r // gpn, []).append(r)
        return [g for _, g in sorted(by_node.items())]

    # -- link environment (fault-aware) -------------------------------------
    def _link_env(self, now: float) -> tuple[float, float, float, float]:
        """(nv_bw, nv_alpha, ib_bw, ib_alpha) at simulation time ``now``."""
        cluster = self.world.cluster
        proto = self.world.protocol
        nv_bw = cluster.spec.node.nvlink_gpu_gpu.bandwidth * proto.nvlink_efficiency
        ib_bw = cluster.spec.ib.bandwidth * proto.ib_efficiency
        nv_alpha = proto.intra_step_latency_s
        ib_alpha = proto.inter_step_latency_s
        faults = self.world.faults
        if faults is not None:
            nv_factor, nv_extra = faults.link_state(LinkKind.NVLINK_P2P, now)
            ib_factor, ib_extra = faults.link_state(LinkKind.IB, now)
            nv_bw = nv_bw * nv_factor if nv_factor > 0 else float("inf")
            ib_bw = ib_bw * ib_factor if ib_factor > 0 else float("inf")
            if nv_factor <= 0 or ib_factor <= 0:
                raise CommError("link fault zeroed bandwidth; cannot make progress")
            nv_alpha += nv_extra
            ib_alpha += ib_extra
        return nv_bw, nv_alpha, ib_bw, ib_alpha

    def _message_delay(self, groups: list[list[int]], now: float, ib_bw: float, ib_alpha: float) -> float:
        """Message-fault penalty over the inter-node leader ring."""
        faults = self.world.faults
        if faults is None or len(groups) <= 1:
            return 0.0
        leaders = [g[0] for g in groups]
        return hop_penalty(
            faults, zip(leaders, leaders[1:] + leaders[:1]), now,
            ib_alpha + self.world.protocol.chunk_bytes / ib_bw,
            ring="leader-ring", detail="severed leader-ring hop",
        )

    # -- timing model -------------------------------------------------------
    def _allreduce_segments(self, nbytes: int) -> dict[str, float]:
        groups = self._node_groups()
        g = max(len(grp) for grp in groups)
        nodes = len(groups)
        nv_bw, nv_alpha, ib_bw, ib_alpha = self._link_env(self.total_comm_time)
        segments: dict[str, float] = {}
        if g > 1:
            intra = (g - 1) * nv_alpha + (g - 1) / g * nbytes / nv_bw
            segments["intra_reduce_scatter"] = intra
        if nodes > 1:
            inter = (
                2 * (nodes - 1) * ib_alpha
                + 2 * nbytes * (nodes - 1) / (nodes * ib_bw)
            )
            inter += self._message_delay(groups, self.total_comm_time, ib_bw, ib_alpha)
            segments["inter_allreduce"] = inter
        if g > 1:
            segments["intra_broadcast"] = (
                (g - 1) * nv_alpha + (g - 1) / g * nbytes / nv_bw
            )
        return segments

    def _allgather_segments(self, nbytes_per_rank: int) -> dict[str, float]:
        """Two-level allgather: intra gather to the leader, leader-ring
        exchange over IB, then an intra broadcast of the remote portion."""
        groups = self._node_groups()
        g = max(len(grp) for grp in groups)
        nodes = len(groups)
        nv_bw, nv_alpha, ib_bw, ib_alpha = self._link_env(self.total_comm_time)
        segments: dict[str, float] = {}
        if g > 1:
            segments["intra_gather"] = (
                (g - 1) * nv_alpha + (g - 1) * nbytes_per_rank / nv_bw
            )
        if nodes > 1:
            inter = (
                (nodes - 1) * ib_alpha
                + (nodes - 1) * g * nbytes_per_rank / ib_bw
            )
            inter += self._message_delay(groups, self.total_comm_time, ib_bw, ib_alpha)
            segments["inter_allgather"] = inter
            remote = (nodes - 1) * g * nbytes_per_rank
            if g > 1:
                segments["intra_broadcast"] = (
                    math.ceil(math.log2(g)) * nv_alpha + remote / nv_bw
                )
        return segments

    def _reduce_scatter_segments(self, nbytes_per_rank: int) -> dict[str, float]:
        """Two-level reduce-scatter: the time-reverse of the allgather.

        Combine the remote portions node-locally, exchange reduced partials
        over the leader ring, then scatter each rank's shard off the leader
        — the same bytes as :meth:`_allgather_segments` traverse the same
        links in the opposite direction, so the envelope is symmetric (the
        standard allgather/reduce-scatter duality).
        """
        groups = self._node_groups()
        g = max(len(grp) for grp in groups)
        nodes = len(groups)
        nv_bw, nv_alpha, ib_bw, ib_alpha = self._link_env(self.total_comm_time)
        segments: dict[str, float] = {}
        if nodes > 1:
            remote = (nodes - 1) * g * nbytes_per_rank
            if g > 1:
                segments["intra_reduce"] = (
                    math.ceil(math.log2(g)) * nv_alpha + remote / nv_bw
                )
            inter = (
                (nodes - 1) * ib_alpha
                + (nodes - 1) * g * nbytes_per_rank / ib_bw
            )
            inter += self._message_delay(groups, self.total_comm_time, ib_bw, ib_alpha)
            segments["inter_reduce_scatter"] = inter
        if g > 1:
            segments["intra_scatter"] = (
                (g - 1) * nv_alpha + (g - 1) * nbytes_per_rank / nv_bw
            )
        return segments

    def _bcast_segments(self, nbytes: int) -> dict[str, float]:
        groups = self._node_groups()
        g = max(len(grp) for grp in groups)
        nodes = len(groups)
        nv_bw, nv_alpha, ib_bw, ib_alpha = self._link_env(self.total_comm_time)
        segments: dict[str, float] = {}
        if nodes > 1:
            # pipelined chain to the other node leaders over IB
            inter = (nodes - 1) * ib_alpha + nbytes / ib_bw
            inter += self._message_delay(groups, self.total_comm_time, ib_bw, ib_alpha)
            segments["inter_broadcast"] = inter
        if g > 1:
            segments["intra_broadcast"] = (
                math.ceil(math.log2(g)) * nv_alpha + nbytes / nv_bw
            )
        return segments

    # -- collective API ------------------------------------------------------
    def allreduce(
        self,
        buffers: Sequence[GpuBuffer],
        op: ReduceOp = ReduceOp.SUM,
        *,
        average: bool = False,
        algorithm: str | None = None,
    ) -> CollectiveTiming:
        nbytes = self._validate(buffers)
        algorithm = self._route(nbytes, algorithm)
        if algorithm not in (None, ALGORITHM):
            raise CommError(
                f"hierarchical backend implements only {ALGORITHM!r}, "
                f"got {algorithm!r}"
            )
        apply_allreduce(buffers, op, average=average)
        segments = (
            self._allreduce_segments(nbytes)
            if self.size > 1 and nbytes > 0
            else {}
        )
        timing = CollectiveTiming(
            "allreduce",
            ALGORITHM,
            nbytes,
            self.size,
            sum(segments.values()),
            ExecutionMode.ANALYTIC,
            segments,
        )
        self._notify(timing)
        return timing

    def allgather(
        self, buffers: Sequence[GpuBuffer]
    ) -> tuple[list | None, CollectiveTiming]:
        """Gather every rank's data to all ranks (two-level envelope)."""
        nbytes = self._validate(buffers)
        datas = [b.data for b in buffers]
        gathered = None
        if all(d is not None for d in datas):
            gathered = [d.copy() for d in datas]
        segments = (
            self._allgather_segments(nbytes)
            if self.size > 1 and nbytes > 0
            else {}
        )
        timing = CollectiveTiming(
            "allgather",
            ALGORITHM,
            nbytes,
            self.size,
            sum(segments.values()),
            ExecutionMode.ANALYTIC,
            segments,
        )
        self._notify(timing)
        return gathered, timing

    def reduce_scatter(
        self, buffers: Sequence[GpuBuffer], op: ReduceOp = ReduceOp.SUM
    ) -> tuple[list | None, CollectiveTiming]:
        """Reduce every rank's full vector, scatter one shard per rank.

        Each buffer holds the full input vector; the timing covers each
        rank ending with its ``nbytes / size`` reduced shard (the dual of
        :meth:`allgather`, and the collective tensor parallelism uses to
        combine sharded activation gradients).
        """
        nbytes = self._validate(buffers)
        if self.size > 1 and nbytes % self.size:
            raise CommError(
                f"reduce_scatter needs nbytes divisible by {self.size} "
                f"ranks, got {nbytes}"
            )
        datas = [b.data for b in buffers]
        scattered = None
        if all(d is not None for d in datas) and self.size > 0:
            import numpy as np

            reduced = op.reduce([d for d in datas])
            if reduced.size % self.size == 0:
                scattered = [c.copy() for c in np.split(reduced, self.size)]
        per_rank = nbytes // self.size if self.size else nbytes
        segments = (
            self._reduce_scatter_segments(per_rank)
            if self.size > 1 and nbytes > 0
            else {}
        )
        timing = CollectiveTiming(
            "reduce_scatter",
            ALGORITHM,
            per_rank,
            self.size,
            sum(segments.values()),
            ExecutionMode.ANALYTIC,
            segments,
        )
        self._notify(timing)
        return scattered, timing

    def bcast(
        self, buffers: Sequence[GpuBuffer], *, root_index: int = 0
    ) -> CollectiveTiming:
        nbytes = self._validate(buffers)
        apply_bcast(buffers, root_index)
        segments = (
            self._bcast_segments(nbytes) if self.size > 1 and nbytes > 0 else {}
        )
        timing = CollectiveTiming(
            "bcast",
            ALGORITHM,
            nbytes,
            self.size,
            sum(segments.values()),
            ExecutionMode.ANALYTIC,
            segments,
        )
        self._notify(timing)
        return timing

    def barrier(self) -> CollectiveTiming:
        p = self.size
        _, _, _, ib_alpha = self._link_env(self.total_comm_time)
        time = math.ceil(math.log2(max(p, 2))) * ib_alpha if p > 1 else 0.0
        timing = CollectiveTiming(
            "barrier", "hier", 0, p, time, ExecutionMode.ANALYTIC
        )
        self._notify(timing)
        return timing


class HierarchicalWorld(NcclWorld):
    """Two-level backend job state: cluster + protocol envelope + faults."""

    backend_name = "hierarchical"
    communicator_class = HierarchicalCommunicator
