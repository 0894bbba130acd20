"""Communicator facade: functional semantics + simulated timing.

The simulation runs all ranks lock-step in one Python process (bulk-
synchronous SPMD): a collective call receives *every* rank's buffer at
once, performs the real numpy reduction (functional mode), and obtains the
operation's simulated duration from the algorithm engines.

Profilers subscribe as observers — this is the seam ``hvprof`` hooks into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.comm.api import BaseCommunicator
from repro.cuda.memory import DeviceAllocation
from repro.errors import MpiError
from repro.hardware.cluster import Cluster
from repro.mpi.collectives import (
    CollectiveTiming,
    ExecutionMode,
    StepCoster,
    allgather_timing,
    allreduce_timing,
    alltoall_timing,
    barrier_timing,
    bcast_timing,
    gather_timing,
    reduce_scatter_timing,
    reduce_timing,
    scatter_timing,
)
from repro.mpi.datatypes import Datatype, ReduceOp
from repro.mpi.process import RankContext, WorldSpec, build_world
from repro.mpi.transports import TransportModel


@dataclass
class GpuBuffer:
    """A (possibly virtual) device buffer participating in collectives.

    ``buffer_id`` is the registration-cache / IPC identity: Horovod's fusion
    buffer keeps one id across training steps, which is what makes the
    registration cache effective.  ``data`` is present in functional mode
    and ``None`` in performance mode.
    """

    nbytes: int
    dtype: Datatype = Datatype.FLOAT32
    data: Optional[np.ndarray] = None
    name: str = ""
    buffer_id: int = field(default_factory=lambda: next(DeviceAllocation._ids))

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise MpiError(f"buffer size must be >= 0, got {self.nbytes}")
        if self.data is not None:
            actual = self.data.size * self.data.itemsize
            if actual != self.nbytes:
                raise MpiError(
                    f"buffer {self.name!r}: data is {actual}B but nbytes={self.nbytes}"
                )

    @classmethod
    def from_array(cls, array: np.ndarray, name: str = "") -> "GpuBuffer":
        return cls(
            nbytes=array.size * array.itemsize,
            dtype=Datatype.from_numpy(array.dtype),
            data=array,
            name=name,
        )

    @classmethod
    def virtual(
        cls, nbytes: int, dtype: Datatype = Datatype.FLOAT32, name: str = ""
    ) -> "GpuBuffer":
        return cls(nbytes=nbytes, dtype=dtype, name=name)

    @property
    def elements(self) -> int:
        return self.nbytes // self.dtype.size


def apply_allreduce(
    buffers: Sequence[GpuBuffer], op: ReduceOp, *, average: bool = False
) -> None:
    """Functional-mode allreduce arithmetic (shared by MPI and NCCL backends)."""
    datas = [b.data for b in buffers]
    if all(d is None for d in datas):
        return
    if any(d is None for d in datas):
        raise MpiError("mixed functional/virtual buffers in one allreduce")
    if average and op is not ReduceOp.SUM:
        raise MpiError("average=True requires ReduceOp.SUM")
    reduced = op.reduce([d for d in datas])
    if average:
        reduced = reduced / len(datas)
    for d in datas:
        np.copyto(d, reduced.astype(d.dtype, copy=False))


def apply_bcast(buffers: Sequence[GpuBuffer], root_index: int) -> None:
    """Functional-mode bcast (shared by MPI and NCCL backends)."""
    root_data = buffers[root_index].data
    if root_data is None:
        return
    for i, b in enumerate(buffers):
        if i == root_index:
            continue
        if b.data is None:
            raise MpiError("mixed functional/virtual buffers in one bcast")
        np.copyto(b.data, root_data)


class MpiWorld:
    """Owns the ranks, transport model, and timing engine for one job."""

    backend_name = "mpi"

    def __init__(
        self,
        cluster: Cluster,
        spec: WorldSpec,
        *,
        mode: ExecutionMode = ExecutionMode.ANALYTIC,
        faults=None,
        retry=None,
    ):
        self.cluster = cluster
        self.spec = spec
        self.ranks: list[RankContext] = build_world(cluster, spec)
        self.transport = TransportModel(
            cluster, spec.config, self.ranks, faults=faults, retry=retry
        )
        self.coster = StepCoster(self.transport, mode)
        self.mode = mode
        self.faults = faults

    @property
    def size(self) -> int:
        return len(self.ranks)

    def communicator(self) -> "Communicator":
        return Communicator(self, [r.rank for r in self.ranks])

    def regcache_stats(self) -> dict[str, float]:
        return self.transport.regcache_stats()


class Communicator(BaseCommunicator):
    """MPI communicator over a subset of world ranks (lock-step SPMD API)."""

    error = MpiError

    def split_by_node(self) -> list["Communicator"]:
        """One sub-communicator per node (like MPI_Comm_split_type)."""
        by_node: dict[int, list[int]] = {}
        for r in self.ranks:
            by_node.setdefault(self.world.transport.ranks[r].node_id, []).append(r)
        return [Communicator(self.world, g) for _, g in sorted(by_node.items())]

    # -- internal ------------------------------------------------------------
    def _buffer_ids(self, buffers: Sequence[GpuBuffer]) -> dict[int, int]:
        return {rank: buf.buffer_id for rank, buf in zip(self.ranks, buffers)}

    def _begin(self) -> None:
        self.world.transport.begin_collective()

    # -- collectives --------------------------------------------------------------
    def allreduce(
        self,
        buffers: Sequence[GpuBuffer],
        op: ReduceOp = ReduceOp.SUM,
        *,
        average: bool = False,
        algorithm: str | None = None,
    ) -> CollectiveTiming:
        """Element-wise reduce across ranks; result replaces each buffer's data."""
        nbytes = self._validate(buffers)
        self._begin()
        apply_allreduce(buffers, op, average=average)
        timing = allreduce_timing(
            self.world.coster,
            self.ranks,
            nbytes,
            buffer_ids=self._buffer_ids(buffers),
            algorithm=self._route(nbytes, algorithm),
            dtype_bytes=buffers[0].dtype.size,
        )
        self._notify(timing)
        return timing

    def bcast(
        self, buffers: Sequence[GpuBuffer], *, root_index: int = 0
    ) -> CollectiveTiming:
        """Copy the root's data to all ranks."""
        nbytes = self._validate(buffers)
        self._begin()
        apply_bcast(buffers, root_index)
        timing = bcast_timing(
            self.world.coster,
            self.ranks,
            nbytes,
            root=self.ranks[root_index],
            buffer_ids=self._buffer_ids(buffers),
        )
        self._notify(timing)
        return timing

    def allgather(
        self, buffers: Sequence[GpuBuffer]
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Gather every rank's data to all ranks."""
        nbytes = self._validate(buffers)
        self._begin()
        datas = [b.data for b in buffers]
        gathered = None
        if all(d is not None for d in datas):
            gathered = [d.copy() for d in datas]
        timing = allgather_timing(
            self.world.coster,
            self.ranks,
            nbytes,
            buffer_ids=self._buffer_ids(buffers),
            dtype_bytes=buffers[0].dtype.size,
        )
        self._notify(timing)
        return gathered, timing

    def reduce_scatter(
        self, buffers: Sequence[GpuBuffer], op: ReduceOp = ReduceOp.SUM
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Reduce every rank's full vector, scatter one shard per rank.

        Each buffer holds the full input; rank i ends with the i-th
        ``nbytes / size`` shard of the element-wise reduction (the
        reduce-scatter phase of the ring allreduce run standalone).
        """
        nbytes = self._validate(buffers)
        if self.size > 1 and nbytes % self.size:
            raise MpiError(
                f"reduce_scatter needs nbytes divisible by {self.size} "
                f"ranks, got {nbytes}"
            )
        self._begin()
        datas = [b.data for b in buffers]
        scattered = None
        if all(d is not None for d in datas):
            reduced = op.reduce([d for d in datas])
            if self.size and reduced.size % self.size == 0:
                scattered = [c.copy() for c in np.split(reduced, self.size)]
        timing = reduce_scatter_timing(
            self.world.coster,
            self.ranks,
            nbytes // self.size if self.size else nbytes,
            buffer_ids=self._buffer_ids(buffers),
            dtype_bytes=buffers[0].dtype.size,
        )
        self._notify(timing)
        return scattered, timing

    def reduce(
        self,
        buffers: Sequence[GpuBuffer],
        op: ReduceOp = ReduceOp.SUM,
        *,
        root_index: int = 0,
    ) -> CollectiveTiming:
        nbytes = self._validate(buffers)
        self._begin()
        datas = [b.data for b in buffers]
        if all(d is not None for d in datas):
            reduced = op.reduce([d for d in datas])
            np.copyto(buffers[root_index].data, reduced)
        timing = reduce_timing(
            self.world.coster,
            self.ranks,
            nbytes,
            root=self.ranks[root_index],
            buffer_ids=self._buffer_ids(buffers),
        )
        self._notify(timing)
        return timing

    def barrier(self) -> CollectiveTiming:
        timing = barrier_timing(self.world.coster, self.ranks)
        self._notify(timing)
        return timing

    def gather(
        self, buffers: Sequence[GpuBuffer], *, root_index: int = 0
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Collect every rank's buffer at the root."""
        nbytes = self._validate(buffers)
        self._begin()
        datas = [b.data for b in buffers]
        gathered = [d.copy() for d in datas] if all(
            d is not None for d in datas
        ) else None
        timing = gather_timing(
            self.world.coster, self.ranks, nbytes, root=self.ranks[root_index]
        )
        self._notify(timing)
        return gathered, timing

    def scatter(
        self,
        blocks: Sequence[np.ndarray] | None,
        buffers: Sequence[GpuBuffer],
        *,
        root_index: int = 0,
    ) -> CollectiveTiming:
        """Distribute the root's per-rank blocks into each rank's buffer."""
        nbytes = self._validate(buffers)
        self._begin()
        if blocks is not None:
            if len(blocks) != self.size:
                raise MpiError(
                    f"scatter needs {self.size} blocks, got {len(blocks)}"
                )
            for block, buf in zip(blocks, buffers):
                if buf.data is not None:
                    np.copyto(buf.data, block)
        timing = scatter_timing(
            self.world.coster, self.ranks, nbytes, root=self.ranks[root_index]
        )
        self._notify(timing)
        return timing

    def alltoall(self, nbytes_per_pair: int) -> CollectiveTiming:
        """Timing-only alltoall (no DL-training use; completeness of the
        MPI surface for protocol studies)."""
        self._begin()
        timing = alltoall_timing(self.world.coster, self.ranks, nbytes_per_pair)
        self._notify(timing)
        return timing
