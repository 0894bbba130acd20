"""The communicator contract every backend shares.

:class:`BaseCommunicator` holds what the MPI, NCCL and hierarchical
communicators have in common: membership (``ranks``/``size``), elastic
``restrict``/``reform`` that carry observers and the selection table over,
buffer validation, and per-op accounting (``total_comm_time``,
``op_count``, observer notification — the seam hvprof and the trace
exporter hook into).  It also holds the
:class:`~repro.comm.selection.SelectionTable` taken when the communicator
was built and resolves ``allreduce(algorithm=None)`` through it; with no
table the backend heuristic decides.  Each subclass keeps its own
collective bodies (the timing models) and names the error type it raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.comm.selection import SelectionTable
from repro.errors import CommError

if TYPE_CHECKING:
    from repro.mpi.collectives.base import CollectiveTiming

#: observer(timing, backend_name), called once per executed collective
CollectiveObserver = Callable[["CollectiveTiming", str], None]


class BaseCommunicator:
    """Membership, elasticity, validation and accounting of a backend."""

    #: the error type this backend raises
    error: type[Exception] = CommError

    def __init__(self, world, ranks: Sequence[int], *,
                 table: SelectionTable | None = None):
        self.world = world
        self.ranks = list(ranks)
        self.table = table
        self.observers: list[CollectiveObserver] = []
        self.total_comm_time = 0.0
        self.op_count = 0

    @property
    def size(self) -> int:
        return len(self.ranks)

    def add_observer(self, observer: CollectiveObserver) -> None:
        self.observers.append(observer)

    # -- elasticity ---------------------------------------------------------
    def restrict(self, ranks: Sequence[int]) -> "BaseCommunicator":
        """Sub-communicator on a subset of this communicator's ranks
        (elastic ring shrink after a rank failure)."""
        missing = set(ranks) - set(self.ranks)
        if missing:
            raise self.error(
                f"cannot restrict to ranks {sorted(missing)} not in "
                f"communicator {self.ranks}"
            )
        if not ranks:
            raise self.error("cannot restrict a communicator to zero ranks")
        return self.reform(ranks)

    def reform(self, ranks: Sequence[int]) -> "BaseCommunicator":
        """Communicator over any subset of the *world's* ranks.

        Unlike :meth:`restrict`, the new membership need not be contained
        in this communicator's — an elastic re-grow re-admits a rank that
        was dropped earlier.  Observers and the selection table carry over.
        """
        ranks = list(ranks)
        unknown = {r for r in ranks if not 0 <= r < self.world.size}
        if unknown:
            raise self.error(
                f"cannot form a communicator on ranks {sorted(unknown)} "
                f"outside the {self.world.size}-rank world"
            )
        if not ranks:
            raise self.error("cannot form a communicator over zero ranks")
        sub = type(self)(self.world, ranks, table=self.table)
        sub.observers = list(self.observers)
        return sub

    # -- shared collective plumbing -----------------------------------------
    def _validate(self, buffers) -> int:
        """The one message size of a collective's per-rank buffers."""
        if len(buffers) != self.size:
            raise self.error(
                f"collective needs {self.size} buffers (one per rank), "
                f"got {len(buffers)}"
            )
        sizes = {b.nbytes for b in buffers}
        if len(sizes) != 1:
            raise self.error(
                f"mismatched buffer sizes across ranks: {sorted(sizes)}"
            )
        return sizes.pop()

    def _route(self, nbytes: int, algorithm: str | None) -> str | None:
        """An explicit algorithm wins; otherwise the table's, if any."""
        if algorithm is None and self.table is not None:
            return self.table.lookup(nbytes, self.size)
        return algorithm

    def _notify(self, timing: "CollectiveTiming") -> None:
        self.total_comm_time += timing.time
        self.op_count += 1
        for observer in self.observers:
            observer(timing, self.world.backend_name)


def broadcast_weights(comm, nbytes: int):
    """Charge a weight (re-)broadcast over an existing communicator.

    Used by elastic re-grow: the regrown replica's state is cloned
    functionally, and this prices pushing it over the re-formed ring.
    Returns the backend's CollectiveTiming (zero-op on trivial worlds).
    """
    from repro.mpi.comm import GpuBuffer

    if comm.size <= 1 or nbytes <= 0:
        return None
    return comm.bcast([GpuBuffer.virtual(nbytes) for _ in range(comm.size)])
