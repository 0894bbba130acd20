"""Unified per-op communication accounting record.

Every backend's collectives report a :class:`~repro.mpi.collectives.base.
CollectiveTiming`; observers (hvprof, trace export) normalize it into one
:class:`CommRecord` so the profiler bins, the Chrome trace exporter, and
the selection-table autotuner all consume the same shape regardless of
which backend executed the op.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CommRecord:
    """One executed collective, backend-agnostic.

    Field names are load-bearing: ``profiling.trace_export`` and the
    hvprof reports read ``op``/``backend``/``algorithm``/``nbytes``/
    ``time`` directly.
    """

    op: str
    backend: str
    algorithm: str
    nbytes: int
    time: float
    num_ranks: int = 0
    segments: dict = field(default_factory=dict)

    @classmethod
    def from_timing(cls, timing, backend: str) -> "CommRecord":
        return cls(
            op=timing.op,
            backend=backend,
            algorithm=timing.algorithm,
            nbytes=timing.nbytes,
            time=timing.time,
            num_ranks=getattr(timing, "num_ranks", 0),
            segments=dict(getattr(timing, "segments", None) or {}),
        )
