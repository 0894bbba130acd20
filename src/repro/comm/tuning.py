"""Sim-driven autotuner: sweep algorithms per (bytes, ranks) bucket.

MVAPICH2's tuning tables are produced by running an allreduce sweep on the
target machine at install time; this is the simulator's analogue.  For
each (message size, rank count) grid point the tuner times every candidate
algorithm through the *real* backend cost model (the same code path
training steps take) and fills the selection table with the argmin.  The
result is content-addressed: the tuning configuration digests to a cache
key, so re-tuning an unchanged configuration is a cache hit, and the
table's own digest folds into scaling/serve point digests so tuned-table
runs never alias untuned cached results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comm.selection import SelectionTable
from repro.errors import ConfigError
from repro.hardware.specs import LASSEN, ClusterSpec
from repro.utils.units import KIB, MIB

#: candidate algorithms the tuner sweeps, per backend, ordered
#: latency-optimal first (ties resolve to the earlier candidate)
CANDIDATES: dict[str, tuple[str, ...]] = {
    "mpi": (
        "recursive_doubling",
        "reduce_scatter_allgather",
        "ring",
        "hierarchical",
    ),
    "nccl": ("nccl-tree", "nccl-ring"),
    "hierarchical": ("hier-2level",),
}

#: algorithms that require a power-of-two communicator size
_POW2_ONLY = {"recursive_doubling", "reduce_scatter_allgather"}

DEFAULT_BYTE_POINTS = (4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB)
DEFAULT_RANK_COUNTS = (4, 16, 64)


@dataclass(frozen=True)
class TuningConfig:
    """Everything that determines a tuned table (digest preimage)."""

    backend: str = "mpi"
    byte_points: tuple[int, ...] = DEFAULT_BYTE_POINTS
    rank_counts: tuple[int, ...] = DEFAULT_RANK_COUNTS
    cluster: ClusterSpec = LASSEN
    #: scenario supplying the MPI device policy + MV2 config (mpi backend)
    scenario: str = "MPI-Opt"

    def __post_init__(self) -> None:
        if self.backend not in CANDIDATES:
            raise ConfigError(
                f"no tuning candidates for backend {self.backend!r}; "
                f"known: {sorted(CANDIDATES)}"
            )
        for name, points in (
            ("byte_points", self.byte_points),
            ("rank_counts", self.rank_counts),
        ):
            if not points or list(points) != sorted(set(points)):
                raise ConfigError(f"{name} must be non-empty and ascending")


#: in-process memo (digest -> table): tuning is deterministic, and test
#: suites re-tune the same configuration many times
_TUNE_MEMO: dict[str, SelectionTable] = {}


def tuning_digest(config: TuningConfig) -> str:
    from repro.perf.digest import canonical_digest

    return canonical_digest({"kind": "comm-tuning", "config": config})


def _geometric_edges(points: tuple[int, ...]) -> tuple[int, ...]:
    """Bucket boundaries at geometric midpoints between sweep points."""
    return tuple(
        int(math.sqrt(points[i] * points[i + 1])) for i in range(len(points) - 1)
    )


def _build_sweep_comm(config: TuningConfig, num_ranks: int):
    """A backend communicator sized for one rank-count sweep column."""
    from repro.comm.registry import build_communicator
    from repro.hardware.cluster import build_cluster

    cluster = build_cluster(config.cluster, num_ranks)
    world_spec = None
    if config.backend == "mpi":
        from repro.core.scenarios import scenario_by_name
        from repro.mpi.process import WorldSpec

        scenario = scenario_by_name(config.scenario)
        world_spec = WorldSpec(
            num_ranks=num_ranks, policy=scenario.policy, config=scenario.mv2
        )
    _world, comm = build_communicator(
        cluster,
        config.backend,
        world_spec=world_spec,
        num_ranks=num_ranks,
        table=None,
    )
    return comm


def _time_algorithm(comm, nbytes: int, algorithm: str) -> float:
    from repro.mpi.comm import GpuBuffer

    buffers = [GpuBuffer.virtual(nbytes) for _ in range(comm.size)]
    return comm.allreduce(buffers, algorithm=algorithm).time


def tune_table(config: TuningConfig, *, cache=None) -> SelectionTable:
    """Sweep candidates over the grid and emit the argmin selection table.

    ``cache`` is a :class:`~repro.perf.cache.ResultCache`; hits return the
    stored table without simulating.  An in-process memo backs both paths.
    """
    digest = tuning_digest(config)
    memo = _TUNE_MEMO.get(digest)
    if memo is not None:
        return memo
    if cache is not None and getattr(cache, "enabled", True):
        hit = cache.get(digest)
        if hit is not None:
            table = SelectionTable.from_payload(hit)
            _TUNE_MEMO[digest] = table
            return table

    candidates = CANDIDATES[config.backend]
    timings: dict[str, dict[str, float]] = {}
    grid: list[list[str]] = []
    for nbytes in config.byte_points:
        row: list[str] = []
        for num_ranks in config.rank_counts:
            comm = _build_sweep_comm(config, num_ranks)
            best_algo, best_time = None, math.inf
            cell: dict[str, float] = {}
            for algo in candidates:
                if algo in _POW2_ONLY and num_ranks & (num_ranks - 1):
                    continue
                t = _time_algorithm(comm, nbytes, algo)
                cell[algo] = t
                if t < best_time:
                    best_algo, best_time = algo, t
            timings[f"{nbytes}x{num_ranks}"] = cell
            row.append(best_algo)
        grid.append(row)

    table = SelectionTable(
        backend=config.backend,
        byte_edges=_geometric_edges(config.byte_points),
        rank_edges=_geometric_edges(config.rank_counts),
        algorithms=tuple(tuple(row) for row in grid),
        source="tuned",
        extra={
            "byte_points": list(config.byte_points),
            "rank_counts": list(config.rank_counts),
            "timings": timings,
        },
    )
    _TUNE_MEMO[digest] = table
    if cache is not None and getattr(cache, "enabled", True):
        cache.put(digest, table.to_payload())
    return table


def _time_compression(comm, nbytes: int, mode: str, ratio: float) -> float:
    """Simulated wire time of one gradient exchange under ``mode``."""
    from repro.compression import sparse_wire_nbytes, top_k_count
    from repro.mpi.comm import GpuBuffer
    from repro.mpi.datatypes import Datatype

    if mode == "none":
        buffers = [GpuBuffer.virtual(nbytes) for _ in range(comm.size)]
        return comm.allreduce(buffers).time
    if mode == "fp16":
        wire = (nbytes // Datatype.FLOAT32.size) * Datatype.FLOAT16.size
        buffers = [
            GpuBuffer.virtual(wire, Datatype.FLOAT16) for _ in range(comm.size)
        ]
        return comm.allreduce(buffers).time
    # top-k: per-rank (index, value) payload exchanged via allgather
    k = top_k_count(nbytes // Datatype.FLOAT32.size, ratio)
    wire = sparse_wire_nbytes(k)
    buffers = [GpuBuffer.virtual(wire, Datatype.UINT8) for _ in range(comm.size)]
    _, timing = comm.allgather(buffers)
    return timing.time


def tune_compression_table(
    config: TuningConfig, *, topk_ratio: float = 0.01, cache=None
) -> SelectionTable:
    """Sweep compression modes over the grid and emit the argmin table.

    Same machinery as :func:`tune_table`, but the candidates are wire
    formats rather than collective algorithms: dense fp32 ("none"), dense
    fp16 (half the bytes through the same allreduce), and top-k sparse
    (k·8 bytes per rank through an allgather — a different collective
    *shape*, which is why this cannot be folded into the algorithm table).
    The result is stored under backend key ``"<backend>+compression"`` and
    is advisory: it reports which mode the cost model favours per
    (bytes, ranks) regime, it does not rewrite a study's configuration.
    """
    from repro.perf.digest import canonical_digest

    digest = canonical_digest(
        {
            "kind": "comm-compression-tuning",
            "config": config,
            "topk_ratio": topk_ratio,
        }
    )
    memo = _TUNE_MEMO.get(digest)
    if memo is not None:
        return memo
    if cache is not None and getattr(cache, "enabled", True):
        hit = cache.get(digest)
        if hit is not None:
            table = SelectionTable.from_payload(hit)
            _TUNE_MEMO[digest] = table
            return table

    candidates = ("none", "fp16", f"topk:{topk_ratio:g}")
    timings: dict[str, dict[str, float]] = {}
    grid: list[list[str]] = []
    for nbytes in config.byte_points:
        row: list[str] = []
        for num_ranks in config.rank_counts:
            comm = _build_sweep_comm(config, num_ranks)
            best_mode, best_time = None, math.inf
            cell: dict[str, float] = {}
            for mode in candidates:
                t = _time_compression(comm, nbytes, mode, topk_ratio)
                cell[mode] = t
                if t < best_time:
                    best_mode, best_time = mode, t
            timings[f"{nbytes}x{num_ranks}"] = cell
            row.append(best_mode)
        grid.append(row)

    table = SelectionTable(
        backend=f"{config.backend}+compression",
        byte_edges=_geometric_edges(config.byte_points),
        rank_edges=_geometric_edges(config.rank_counts),
        algorithms=tuple(tuple(row) for row in grid),
        source="tuned",
        extra={
            "byte_points": list(config.byte_points),
            "rank_counts": list(config.rank_counts),
            "topk_ratio": topk_ratio,
            "timings": timings,
        },
    )
    _TUNE_MEMO[digest] = table
    if cache is not None and getattr(cache, "enabled", True):
        cache.put(digest, table.to_payload())
    return table


def default_table(backend: str) -> SelectionTable:
    """The built-in table mirroring each backend's historical heuristic.

    Informational (``repro comm show`` without tuning): a communicator
    does *not* route through these by default — it passes
    ``algorithm=None`` so backends keep their internal heuristics,
    including topology terms (node count, power-of-two) a static
    (bytes, ranks) grid cannot express.
    """
    if backend == "mpi":
        return SelectionTable(
            backend="mpi",
            byte_edges=(32 * KIB,),
            rank_edges=(4,),
            algorithms=(
                ("recursive_doubling", "recursive_doubling"),
                ("ring", "hierarchical"),
            ),
            source="builtin",
        )
    if backend == "nccl":
        return SelectionTable(
            backend="nccl",
            byte_edges=(64 * KIB,),
            rank_edges=(32,),
            algorithms=(("nccl-ring", "nccl-tree"), ("nccl-ring", "nccl-tree")),
            source="builtin",
        )
    if backend == "hierarchical":
        return SelectionTable(
            backend="hierarchical",
            byte_edges=(),
            rank_edges=(),
            algorithms=(("hier-2level",),),
            source="builtin",
        )
    raise ConfigError(f"no built-in table for backend {backend!r}")
