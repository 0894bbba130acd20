"""The one factory over the three communication backends.

``build_communicator`` is what the layers above (the scaling study, the
hybrid executor, the autotuner, the CLI) call.  It builds the backend's
world and communicator, threads ``faults`` into *every* backend's cost
envelope, and hands the communicator the selection table it routes
``allreduce(algorithm=None)`` through.

World sizing is strict: a backend that needs a rank count gets it from
``num_ranks`` or ``world_spec`` explicitly — there is no silent fallback
to ``cluster.num_gpus`` (that fallback used to let an NCCL study quietly
simulate the wrong world when both were omitted).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.comm.selection import SelectionTable, get_active_table
from repro.mpi.collectives import ExecutionMode

#: every backend ``build_communicator`` knows, in display order
BACKENDS = ("hierarchical", "mpi", "nccl")


def build_communicator(
    cluster,
    backend: str,
    *,
    world_spec=None,
    num_ranks: int | None = None,
    mode: ExecutionMode = ExecutionMode.ANALYTIC,
    faults=None,
    table: SelectionTable | None = None,
):
    """Return ``(world, communicator)`` for the requested backend.

    MPI requires a :class:`~repro.mpi.process.WorldSpec` (visibility
    policy + MV2 config); NCCL and the hierarchical backend need an
    explicit rank count (``num_ranks`` or ``world_spec``).  ``mode`` is the
    MPI execution mode.  ``table`` overrides the process-wide active
    selection table for the backend
    (``repro.comm.selection.set_active_table``); with neither, the
    communicator routes with ``algorithm=None`` and the backend heuristics
    decide.
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; available: {list(BACKENDS)}"
        )
    if backend == "mpi":
        from repro.mpi.comm import MpiWorld

        if world_spec is None:
            raise ConfigError("MPI backend requires a WorldSpec")
        world = MpiWorld(cluster, world_spec, mode=mode, faults=faults)
    else:
        from repro.comm.hierarchical import HierarchicalWorld
        from repro.nccl.communicator import NcclWorld

        if num_ranks is None and world_spec is None:
            raise ConfigError(
                f"{backend!r} backend needs an explicit world size: pass "
                f"num_ranks or world_spec (refusing to fall back to "
                f"cluster.num_gpus)"
            )
        ranks = num_ranks if num_ranks is not None else world_spec.num_ranks
        world_class = NcclWorld if backend == "nccl" else HierarchicalWorld
        world = world_class(cluster, ranks, faults=faults)
    comm = world.communicator()
    comm.table = get_active_table(backend) if table is None else table
    return world, comm
