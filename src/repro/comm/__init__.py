"""Backend-agnostic communication layer.

One collective API over every backend (MPI, NCCL, and the hierarchical
two-level backend), MVAPICH2-style algorithm-selection tables, a
sim-driven autotuner, and unified per-op accounting:

* :mod:`repro.comm.records` — :class:`CommRecord`, the one accounting
  record every collective emits (hvprof bins and the Chrome trace
  exporter both consume it);
* :mod:`repro.comm.cost` — shared α-β cost identities and the collective
  schedule memo (deduplicated out of the mpi/nccl/horovod layers);
* :mod:`repro.comm.selection` — (message size × world size) selection
  tables and the process-local active-table registry;
* :mod:`repro.comm.api` — :class:`BaseCommunicator`, the contract every
  backend communicator shares (membership, elastic restrict/reform,
  validation, accounting, selection-table routing);
* :mod:`repro.comm.hierarchical` — intra-node NVLink reduce-scatter +
  inter-node IB allreduce + intra-node broadcast backend;
* :mod:`repro.comm.registry` — ``build_communicator``, the one factory
  over the three backends (world sizing is strict: no silent
  ``cluster.num_gpus`` fallback);
* :mod:`repro.comm.tuning` — the autotuner that sweeps candidate
  algorithms per (bytes, ranks) bucket and emits a cached, digest-keyed
  table.

With no selection table a communicator passes ``algorithm=None`` and
each backend's own heuristic picks the algorithm, bit-identically to the
raw ``world.communicator()`` (``tests/test_comm_equivalence``).

See ``docs/communication.md`` for the layer diagram and table format.
"""

# Only leaf modules are imported eagerly: repro.mpi.collectives imports
# repro.comm.cost back during its own init, so this package __init__ must
# not (transitively) import the mpi layer.  Backend-touching symbols
# resolve lazily via the module __getattr__ below.
from repro.comm.records import CommRecord
from repro.comm.cost import (
    ScheduleMemo,
    allreduce_lower_bound,
    alpha_beta_time,
    ring_step_count,
    weight_broadcast_time,
)
from repro.comm.selection import (
    SelectionTable,
    active_table_digests,
    active_tables,
    clear_active_tables,
    get_active_table,
    install_table_payloads,
    set_active_table,
)
from repro.comm.api import BaseCommunicator, broadcast_weights

_LAZY = {
    "BACKENDS": "repro.comm.registry",
    "build_communicator": "repro.comm.registry",
    "HierarchicalCommunicator": "repro.comm.hierarchical",
    "HierarchicalWorld": "repro.comm.hierarchical",
    "CANDIDATES": "repro.comm.tuning",
    "TuningConfig": "repro.comm.tuning",
    "default_table": "repro.comm.tuning",
    "tune_compression_table": "repro.comm.tuning",
    "tune_table": "repro.comm.tuning",
    "tuning_digest": "repro.comm.tuning",
}

__all__ = [
    "CommRecord",
    "ScheduleMemo",
    "allreduce_lower_bound",
    "alpha_beta_time",
    "ring_step_count",
    "weight_broadcast_time",
    "SelectionTable",
    "active_table_digests",
    "active_tables",
    "clear_active_tables",
    "get_active_table",
    "install_table_payloads",
    "set_active_table",
    "BaseCommunicator",
    "broadcast_weights",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.comm' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
