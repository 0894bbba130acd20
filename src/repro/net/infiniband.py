"""InfiniBand transfer protocol costs (eager vs. rendezvous zero-copy).

Two wire protocols, mirroring MVAPICH2:

* **eager** — small messages are copied into a pre-registered bounce buffer
  and sent immediately: no registration cost, but an extra copy on each
  side and a copy-bandwidth ceiling.
* **rendezvous (RPUT)** — large messages negotiate (RTS/CTS control
  round-trip), register source and destination buffers (cacheable), then
  RDMA-write directly from user memory: zero-copy at full link bandwidth.

The crossover is the MPI-level eager threshold (``MV2_IBA_EAGER_THRESHOLD``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.regcache import RegistrationCache


@dataclass(frozen=True)
class IbProtocolCosts:
    """Fixed protocol constants independent of the physical route."""

    eager_copy_bandwidth: float = 9.0e9  # packing into bounce buffers, B/s
    eager_overhead_s: float = 1.0e-6
    rndv_handshake_s: float = 3.5e-6  # RTS/CTS control round-trip


class IbTransferModel:
    """Protocol state of one HCA (one per node in our clusters).

    Owns the registration cache for buffers pinned through that HCA, the
    protocol constants, and the eager/rendezvous send counters.  The
    protocol costs themselves are priced by
    :class:`repro.mpi.transports.TransportModel`.  With the registration
    cache enabled, a rendezvous sender registers its *whole buffer* once
    and reuses it across chunks and calls.  Without it, MVAPICH2's
    pipelined rendezvous registers and deregisters **each pipeline
    chunk**: the repeated cost the cache exists to remove (paper §III-D,
    reference [22]).
    """

    def __init__(
        self,
        reg_cache: RegistrationCache,
        costs: IbProtocolCosts | None = None,
    ):
        self.reg_cache = reg_cache
        self.costs = costs or IbProtocolCosts()
        self.eager_sends = 0
        self.rndv_sends = 0

    def stats(self) -> dict[str, float]:
        out = {"eager_sends": self.eager_sends, "rndv_sends": self.rndv_sends}
        out.update({f"regcache_{k}": v for k, v in self.reg_cache.stats().items()})
        return out
