"""CUDA-aware transport selection and cost model.

This module decides *how* bytes move between two ranks and what that costs —
the layer the paper's MPI-Opt design changes.  Four GPU-to-GPU transports:

``CUDA_IPC``
    Direct device-to-device copy over NVLink/X-Bus after mapping the peer
    buffer with CUDA IPC.  Requires (a) ``MV2_CUDA_IPC`` on, (b) *mutual*
    MPI-layer visibility of the two devices, (c) message size above the IPC
    rendezvous threshold.  This is the fast path the paper restores.

``HOST_STAGED``
    The fallback when IPC is unavailable: sender ``cudaMemcpy``s chunks
    D2H into the pageable shared-memory region, receiver copies H2D.
    Pageable-copy bandwidth plus per-chunk synchronization makes this the
    dominant cost of the paper's "default" configuration.

``SMP_EAGER``
    Small intra-node messages always use the shared-memory eager path
    (double copy, cheap at small sizes) — IPC would not amortize.  This is
    why the paper's Table I shows ~0 improvement below 16 MB.

``GDR_RDMA``
    Inter-node zero-copy: rendezvous handshake + (cacheable) registration,
    then GPUDirect RDMA at wire speed.  ``IB_EAGER`` covers small messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cuda.runtime import IPC_OPEN_OVERHEAD_S
from repro.errors import MpiError, MpiTimeoutError
from repro.faults.plan import RetryPolicy
from repro.hardware.cluster import Cluster
from repro.hardware.node import DeviceRef
from repro.mpi.env import Mv2Config
from repro.mpi.process import RankContext
from repro.net.infiniband import IbTransferModel
from repro.net.regcache import RegistrationCache
from repro.perf import flags as perf_flags
from repro.sim.resources import Resource, try_acquire_all
from repro.utils.units import MIB


class TransportKind(enum.Enum):
    SELF = "self"
    CUDA_IPC = "cuda-ipc"
    HOST_STAGED = "host-staged"
    SMP_EAGER = "smp-eager"
    GDR_RDMA = "gdr-rdma"
    IB_EAGER = "ib-eager"
    STAGED_INTER = "staged-inter"  # inter-node with GDR disabled


#: intra-node messages at or below this always take the SMP eager path
SMP_EAGER_THRESHOLD = 64 * 1024

#: IPC rendezvous is only attempted above this size (handle-open and
#: synchronization costs do not amortize below it).  At 4 ranks, the ring
#: chunks of >=16 MB fused buffers sit at >=4 MiB and take the IPC path,
#: while chunks of smaller messages fall back to staging — which is why
#: Table I shows gains only in the >=16 MB bins.
CUDA_IPC_THRESHOLD = 4 * MIB

#: kinds whose copies pass through host memory: their copy time is charged
#: to both endpoints and they contend for a node's staging engines
STAGED_KINDS = (
    TransportKind.HOST_STAGED,
    TransportKind.SMP_EAGER,
    TransportKind.STAGED_INTER,
)


def _buffer_id(rank: int, buffer: int | None) -> int:
    """The buffer a transfer registers: the rank's own when none is named."""
    return buffer if buffer is not None else -rank - 1


@dataclass
class CostBreakdown:
    """Per-transfer cost decomposition (seconds)."""

    kind: TransportKind
    wire: float = 0.0  # link traversal at bottleneck bandwidth
    staging: float = 0.0  # pageable-copy + chunk-sync cost
    protocol: float = 0.0  # handshakes, registration, IPC setup
    nbytes: int = 0

    @property
    def total(self) -> float:
        return self.wire + self.staging + self.protocol


@dataclass(slots=True, eq=False)
class Quote:
    """A transfer priced against warm protocol state (:meth:`TransportModel.quote`).

    ``total`` is the transfer's ``CostBreakdown.total`` once its receiver
    buffer has been advertised in the current MPI call; ``total_first`` is
    the total of that first advertisement.  The two differ only for a GDR
    receiver whose registration cache is disabled, which registers and
    deregisters the buffer once per call.
    """

    kind: TransportKind
    src: int
    dst: int
    nbytes: int
    staging: float
    total: float
    total_first: float
    ib: IbTransferModel | None = None  # the sender's HCA (IB kinds)
    src_buf: int | None = None  # sender buffer held in an enabled cache
    dst_cache: RegistrationCache | None = None  # the GDR receiver's cache
    dst_buf: int = 0

    def settled(self) -> bool:
        """True when the next recurrence costs ``total``: no first-in-call
        receiver advertisement is pending."""
        return self.total_first == self.total or self.dst_cache.in_call(self.dst_buf)


@dataclass
class TransportStats:
    """Aggregate byte/transfer counters per transport kind."""

    bytes_moved: dict[TransportKind, int] = field(
        default_factory=lambda: {k: 0 for k in TransportKind}
    )
    transfers: dict[TransportKind, int] = field(
        default_factory=lambda: {k: 0 for k in TransportKind}
    )

    def record(self, kind: TransportKind, nbytes: int, times: int = 1) -> None:
        self.bytes_moved[kind] += nbytes * times
        self.transfers[kind] += times


class TransportModel:
    """Selects and costs transports for one MPI world."""

    def __init__(
        self,
        cluster: Cluster,
        config: Mv2Config,
        ranks: list[RankContext],
        *,
        faults=None,
        retry: RetryPolicy | None = None,
    ):
        self.cluster = cluster
        self.config = config
        self.faults = faults
        self.retry = retry or RetryPolicy()
        if faults is not None:
            cluster.apply_fault_injector(faults)
        self.ranks = {r.rank: r for r in ranks}
        env = cluster.env
        node_ids = sorted({r.node_id for r in ranks})
        self._ib: dict[int, IbTransferModel] = {
            nid: IbTransferModel(
                RegistrationCache(
                    enabled=config.registration_cache,
                    max_entries=config.reg_cache_entries,
                )
            )
            for nid in node_ids
        }
        self._staging: dict[int, Resource] = {
            nid: Resource(
                env,
                capacity=cluster.spec.node.staging_engines,
                name=f"n{nid}:staging",
            )
            for nid in node_ids
        }
        self._ipc_pairs: set[tuple[int, int]] = set()
        self.stats = TransportStats()
        #: transfer class -> (staging, total, total_first), filled by
        #: :meth:`quote`; see there for why the class key is sound
        self.price_table: dict[tuple, tuple[float, float, float]] = {}
        #: simulated time the table's prices hold at (faults attached)
        self._priced_at: float | None = None
        # Seconds each rank spends driving pageable staging copies; these
        # copies are synchronous w.r.t. the GPU stream, so the scaling study
        # charges them against compute (the default path's hidden tax).
        self.staged_seconds: dict[int, float] = {r.rank: 0.0 for r in ranks}

    def begin_collective(self) -> None:
        """Open a new MPI-call scope on every HCA's registration state."""
        for ib in self._ib.values():
            ib.reg_cache.begin_transaction()

    # -- selection -----------------------------------------------------------
    def can_ipc(self, a: RankContext, b: RankContext) -> bool:
        """Mutual-visibility IPC test (the crux of the paper's §III-C)."""
        if a.node_id != b.node_id or a.rank == b.rank:
            return False
        if not self.config.cuda_ipc_enabled:
            return False
        return a.mpi_sees(b.physical_device) and b.mpi_sees(a.physical_device)

    def select(self, src: int, dst: int, nbytes: int) -> TransportKind:
        a, b = self.ranks[src], self.ranks[dst]
        if src == dst:
            return TransportKind.SELF
        if a.node_id == b.node_id:
            if nbytes <= SMP_EAGER_THRESHOLD:
                return TransportKind.SMP_EAGER
            if nbytes >= CUDA_IPC_THRESHOLD and self.can_ipc(a, b):
                return TransportKind.CUDA_IPC
            return TransportKind.HOST_STAGED
        if nbytes <= self.config.eager_threshold:
            return TransportKind.IB_EAGER
        if self.config.gdr_enabled:
            return TransportKind.GDR_RDMA
        return TransportKind.STAGED_INTER

    # -- helper geometry -------------------------------------------------------
    def _cpu_of(self, rank: RankContext) -> DeviceRef:
        node = self.cluster.nodes[rank.node_id]
        return node.cpu_refs[node.socket_of_gpu(rank.physical_device)]

    def _staged_time(self, nbytes: int) -> float:
        """Chunk-pipelined D2H + H2D staging through pageable host memory."""
        spec = self.cluster.spec.node
        chunks = max(1, -(-nbytes // self.config.smp_chunk_bytes))
        # Two pageable copies pipeline; steady-state throughput is bounded by
        # the slower stage (both are pageable-copy bound, not NVLink bound).
        per_byte = 1.0 / spec.pageable_copy_bandwidth
        pipeline_fill = min(nbytes, self.config.smp_chunk_bytes) * per_byte
        return (
            chunks * self.config.smp_chunk_overhead_s
            + nbytes * per_byte
            + pipeline_fill
        )

    # -- analytic costs -----------------------------------------------------------
    def _breakdown(
        self,
        kind: TransportKind,
        a: RankContext,
        b: RankContext,
        nbytes: int,
        ipc_open: float = 0.0,
        src_reg: float = 0.0,
        dst_reg: float = 0.0,
    ) -> CostBreakdown:
        """The cost formula of each transport kind.

        The terms that depend on protocol state come in as arguments: the
        IPC handle-open cost and the sender's and receiver's registration
        costs.  :meth:`cost` obtains them by changing that state,
        :meth:`quote` by peeking at it.
        """
        out = CostBreakdown(kind=kind, nbytes=nbytes)
        pageable = self.cluster.spec.node.pageable_copy_bandwidth
        if kind is TransportKind.SELF:
            return out
        if kind is TransportKind.SMP_EAGER:
            out.protocol = 2.0e-6  # shared-memory queue post/poll
            out.staging = 2 * nbytes / pageable
        elif kind is TransportKind.CUDA_IPC:
            out.protocol = ipc_open + 3.0e-6  # IPC rendezvous synchronization
            path = self.cluster.path_cost(a.device_ref, b.device_ref, nbytes)
            pipeline = nbytes / self.config.cuda_ipc_bandwidth
            out.wire = max(path, pipeline)
        elif kind is TransportKind.HOST_STAGED:
            out.protocol = 2.5e-6
            out.staging = self._staged_time(nbytes)
        elif kind is TransportKind.IB_EAGER:
            costs = self._ib[a.node_id].costs
            # copy into the pre-registered bounce buffer
            out.protocol = (
                costs.eager_overhead_s + nbytes / costs.eager_copy_bandwidth
            )
            # small D2H copy into the bounce buffer, then the wire
            out.staging = nbytes / pageable
            out.wire = self.cluster.path_cost(a.device_ref, b.device_ref, nbytes)
        elif kind is TransportKind.GDR_RDMA:
            # RTS/CTS handshake, then both ends registered; the receiver's
            # buffer is advertised once per call (CTS carries the rkey)
            handshake = self._ib[a.node_id].costs.rndv_handshake_s
            out.protocol = (handshake + src_reg) + dst_reg
            out.wire = self.cluster.path_cost(a.device_ref, b.device_ref, nbytes)
        elif kind is TransportKind.STAGED_INTER:
            handshake = self._ib[a.node_id].costs.rndv_handshake_s
            out.protocol = handshake + src_reg
            out.staging = 2 * nbytes / pageable
            out.wire = self.cluster.path_cost(
                self._cpu_of(a), self._cpu_of(b), nbytes
            )
        else:  # pragma: no cover - enum is exhaustive
            raise MpiError(f"unhandled transport {kind}")
        return out

    def cost(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        src_buffer: int | None = None,
        dst_buffer: int | None = None,
        buffer_extent: int | None = None,
        kind: TransportKind | None = None,
    ) -> CostBreakdown:
        """Uncontended cost of one message; mutates protocol state
        (registration caches, IPC pair setup) exactly as a real send would."""
        a, b = self.ranks[src], self.ranks[dst]
        extent = buffer_extent if buffer_extent is not None else nbytes
        kind = kind or self.select(src, dst, nbytes)
        ib = None
        ipc_open = src_reg = dst_reg = 0.0
        if kind is TransportKind.CUDA_IPC:
            pair = (min(src, dst), max(src, dst))
            if pair not in self._ipc_pairs:
                self._ipc_pairs.add(pair)
                ipc_open = IPC_OPEN_OVERHEAD_S
        elif kind is TransportKind.IB_EAGER:
            ib = self._ib[a.node_id]
        elif kind is TransportKind.GDR_RDMA or kind is TransportKind.STAGED_INTER:
            ib = self._ib[a.node_id]
            cache = ib.reg_cache
            if cache.enabled:
                # the whole buffer is registered once and reused
                src_reg = cache.acquire(_buffer_id(src, src_buffer), extent)
            else:
                # without a cache every pipeline chunk registers and
                # deregisters
                src_reg = cache.cost.round_trip(nbytes)
            if kind is TransportKind.GDR_RDMA:
                dst_reg = self._ib[b.node_id].reg_cache.acquire(
                    _buffer_id(dst, dst_buffer), extent
                )
        out = self._breakdown(kind, a, b, nbytes, ipc_open, src_reg, dst_reg)
        self._charge(kind, src, dst, nbytes, out.staging, ib)
        return out

    def quote(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        src_buffer: int | None = None,
        dst_buffer: int | None = None,
        buffer_extent: int | None = None,
    ) -> Quote | None:
        """Price a message as :meth:`cost` would, without changing anything.

        Returns ``None`` exactly when :meth:`cost` would change structural
        protocol state: an unopened IPC pair, or a missing, undersized or
        poisoned registration.  Otherwise :meth:`apply` on the quote has
        the effect :meth:`cost` would have had, and returns its total.

        The timings come from :attr:`price_table`, keyed by the transfer's
        class: kind (which also says whether the ranks share a node), the
        two physical devices, size, and the two registration terms.  Every
        node is built from one ``NodeSpec``, every IB link from one spec
        and every HCA has the same protocol costs, so ranks on different
        nodes with the same devices price alike.  With a fault injector
        attached, link costs are a function of simulated time, so the table
        only holds prices at one ``env.now`` and is emptied when the clock
        moves.
        """
        a, b = self.ranks[src], self.ranks[dst]
        extent = buffer_extent if buffer_extent is not None else nbytes
        kind = self.select(src, dst, nbytes)
        ib = src_buf = dst_cache = None
        dst_buf = 0
        src_reg = dst_first = 0.0
        if kind is TransportKind.CUDA_IPC:
            if (min(src, dst), max(src, dst)) not in self._ipc_pairs:
                return None
        elif kind is TransportKind.IB_EAGER:
            ib = self._ib[a.node_id]
        elif kind is TransportKind.GDR_RDMA or kind is TransportKind.STAGED_INTER:
            ib = self._ib[a.node_id]
            cache = ib.reg_cache
            if cache.enabled:
                src_buf = _buffer_id(src, src_buffer)
                if cache.peek(src_buf, extent) is None:
                    return None
            else:
                src_reg = cache.cost.round_trip(nbytes)
            if kind is TransportKind.GDR_RDMA:
                dst_cache = self._ib[b.node_id].reg_cache
                dst_buf = _buffer_id(dst, dst_buffer)
                dst_first = dst_cache.peek(dst_buf, extent)
                if dst_first is None:
                    return None
        prices = self.price_table
        if self.cluster.fault_injector is not None:
            now = self.cluster.env.now
            if now != self._priced_at:
                prices.clear()
                self._priced_at = now
        key = (
            kind, a.physical_device, b.physical_device, nbytes, src_reg,
            dst_first,
        )
        price = prices.get(key)
        if price is None:
            out = self._breakdown(kind, a, b, nbytes, 0.0, src_reg)
            total_first = out.total
            if dst_first:
                total_first = self._breakdown(
                    kind, a, b, nbytes, 0.0, src_reg, dst_first
                ).total
            price = prices[key] = (out.staging, out.total, total_first)
        return Quote(
            kind, src, dst, nbytes, *price, ib, src_buf, dst_cache, dst_buf
        )

    def apply(self, quote: Quote, times: int = 1) -> float:
        """Perform the protocol side effects of ``times`` back-to-back sends
        of a quoted message; returns the first one's total.

        Registration caches see one touch (a repeat within the call only
        re-touches the same LRU slot); everything else counts ``times``.
        """
        total = quote.total
        if quote.src_buf is not None:
            quote.ib.reg_cache.touch(quote.src_buf)
        if quote.dst_cache is not None and quote.dst_cache.touch(quote.dst_buf):
            total = quote.total_first
        self._charge(
            quote.kind, quote.src, quote.dst, quote.nbytes, quote.staging,
            quote.ib, times,
        )
        return total

    def _charge(
        self,
        kind: TransportKind,
        src: int,
        dst: int,
        nbytes: int,
        staging: float,
        ib: IbTransferModel | None,
        times: int = 1,
    ) -> None:
        """Side effects every send of a kind has, whatever the protocol
        state: byte stats, eager/rendezvous counters, the per-chunk
        registration of a sender without a cache, and staging time (the
        sender drives the D2H half, the receiver the H2D half)."""
        if kind is TransportKind.SELF:
            return
        self.stats.record(kind, nbytes, times)
        if kind is TransportKind.IB_EAGER:
            ib.eager_sends += times
        elif ib is not None:
            ib.rndv_sends += times
            if not ib.reg_cache.enabled:
                ib.reg_cache.misses += times
        if kind in STAGED_KINDS:
            staged = self.staged_seconds
            for _ in range(times):
                staged[src] += staging / 2
                staged[dst] += staging / 2

    def max_staged_seconds(self) -> float:
        """Busiest rank's cumulative staging time (the compute-blocking tax)."""
        return max(self.staged_seconds.values(), default=0.0)

    # -- event-driven transfer -----------------------------------------------------
    def transfer_proc(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        src_buffer: int | None = None,
        dst_buffer: int | None = None,
        buffer_extent: int | None = None,
    ):
        """Simulation process realizing the same cost with link contention.

        With a fault injector attached, every transmission attempt is
        subject to injected delay and loss.  A lost message costs the ack
        timeout to detect, then retransmits after exponential backoff;
        exhausting the retry budget raises
        :class:`~repro.errors.MpiTimeoutError` (surfaced, not a hang).
        """
        env_ = self.cluster.env
        if self.faults is not None:
            attempt = 0
            severed = False
            while True:
                verdict = self.faults.message_verdict(src, dst, env_.now)
                severed = verdict.severed
                if verdict.delay_s > 0:
                    yield env_.timeout(verdict.delay_s)
                if not verdict.drop:
                    if not self.faults.corruption_verdict(src, dst, env_.now):
                        break
                    # delivered but damaged: the CRC32 frame check catches
                    # it and the ladder retransmits, exactly like a loss —
                    # corruption can never reach the consumer undetected
                    from repro.comm.integrity import crc_check_time

                    yield env_.timeout(crc_check_time(nbytes))
                    self.faults.record(
                        "crc-detected", env_.now, src=src, dst=dst,
                        detail=f"{nbytes}B retransmit",
                    )
                attempt += 1
                if attempt > self.retry.max_retries:
                    cause = (
                        "path severed (partition/switch outage)"
                        if severed else "lost"
                    )
                    self.faults.record(
                        "msg-timeout", env_.now, src=src, dst=dst,
                        detail=f"{nbytes}B after {attempt} attempts"
                               + (" severed" if severed else ""),
                    )
                    raise MpiTimeoutError(
                        f"message {src}->{dst} ({nbytes}B) {cause} "
                        f"{attempt} time(s); retry budget "
                        f"({self.retry.max_retries}) exhausted"
                    )
                backoff = self.retry.backoff(attempt)
                self.faults.record(
                    "msg-retry", env_.now, src=src, dst=dst,
                    detail=f"attempt={attempt} backoff={backoff:g}s",
                )
                yield env_.timeout(self.retry.ack_timeout_s + backoff)
        a, b = self.ranks[src], self.ranks[dst]
        kind = self.select(src, dst, nbytes)
        breakdown = self.cost(
            src, dst, nbytes, src_buffer=src_buffer, dst_buffer=dst_buffer,
            buffer_extent=buffer_extent, kind=kind,
        )
        env = self.cluster.env
        if breakdown.protocol:
            yield env.timeout(breakdown.protocol)
        if kind in (TransportKind.HOST_STAGED, TransportKind.SMP_EAGER):
            staging = self._staging[a.node_id]
            yield staging.request()
            try:
                yield env.timeout(breakdown.staging)
            finally:
                staging.release()
            return kind
        if kind is TransportKind.STAGED_INTER:
            staging = self._staging[a.node_id]
            yield staging.request()
            try:
                yield env.timeout(breakdown.staging)
            finally:
                staging.release()
            yield env.process(
                self.cluster.transfer(self._cpu_of(a), self._cpu_of(b), nbytes)
            )
            return kind
        if breakdown.staging:
            yield env.timeout(breakdown.staging)
        if kind in (TransportKind.CUDA_IPC, TransportKind.GDR_RDMA, TransportKind.IB_EAGER):
            # claim every hop of the route for the (possibly protocol-capped)
            # wire duration so contention is simulated
            hops = self.cluster.route(a.device_ref, b.device_ref)
            channels = [link.channel(frm, to) for link, frm, to in hops]
            if perf_flags.link_fastpath and try_acquire_all(channels):
                # Uncontended-link fast path: no other flow shares any hop
                # right now, so the per-hop request/grant events collapse
                # into one timed event.  The channels stay held for the
                # wire duration, so any flow arriving meanwhile queues
                # exactly as it would on the slow path below.
                try:
                    yield env.timeout(breakdown.wire)
                    for link, _, _ in hops:
                        link.bytes_carried += nbytes
                        link.transfer_count += 1
                finally:
                    for channel in reversed(channels):
                        channel.release()
                return kind
            held = []
            try:
                for channel in channels:
                    yield channel.request()
                    held.append(channel)
                yield env.timeout(breakdown.wire)
                for link, _, _ in hops:
                    link.bytes_carried += nbytes
                    link.transfer_count += 1
            finally:
                for channel in reversed(held):
                    channel.release()
        return kind

    def drop_registrations(self, node_id: int | None = None) -> float:
        """Flush registration caches (fault recovery after an HCA reset or
        link flap); returns the total deregistration time charged."""
        time = 0.0
        for nid, ib in self._ib.items():
            if node_id is None or nid == node_id:
                time += ib.reg_cache.invalidate_all()
        if self.faults is not None:
            self.faults.record(
                "regcache-flush", self.cluster.env.now,
                detail="all nodes" if node_id is None else f"node {node_id}",
            )
        return time

    # -- reporting -------------------------------------------------------------------
    def regcache_stats(self) -> dict[str, float]:
        """Aggregated registration-cache statistics across all HCAs."""
        hits = sum(ib.reg_cache.hits for ib in self._ib.values())
        misses = sum(ib.reg_cache.misses for ib in self._ib.values())
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
