"""InfiniBand memory-registration cost model and registration cache.

Registering memory with the HCA (``ibv_reg_mr``) pins pages and installs
IOMMU/MTT entries; its cost is linear in the number of pages plus a fixed
syscall overhead.  MVAPICH2's registration cache memoizes registrations
keyed by (buffer, length) so repeated sends from the same buffer skip the
cost.  [Liu, Wu, Panda, IJPP 2004] — the paper's reference [22].
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class RegistrationCostModel:
    """Linear-in-pages cost of (de)registering a buffer."""

    page_bytes: int = 65536  # V100 GDR registrations operate on 64 KiB chunks
    # GPU-memory (GDR) registration maps BAR apertures, costing noticeably
    # more per page than host-memory ibv_reg_mr
    register_base_s: float = 35e-6
    register_per_page_s: float = 4.0e-6
    deregister_base_s: float = 20e-6
    deregister_per_page_s: float = 1.4e-6

    def __post_init__(self) -> None:
        check_positive("page_bytes", self.page_bytes)

    def pages(self, nbytes: int) -> int:
        return max(1, -(-int(nbytes) // self.page_bytes))

    def register_time(self, nbytes: int) -> float:
        return self.register_base_s + self.pages(nbytes) * self.register_per_page_s

    def deregister_time(self, nbytes: int) -> float:
        return self.deregister_base_s + self.pages(nbytes) * self.deregister_per_page_s

    def round_trip(self, nbytes: int) -> float:
        """Register now, deregister when done: both on the critical path."""
        return self.register_time(nbytes) + self.deregister_time(nbytes)


class RegistrationCache:
    """LRU registration cache with hit/miss statistics.

    ``enabled=False`` models the legacy MVAPICH2-GDR behaviour the paper
    describes (cache disabled because TensorFlow's custom allocator breaks
    it): every zero-copy transfer pays register + deregister.

    Bookkeeping is O(1) per operation: entries live in an ``OrderedDict``
    mapping ``buffer_id`` to its registered extent (a plain ``int``, no
    per-entry wrapper object), with ``move_to_end``/``popitem`` providing
    constant-time LRU maintenance.  ``benchmarks/bench_regcache_lru.py``
    pins the flat per-op cost at high entry counts.
    """

    def __init__(
        self,
        cost_model: RegistrationCostModel | None = None,
        *,
        enabled: bool = True,
        max_entries: int = 1024,
    ):
        if max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
        self.cost = cost_model or RegistrationCostModel()
        self.enabled = enabled
        self.max_entries = max_entries
        #: buffer_id -> registered extent in bytes (LRU order)
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._txn: set[int] = set()
        self._poisoned: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def begin_transaction(self) -> None:
        """Start a new MPI call scope.

        Even with the cache disabled, MVAPICH2 keeps a buffer's registration
        alive for the duration of one MPI call (all chunks of one rendezvous
        message reuse it); it is dropped when the call returns.  The
        transaction set models that call-scoped reuse.
        """
        self._txn.clear()

    def acquire(self, buffer_id: int, nbytes: int) -> float:
        """Cost of making ``buffer_id`` registered and ready for zero-copy.

        Returns the time charged to the critical path.
        """
        if not self.enabled:
            if buffer_id in self._txn:
                return 0.0
            self._txn.add(buffer_id)
            self.misses += 1
            # register now, deregister when the call completes
            return self.cost.round_trip(nbytes)
        # statistics are per (call, buffer) — chunk re-uses within one call
        # are not separate cache lookups
        entries = self._entries
        count_stats = buffer_id not in self._txn
        self._txn.add(buffer_id)
        reg_bytes = entries.get(buffer_id)
        if self._poisoned and buffer_id in self._poisoned:
            # stale registration (HCA reset / fault-induced remap): the MTT
            # entries may point at reclaimed pages, so the cached entry must
            # NOT be reused — tear it down and re-register from scratch
            self._poisoned.discard(buffer_id)
            if reg_bytes is not None:
                del entries[buffer_id]
                entries[buffer_id] = nbytes
                if count_stats:
                    self.misses += 1
                return (
                    self.cost.deregister_time(reg_bytes)
                    + self.cost.register_time(nbytes)
                )
        # hit fast path (the ~93% case at steady state): already registered
        # at sufficient extent — one dict probe plus an O(1) move_to_end
        elif reg_bytes is not None and reg_bytes >= nbytes:
            entries.move_to_end(buffer_id)
            if count_stats:
                self.hits += 1
            return 0.0
        if count_stats:
            self.misses += 1
        time = self.cost.register_time(nbytes)
        if reg_bytes is not None:
            # re-registration at larger extent: drop the old pinning
            time += self.cost.deregister_time(reg_bytes)
            del entries[buffer_id]
        entries[buffer_id] = nbytes
        while len(entries) > self.max_entries:
            _, evicted_bytes = entries.popitem(last=False)
            self.evictions += 1
            time += self.cost.deregister_time(evicted_bytes)
        return time

    def peek(self, buffer_id: int, nbytes: int) -> float | None:
        """What :meth:`acquire` would charge for the buffer's first acquire
        in the current call, without changing anything.

        ``None`` when that acquire would change the cache's structure (a
        missing, undersized or poisoned entry).  A repeat acquire within a
        call costs 0.0 either way.
        """
        if not self.enabled:
            return self.cost.round_trip(nbytes)
        reg_bytes = self._entries.get(buffer_id)
        if reg_bytes is None or reg_bytes < nbytes or buffer_id in self._poisoned:
            return None
        return 0.0

    def touch(self, buffer_id: int) -> bool:
        """Book an acquire that :meth:`peek` priced: the call-scoped hit
        (or, disabled, miss) statistic and the LRU touch.  Returns whether
        this was the buffer's first acquire in the current call."""
        first = buffer_id not in self._txn
        if first:
            self._txn.add(buffer_id)
            if self.enabled:
                self.hits += 1
            else:
                self.misses += 1
        if self.enabled:
            self._entries.move_to_end(buffer_id)
        return first

    def in_call(self, buffer_id: int) -> bool:
        """Whether the buffer was already acquired in the current call."""
        return buffer_id in self._txn

    def invalidate(self, buffer_id: int) -> float:
        """Buffer freed: deregistration cost if it was cached."""
        self._poisoned.discard(buffer_id)
        reg_bytes = self._entries.pop(buffer_id, None)
        if reg_bytes is None:
            return 0.0
        self.invalidations += 1
        return self.cost.deregister_time(reg_bytes)

    def poison(self, buffer_id: int) -> None:
        """Mark a cached registration stale without removing it.

        Models fault-induced invalidation (HCA reset, page remap after a
        link flap): the entry stays resident but the next ``acquire`` must
        deregister and re-register instead of hitting.
        """
        if buffer_id in self._entries:
            self._poisoned.add(buffer_id)
            self.invalidations += 1

    def invalidate_all(self) -> float:
        """Flush every registration (fault recovery); returns total
        deregistration cost charged."""
        time = sum(
            self.cost.deregister_time(nbytes) for nbytes in self._entries.values()
        )
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._poisoned.clear()
        return time

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def stats(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
        }

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0
