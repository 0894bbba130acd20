"""Class-priced transfer replay for the analytic collective engine.

The scaling studies spend nearly all of their wall clock re-walking
collective step schedules: a 512-rank hierarchical allreduce re-costs the
same ~2p point-to-point transfers across hundreds of BSP steps, and on a
homogeneous cluster those transfers fall into a handful of *classes*
(NVLink, X-Bus or IB at a few chunk sizes).  Echo-style reuse applies
directly: *price each transfer class once, then reuse that price for every
transfer of the class* — which collapses the schedule walk from
O(steps x ranks) full cost-model evaluations to O(link classes)
evaluations plus O(steps x ranks) dictionary lookups.

The session owns no cost model and no cache of its own.
``TransportModel`` is the only place that prices a transfer or knows its
side effects:

* ``TransportModel.quote`` prices a transfer against the current protocol
  state without changing it, and refuses (``None``) exactly when the real
  send would change structural state — an unopened CUDA IPC pair, or a
  missing, undersized or poisoned registration.  Warm-up transfers
  therefore always run through ``TransportModel.cost``.  Its timings come
  from the transport's class price table (``TransportModel.price_table``);
  the per-pair checks run on every quote, so no structural change can
  leave a stale entry behind.
* ``TransportModel.apply`` performs a quoted transfer's side effects —
  call-scoped registration hit/miss statistics and LRU touches,
  eager/rendezvous counters, per-kind transport stats, staging charges —
  and returns its total, picking the first-in-call variant of a
  disabled-cache receiver at apply time.  Quote plus apply is
  bit-identical to ``cost``.

``StepCoster.step_time_analytic`` is the only step walk: it asks the
session for each transfer's kind and totals, so the corruption surcharge
and the staging-wave contention model are shared with exact mode rather
than mirrored.  ``repro.sim.fastpath`` never approximates; it only skips
recomputing what is provably unchanged.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.collectives.base import PairTransfer, StepCoster


class EngineMode(enum.Enum):
    """How the analytic engine executes collective schedules."""

    #: walk every schedule step through the full transport cost model
    EXACT = "exact"
    #: price each transfer class once, reuse it for every warm transfer
    #: of the class (bit-identical)
    FAST = "fast"


def coerce_engine_mode(mode: "EngineMode | str | None") -> EngineMode:
    """Accept the enum, its string value, or ``None`` (= exact)."""
    if mode is None:
        return EngineMode.EXACT
    if isinstance(mode, EngineMode):
        return mode
    try:
        return EngineMode(str(mode))
    except ValueError:
        raise ConfigError(
            f"engine mode must be 'exact' or 'fast', got {mode!r}"
        ) from None


class FastPathSession:
    """Fast-path pricing hook and run statistics of one world.

    One session is attached to a
    :class:`~repro.mpi.collectives.base.StepCoster` (``coster.fastpath``):
    the coster's step walk prices each transfer through :meth:`price`, and
    ``StepCoster.run_steps`` routes analytic schedule walks through
    :meth:`run_steps`, which collapses warm ring phases in closed form.
    """

    def __init__(self, coster: "StepCoster"):
        self.coster = coster
        self.transport = coster.transport
        self.replayed_transfers = 0
        self.exact_transfers = 0

    def stats(self) -> dict[str, int]:
        return {
            "replayed_transfers": self.replayed_transfers,
            "exact_transfers": self.exact_transfers,
            "memo_entries": len(self.transport.price_table),
        }

    # -- pricing -----------------------------------------------------------
    def price(self, t: "PairTransfer", reduce_after: bool):
        """``StepCoster.price`` through the class price table: a quotable
        transfer is applied, a cold one (one that changes protocol
        structure) runs the full cost model."""
        quote = self.transport.quote(
            t.src, t.dst, t.nbytes, src_buffer=t.src_buffer,
            dst_buffer=t.dst_buffer, buffer_extent=t.buffer_extent,
        )
        if quote is None:
            self.exact_transfers += 1
            return self.coster.price(t, reduce_after)
        self.replayed_transfers += 1
        total = self.transport.apply(quote)
        if reduce_after:
            return quote.kind, total, total + self.coster.reduce_time_for(
                quote.kind, t.nbytes, t.dtype_bytes
            )
        return quote.kind, total, total

    def run_steps(self, steps: list, *, reduce_after: bool = False) -> float:
        """Analytic schedule walk (same summation order as exact mode:
        sequential over steps)."""
        coster = self.coster
        if getattr(steps, "is_ring_schedule", False) and not coster.corruption_active():
            # the ring closed form collapses warm steps without walking
            # their transfers — under an active wire-corruption window
            # every transfer must roll the corruption stream, so fall
            # through to the per-step walk
            return self._ring_run(steps, reduce_after)
        total = 0.0
        for step in steps:
            total += coster.step_time_analytic(step, reduce_after=reduce_after)
        return total

    # -- ring closed form --------------------------------------------------
    #: below this ring size the per-transfer walk is already cheap and the
    #: closed form's staged-contention preconditions rarely hold
    _RING_MIN_RANKS = 8

    def _ring_run(self, sched, reduce_after: bool) -> float:
        """Walk a ring phase, collapsing its tail into the closed form.

        Walks steps per-transfer only while protocol state is still
        mutating (cold caches, first-in-call advertisements); once every
        distinct transfer is provably warm the remaining steps reduce to
        a vectorized max over the ~2p quoted totals plus aggregate
        side-effect application.
        """
        total = 0.0
        for s in range(len(sched)):
            done = self._ring_tail(sched, s, reduce_after, total)
            if done is not None:
                return done
            total += self.coster.step_time_analytic(
                sched.step(s), reduce_after=reduce_after
            )
        return total

    def _ring_quotes(self, sched, chunk: int) -> list | None:
        """Quotes for every ring pair at one chunk size; ``None`` while any
        pair is still cold."""
        ranks = sched.ranks
        p = len(ranks)
        bids = sched.buffer_ids
        quote = self.transport.quote
        out = []
        for i in range(p):
            src = ranks[i]
            dst = ranks[(i + 1) % p]
            q = quote(
                src, dst, chunk,
                src_buffer=bids.get(src) if bids else None,
                dst_buffer=bids.get(dst) if bids else None,
                buffer_extent=sched.extent,
            )
            if q is None:
                return None
            out.append(q)
        return out

    def _ring_tail(
        self, sched, s0: int, reduce_after: bool, total: float
    ) -> float | None:
        """Closed-form remainder of a ring phase from step ``s0`` on.

        Returns the phase total (continuing the caller's running ``total``
        with the same accumulation order as the exact walk), or ``None``
        when the preconditions do not hold yet and step ``s0`` must be
        walked per-transfer.
        """
        from repro.mpi.transports import STAGED_KINDS

        ranks = sched.ranks
        p = len(ranks)
        if p < self._RING_MIN_RANKS:
            return None
        tr = self.transport
        rem = sched.rem
        small = self._ring_quotes(sched, sched.chunk_small)
        if small is None:
            return None
        big = self._ring_quotes(sched, sched.chunk_big) if rem else small
        if big is None:
            return None

        staged_pairs = []
        for i in range(p):
            q = small[i]
            if q.kind is not big[i].kind:
                return None  # chunk classes straddle a transport threshold
            if not q.settled():
                # the receiver's first advertisement this call pays
                # register+deregister and changes the step's makespan; the
                # closed form only covers the post-advertisement regime
                return None
            if q.kind in STAGED_KINDS:
                staged_pairs.append(i)
        nodes_distinct = len({tr.ranks[r].node_id for r in ranks}) == p
        shared_staging = staged_pairs and not nodes_distinct
        if shared_staging and rem:
            # staged transfers sharing a node serialize in engine waves,
            # and the rotating big/small chunk classes reshuffle each
            # step's wave membership — only the uniform ring (allgather:
            # rem == 0, identical transfer set every step) has a
            # step-invariant wave structure the closed form can price
            return None

        def totals(quotes):
            if not reduce_after:
                return np.fromiter((q.total for q in quotes), np.float64, p)
            reduce_time_for = self.coster.reduce_time_for
            dtype_bytes = sched.dtype_bytes
            return np.fromiter(
                (
                    q.total + reduce_time_for(q.kind, q.nbytes, dtype_bytes)
                    for q in quotes
                ),
                np.float64,
                p,
            )

        n_rem = (p - 1) - s0
        t_small = totals(small)
        if rem:
            t_big = totals(big)
            idx = np.arange(p)
            s_arr = np.arange(s0, p - 1)
            is_big = ((idx[None, :] - s_arr[:, None]) % p) < rem
            makespans = np.where(is_big, t_big[None, :], t_small[None, :]).max(
                axis=1
            ).tolist()
            cnt_big = is_big.sum(axis=0).tolist()
        elif shared_staging:
            # uniform ring with node-shared staging: every collapsed step
            # prices identically under the walk's contention model
            step = self.coster.makespan(
                (ranks[i], small[i].kind, float(t_small[i])) for i in range(p)
            )
            makespans = [step] * n_rem
            cnt_big = [0] * p
        else:
            makespans = [float(t_small.max())] * n_rem
            cnt_big = [0] * p
        for m in makespans:
            total += m

        # Side effects of the collapsed steps.  apply() touches each
        # registration once, so hits count once per (call, buffer) and the
        # LRU order left behind is the last step's (pairs ascending, src
        # then dst), as in the walk; everything else scales with the count.
        staged = set(staged_pairs)
        for i in range(p):
            if i in staged:
                continue
            n_big = cnt_big[i]
            if n_big:
                tr.apply(big[i], n_big)
            if n_rem - n_big:
                tr.apply(small[i], n_rem - n_big)
        # staging charges accumulate per rank in walk order (float += order
        # is part of the bit-identity contract): apply staged pairs step by
        # step
        for s in range(s0, p - 1):
            for i in staged_pairs:
                tr.apply(big[i] if (i - s) % p < rem else small[i])
        self.replayed_transfers += n_rem * p
        return total


def enable_fastpath(world) -> FastPathSession | None:
    """Attach a replay session to a backend world's analytic coster.

    Returns the session (idempotent — an already-attached session is
    returned as-is), or ``None`` when the backend exposes no
    :class:`~repro.mpi.collectives.base.StepCoster` (closed-form backends
    cost collectives without schedule walks and need no fast path) or the
    coster runs in event mode (replay is only valid for analytic walks).
    """
    from repro.mpi.collectives.base import ExecutionMode

    coster = getattr(world, "coster", None)
    transport = getattr(world, "transport", None)
    if coster is None or transport is None:
        return None
    if coster.mode is not ExecutionMode.ANALYTIC:
        return None
    existing = getattr(coster, "fastpath", None)
    if existing is not None:
        return existing
    session = FastPathSession(coster)
    coster.fastpath = session
    return session


def fastpath_stats(world) -> dict[str, int] | None:
    """The replay statistics of a world's attached session, if any.

    ``None`` when no session is attached — a closed-form backend, event
    mode, or an exact-mode run.  Diagnostics only: the counters depend on
    price-table warmth, so reports that must be byte-identical across cold/warm
    runs (scaling points, planner output) never embed them.
    """
    session = getattr(getattr(world, "coster", None), "fastpath", None)
    if session is None:
        return None
    return session.stats()
