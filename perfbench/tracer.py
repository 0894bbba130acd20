"""Layer-boundary tracing from outside the program.

:class:`Tracer` wraps the public functions at each layer boundary of
``repro`` (the study loop, the hybrid executor and planner, Horovod, the
collective schedule, transport costing, the registration cache, the
fastpath, the sim engine, serving, faults/resilience, the chaos
invariants and the result cache), records a span ``(name, start, end,
parent)`` per call in memory, and counts the work each layer reports.
Nothing inside ``src/`` changes: the wrappers are installed by
``install()`` and every original is put back by ``restore()``.

Very hot boundaries whose time is not asked for (routing decisions, batch
pops, transport selection) are counted without a span, so their cost stays
in the caller's self time; sim-engine events are read from each
``Environment``'s own ``events_processed`` counter instead of wrapping
``Environment.step``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

#: every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {
    "core.study.run_point.calls": "count",
    "core.study.run_point.self_s": "s",
    "parallel.executor.run.calls": "count",
    "parallel.executor.run.self_s": "s",
    "parallel.planner.candidates": "count",
    "parallel.planner.infeasible": "count",
    "horovod.run_step.calls": "count",
    "horovod.run_step.self_s": "s",
    "horovod.messages": "count",
    "horovod.message_bytes": "B",
    "collectives.calls": "count",
    "collectives.self_s": "s",
    "collectives.run_steps.calls": "count",
    "collectives.run_steps.self_s": "s",
    "transport.cost.calls": "count",
    "transport.cost.self_s": "s",
    "transport.select.calls": "count",
    "regcache.acquire.calls": "count",
    "regcache.acquire.self_s": "s",
    "regcache.hit_ratio": "ratio",
    "fastpath.exact_transfers": "count",
    "fastpath.replayed_transfers": "count",
    "fastpath.replay_ratio": "ratio",
    "fastpath.memo_entries": "count",
    "fastpath.invalidations": "count",
    "sim.engine.events": "count",
    "sim.engine.run.self_s": "s",
    "serve.arrivals.self_s": "s",
    "serve.requests": "count",
    "serve.route.calls": "count",
    "serve.batches": "count",
    "serve.batch_fill": "ratio",
    "serve.slo.finalize.self_s": "s",
    "faults.queries": "count",
    "faults.self_s": "s",
    "resilience.polls": "count",
    "resilience.poll.self_s": "s",
    "chaos.invariants.checked": "count",
    "chaos.invariants.self_s": "s",
    "perf.cache.get.calls": "count",
    "perf.cache.get.self_s": "s",
    "perf.cache.hit_ratio": "ratio",
    "perf.cache.put.calls": "count",
    "perf.cache.put.self_s": "s",
    "perf.digest.calls": "count",
    "perf.digest.self_s": "s",
}

#: span name -> (its calls metric, its self-time metric); None = not reported
_SPAN_METRICS = {
    "core.study.run_point": (
        "core.study.run_point.calls", "core.study.run_point.self_s"),
    "parallel.executor.run": (
        "parallel.executor.run.calls", "parallel.executor.run.self_s"),
    "parallel.planner": (None, None),
    "horovod.run_step": ("horovod.run_step.calls", "horovod.run_step.self_s"),
    "collectives": ("collectives.calls", "collectives.self_s"),
    "collectives.run_steps": (
        "collectives.run_steps.calls", "collectives.run_steps.self_s"),
    "transport.cost": ("transport.cost.calls", "transport.cost.self_s"),
    "regcache.acquire": ("regcache.acquire.calls", "regcache.acquire.self_s"),
    "fastpath.enable": (None, None),
    "sim.engine.run": (None, "sim.engine.run.self_s"),
    "serve.arrivals": (None, "serve.arrivals.self_s"),
    "serve.slo.finalize": (None, "serve.slo.finalize.self_s"),
    "faults": ("faults.queries", "faults.self_s"),
    "resilience.poll": ("resilience.polls", "resilience.poll.self_s"),
    "chaos.invariants": (None, "chaos.invariants.self_s"),
    "perf.cache.get": ("perf.cache.get.calls", "perf.cache.get.self_s"),
    "perf.cache.put": ("perf.cache.put.calls", "perf.cache.put.self_s"),
    "perf.digest": ("perf.digest.calls", "perf.digest.self_s"),
}

#: FaultInjector's query surface (``any_faults`` is a property, not a call)
_FAULT_QUERIES = (
    "compute_factor", "link_state", "path_severed", "message_verdict",
    "corruption_verdict", "wire_corruption_active", "checkpoint_corrupt",
    "failure_time", "failed_ranks", "failure_down_s", "domain_of",
)


class Tracer:
    """In-memory spans and counters over monkey-patched layer boundaries."""

    def __init__(self):
        #: one ``[name, start, end, parent_index]`` list per call
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        #: objects created during the run whose statistics are read at the end
        self.objects: dict[str, dict[int, object]] = {
            "regcache": {}, "fastpath": {}, "env": {},
        }
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused while restore() looks ids up
        self._originals: dict[int, tuple[object, object]] = {}
        self._class_patches: list[tuple[type, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count(self, name, fn, on_result=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _collect(self, kind):
        """``__init__`` hook keeping every new instance for its stats."""
        bucket = self.objects[kind]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(obj, *args, **kwargs):
                fn(obj, *args, **kwargs)
                bucket[id(obj)] = obj

            return wrapper

        return make

    # -- patching -----------------------------------------------------------
    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        wrapper = make(original)
        self._originals[id(wrapper)] = (wrapper, original)
        self._class_patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def _patch_function(self, module, attr, make):
        """Replace a module-level function everywhere ``repro`` bound it
        (``from x import f`` copies the reference into the importer)."""
        original = getattr(module, attr)
        wrapper = make(original)
        self._originals[id(wrapper)] = (wrapper, original)
        for mod in _repro_modules():
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary (imports the modules it patches)."""
        import repro.chaos.campaign  # noqa: F401  (binds check_*_cell)
        import repro.chaos.invariants as invariants
        import repro.comm.hierarchical as hierarchical
        import repro.core.study as study
        import repro.faults.injector as injector
        import repro.horovod.engine as horovod
        import repro.mpi.collectives.base as collectives
        import repro.mpi.comm as mpi_comm
        import repro.mpi.transports as transports
        import repro.nccl.communicator as nccl
        import repro.net.regcache as regcache
        import repro.parallel.executor as executor
        import repro.parallel.planner as planner
        import repro.perf.cache as cache
        import repro.perf.digest as digest
        import repro.resilience.supervisor as supervisor
        import repro.serve.batcher as batcher
        import repro.serve.router as router
        import repro.serve.simulator  # noqa: F401  (binds generate_arrivals)
        import repro.serve.slo as slo
        import repro.serve.sweep  # noqa: F401  (binds canonical_digest)
        import repro.serve.workload as workload
        import repro.sim.engine as engine
        import repro.sim.fastpath as fastpath

        sums = self.sums
        span, count = self._span, self._count

        def method(cls, attr, name, on_result=None, spanned=True):
            wrap = span if spanned else count
            self._patch_method(cls, attr, lambda fn: wrap(name, fn, on_result))

        def function(module, attr, name, on_result=None):
            self._patch_function(
                module, attr, lambda fn: span(name, fn, on_result)
            )

        def add(key, value_of):
            def on_result(args, result):
                sums[key] += value_of(args, result)

            return on_result

        method(study.ScalingStudy, "run_point", "core.study.run_point")
        method(executor.HybridExecutor, "run", "parallel.executor.run")

        def planned(args, report):
            # a warm re-plan returns the same report: count the plan once
            sums["parallel.planner.candidates"] = report["candidates"]
            sums["parallel.planner.infeasible"] = len(report["infeasible"])

        function(planner, "plan_hybrid", "parallel.planner", planned)

        def stepped(args, timing):
            sums["horovod.messages"] += len(timing.messages)
            sums["horovod.message_bytes"] += sum(
                m.nbytes for m in timing.messages
            )

        method(horovod.HorovodEngine, "run_step", "horovod.run_step", stepped)

        for cls in (
            mpi_comm.Communicator,
            nccl.NcclCommunicator,
            hierarchical.HierarchicalCommunicator,
        ):
            for op in ("allreduce", "allgather", "reduce_scatter", "bcast"):
                if op in cls.__dict__:
                    method(cls, op, "collectives")
        method(collectives.StepCoster, "run_steps", "collectives.run_steps")

        method(transports.TransportModel, "cost", "transport.cost")
        method(
            transports.TransportModel, "select", "transport.select",
            spanned=False,
        )

        method(regcache.RegistrationCache, "acquire", "regcache.acquire")
        self._patch_method(
            regcache.RegistrationCache, "__init__", self._collect("regcache")
        )

        def attached(args, session):
            if session is not None:
                self.objects["fastpath"][id(session)] = session

        function(fastpath, "enable_fastpath", "fastpath.enable", attached)

        method(engine.Environment, "run", "sim.engine.run")
        self._patch_method(engine.Environment, "__init__", self._collect("env"))

        function(
            workload, "generate_arrivals", "serve.arrivals",
            add("serve.requests", lambda a, r: len(r)),
        )
        for cls in (router.RoundRobin, router.JoinShortestQueue, router.LeastLoaded):
            method(cls, "choose", "serve.route", spanned=False)

        def popped(args, batch):
            sums["serve.batch_fill_sum"] += len(batch) / args[0].config.max_batch

        method(batcher.DynamicBatcher, "pop_batch", "serve.batches", popped, False)
        method(slo.SLOLedger, "finalize", "serve.slo.finalize")

        for query in _FAULT_QUERIES:
            method(injector.FaultInjector, query, "faults")
        for poll in ("poll", "poll_domains"):
            method(supervisor.HeartbeatSupervisor, poll, "resilience.poll")

        checked = add("chaos.invariants.checked", lambda a, r: len(r))
        function(invariants, "check_train_cell", "chaos.invariants", checked)
        function(invariants, "check_serve_cell", "chaos.invariants", checked)

        method(
            cache.ResultCache, "get", "perf.cache.get",
            add("perf.cache.get.hits", lambda a, r: r is not None),
        )
        method(cache.ResultCache, "put", "perf.cache.put")
        function(digest, "canonical_digest", "perf.digest")

    def restore(self) -> None:
        """Put back every original; no wrapper survives anywhere."""
        for cls, attr, original in reversed(self._class_patches):
            setattr(cls, attr, original)
        self._class_patches.clear()
        # a module imported after install() bound the wrapper itself
        for mod in _repro_modules():
            for attr, value in list(mod.__dict__.items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])

    def leftover_wrappers(self) -> list[str]:
        """Names still bound to a wrapper (empty after a clean restore)."""
        left = []
        for mod in _repro_modules():
            for attr, value in list(mod.__dict__.items()):
                if id(value) in self._originals:
                    left.append(f"{mod.__name__}.{attr}")
                elif isinstance(value, type):
                    for name, member in value.__dict__.items():
                        if id(member) in self._originals:
                            left.append(f"{mod.__name__}.{attr}.{name}")
        return left

    # -- results ------------------------------------------------------------
    def span_totals(self) -> dict[str, list[float]]:
        """``name -> [calls, self seconds]``; self time is the span's
        duration minus the durations of its direct child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return totals

    def descendant_counts(self, ancestor: str, name: str) -> list[int]:
        """For each ``ancestor`` span, how many ``name`` spans ran under it."""
        per: dict[int, int] = {}
        parents = [s[3] for s in self.spans]
        for i, span in enumerate(self.spans):
            if span[0] == ancestor:
                per.setdefault(i, 0)
        for i, span in enumerate(self.spans):
            if span[0] != name:
                continue
            p = parents[i]
            while p >= 0:
                if p in per:
                    per[p] += 1
                p = parents[p]
        return [per[i] for i in sorted(per)]

    def layer_metrics(self) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` entry (0 where a layer never ran)."""
        out = {name: 0.0 for name in LAYER_METRICS}
        for span_name, (calls, self_s) in self.span_totals().items():
            calls_key, self_key = _SPAN_METRICS[span_name]
            if calls_key:
                out[calls_key] = calls
            if self_key:
                out[self_key] = self_s
        out["transport.select.calls"] = self.counts["transport.select"]
        out["serve.route.calls"] = self.counts["serve.route"]
        batches = self.counts["serve.batches"]
        out["serve.batches"] = batches
        out["serve.batch_fill"] = (
            self.sums["serve.batch_fill_sum"] / batches if batches else 0.0
        )
        for key in (
            "parallel.planner.candidates", "parallel.planner.infeasible",
            "horovod.messages", "horovod.message_bytes", "serve.requests",
            "chaos.invariants.checked",
        ):
            out[key] = self.sums[key]
        gets = out["perf.cache.get.calls"]
        out["perf.cache.hit_ratio"] = (
            self.sums["perf.cache.get.hits"] / gets if gets else 0.0
        )
        hits = misses = 0
        for rc in self.objects["regcache"].values():
            stats = rc.stats()
            hits += stats["hits"]
            misses += stats["misses"]
        out["regcache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        fp = Counter()
        for session in self.objects["fastpath"].values():
            fp.update(session.stats())
        for key in (
            "exact_transfers", "replayed_transfers", "memo_entries",
            "invalidations",
        ):
            out[f"fastpath.{key}"] = fp[key]
        costed = fp["replayed_transfers"] + fp["exact_transfers"]
        out["fastpath.replay_ratio"] = (
            fp["replayed_transfers"] / costed if costed else 0.0
        )
        out["sim.engine.events"] = sum(
            env.events_processed for env in self.objects["env"].values()
        )
        unknown = set(out) - set(LAYER_METRICS)
        if unknown:
            raise KeyError(f"unlisted layer metrics {sorted(unknown)}")
        return out

    def write_spans(self, path: str) -> None:
        """Dump the spans as ``{"names": [...], "spans": [[i, s, e, p]...]}``."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append(
                [names.setdefault(name, len(names)), start, end, parent]
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh)


def _repro_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]
