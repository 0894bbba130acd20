"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition pays
the real set-up (import of ``repro``) and reports its own memory
high-water mark (``ru_maxrss`` only grows within a process).  The script
prints one JSON object as the last line of its standard output.

Modes:

* ``cold``   — set up with a fresh result cache, run the workload once
  (``wall_s``), filling the cache, then re-run it warm against that cache
  (a figure script run again);
* ``trace``  — a cold and one warm run with every layer boundary wrapped by
  :class:`tracer.Tracer`; reports the per-layer metrics and writes the
  spans to ``--spans``;
* ``record`` — one cold run whose items are written to ``--out`` (used by
  ``record_references.py``).

Every run reports each step's time (see ``workloads.Workload.steps``).
While a ``cold`` repetition runs, a :class:`SpeedProbe` times
:func:`speed_kernel`, a fixed pure-Python job, every ``SPEED_EVERY_S``, so
that ``run.py`` can tell the host's speed from the program's; the probe's
own time is left out of the step it interrupted.  The memory high-water
mark is taken right after the cold run.  Warm re-runs go through a new
``ResultCache`` on the same directory (the cache keeps nothing in memory)
and repeat until they span ``WARM_MIN_S``.  A warm re-run skips the
workload's ``warm_skipped`` items, whose runs bypass the cache.  Every
run's items are checked against the reference, and warm re-runs must agree
with the cold run and must not miss the cache.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references")

#: environment prefixes that change simulated results or fold into digests
KNOB_PREFIXES = ("MV2_", "HOROVOD_", "REPRO_SIM_", "REPRO_PERF_")

#: warm re-runs per process: at least WARM_MIN_RUNS, and more until they
#: span WARM_MIN_S — the host's speed drifts on a scale of a second, so a
#: sub-millisecond re-run timed in one short burst samples a single moment
WARM_MIN_RUNS = 3
WARM_MIN_S = 1.0

#: the speed probe times SPEED_RUNS speed-kernel runs every SPEED_EVERY_S
#: (a few per cent of the time), so its samples spread evenly over the
#: process's runs, long steps included
SPEED_RUNS = 2
SPEED_EVERY_S = 0.25


class _Slot:
    __slots__ = ("count", "total")

    def __init__(self):
        self.count = 0
        self.total = 0.0


def speed_kernel() -> float:
    """A fixed pure-Python job (a few ms) that times the host's speed.

    It does what the simulator's hot loops do (dict look-ups, small
    objects, float arithmetic, a heap) and uses no ``repro`` code, so a
    change to the program never changes its time; only the host does.
    """
    slots: dict[int, _Slot] = {}
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i in range(3000):
        key = (i * 7919) % 1024
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = _Slot()
        slot.count += 1
        slot.total += i * 0.5
        heapq.heappush(heap, (slot.total, i))
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
    return total


class SpeedProbe:
    """Times :func:`speed_kernel` every ``SPEED_EVERY_S`` while active.

    A ``SIGALRM`` interval timer runs the kernel in the main thread between
    two bytecodes of whatever runs then; ``spent`` adds up the probe's own
    time so that the caller can take it out of the step it interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        for _ in range(SPEED_RUNS):
            t0 = time.perf_counter()
            speed_kernel()
            self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _import_repro():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def load_reference(workload) -> dict | None:
    path = os.path.join(REFERENCES, f"{workload.name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return None
    return recorded.get(workload.reference_key)


def _timed(workload, cache, *, warm: bool = False, probe=None):
    """Time each entry-point call alone; reduce the results to items after.

    Returns ``({step: seconds}, items)``; a step's time leaves out what the
    speed ``probe`` spent inside it.  The probe's time is read inside the
    clock readings, so a tick between the two can only be counted in, never
    taken out of time the step did not spend.
    """
    times, results = {}, []
    for step, call in workload.steps(warm=warm):
        t0 = time.perf_counter()
        spent = probe.spent if probe else 0.0
        result = call(cache)
        spent = (probe.spent - spent) if probe else 0.0
        times[step] = time.perf_counter() - t0 - spent
        results.append((step, result))
    items = [i for step, r in results for i in workload.items(step, r)]
    return times, items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("cold", "trace", "record"), required=True
    )
    parser.add_argument("--spans", help="trace mode: where to write spans")
    parser.add_argument("--out", help="record mode: where to write items")
    args = parser.parse_args(argv)

    # -- set-up: import, configs, cache directory, references --------------
    _import_repro()
    import workloads
    from repro.perf.cache import ResultCache, default_cache_dir

    workload = workloads.build(args.workload, args.seed)
    cache_dir = default_cache_dir()
    os.makedirs(cache_dir)  # raises if a stale cache is in the way
    cache = ResultCache(cache_dir)
    reference = None if args.mode == "record" else load_reference(workload)
    setup_s = time.perf_counter() - _T0

    if args.mode == "record":
        _, items = _timed(workload, cache)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({workload.reference_key: dict(items)}, fh, sort_keys=True)
        report = {"items": len(items)}
    else:
        report = _measure(args, workload, cache, reference)
    report["setup_s"] = setup_s
    print(json.dumps(report, sort_keys=True))
    return 0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(args, workload, cache, reference) -> dict:
    from repro.perf.cache import ResultCache
    from workloads import canonical, item_failures

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # the traced run reports raw layer times: no probe inside its spans
    probe = SpeedProbe() if tracer is None else None
    failures: dict[str, str] = {}
    cold_times, items, warm_times, peak_rss_mib = {}, [], [], None
    try:
        with probe or contextlib.nullcontext():
            cold_times, items = _timed(workload, cache, probe=probe)
            peak_rss_mib = _peak_rss_mib()
            expected = canonical(
                [i for i in items if i[0] not in workload.warm_skipped]
            )
            warm_cache = ResultCache(cache.directory)
            warm_start = time.perf_counter()
            while len(warm_times) < WARM_MIN_RUNS or (
                tracer is None
                and time.perf_counter() - warm_start < WARM_MIN_S
            ):
                times, warm_items = _timed(
                    workload, warm_cache, warm=True, probe=probe
                )
                warm_times.append(times)
                if canonical(warm_items) != expected:
                    failures["warm"] = "a warm re-run differs from cold"
                if tracer is not None:
                    break  # one traced warm run is enough for the counts
        if warm_cache.misses:
            failures["cache"] = "a warm re-run missed the result cache"
    except Exception:  # the workload's own failure is what gets reported
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        failures["error"] = error.strip().splitlines()[-1]
    finally:
        if tracer is not None:
            tracer.restore()

    failures.update(item_failures(workload, items, reference))
    names = {n for n, _ in items} | set(failures) | set(reference or {})
    report = {
        "wall_s": sum(cold_times.values()),
        "cold_times": cold_times,
        "warm_times": warm_times,
        "speed_times": probe.samples if probe else [],
        "peak_rss_mib": peak_rss_mib or _peak_rss_mib(),  # None if it raised
        "attempted": len(names),
        "failures": failures,
        "item_digests": {
            name: hashlib.sha256(canonical(payload).encode()).hexdigest()
            for name, payload in items
        },
        "environment": _environment(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["spans"] = len(tracer.spans)
        report["leftover_wrappers"] = tracer.leftover_wrappers()
        report["transport_cost_per_point"] = tracer.descendant_counts(
            "core.study.run_point", "transport.cost"
        )
        if args.spans:
            tracer.write_spans(args.spans)
    return report


def _environment() -> dict:
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "knobs": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(KNOB_PREFIXES)
        },
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


if __name__ == "__main__":
    sys.exit(main())
