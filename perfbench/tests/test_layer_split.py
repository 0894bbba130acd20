"""Layer-split sanity: each workload stresses the layers it was chosen for.

Runs every workload once traced (on the checkout it lives in) and checks
the per-layer counts that justify the workload set::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from run import ROOT, cache_slot, run_rep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: layers whose work must be nonzero on each workload
MUST_RUN = {
    "paper_sweep": (
        "core.study.run_point.calls", "horovod.run_step.calls",
        "collectives.calls", "collectives.run_steps.calls",
        "transport.cost.calls", "regcache.acquire.calls",
        "fastpath.exact_transfers", "perf.cache.get.calls",
        "perf.cache.put.calls", "perf.digest.calls",
    ),
    "hybrid_plan": (
        "core.study.run_point.calls", "parallel.executor.run.calls",
        "parallel.planner.candidates", "horovod.run_step.calls",
        "collectives.calls", "transport.cost.calls",
        "fastpath.replayed_transfers", "perf.cache.get.calls",
    ),
    "chaos_campaign": (
        "core.study.run_point.calls", "faults.queries", "resilience.polls",
        "chaos.invariants.checked", "fastpath.invalidations",
        "sim.engine.events", "serve.requests", "perf.cache.put.calls",
    ),
    "serve_bursty": (
        "sim.engine.events", "serve.requests", "serve.route.calls",
        "serve.batches", "serve.batch_fill", "perf.cache.get.calls",
    ),
}


@pytest.fixture(scope="module")
def traced():
    reports = {}
    for workload in WORKLOADS:
        with cache_slot(f"test-{workload}") as cache_dir:
            reports[workload] = run_rep(workload, 0, "trace", cache_dir)
    return reports


def layers(traced, workload):
    return traced[workload]["layers"]


def test_traced_outputs_match_references(traced):
    for workload, rep in traced.items():
        assert rep["failures"] == {}, workload
        assert rep["leftover_wrappers"] == [], workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_chosen_layers_run(traced, workload):
    idle = [m for m in MUST_RUN[workload] if not layers(traced, workload)[m]]
    assert idle == []


def test_serve_prices_no_collective(traced):
    serve = layers(traced, "serve_bursty")
    assert serve["transport.cost.calls"] == 0
    assert serve["collectives.calls"] == 0


def test_planner_runs_no_engine_events(traced):
    assert layers(traced, "hybrid_plan")["sim.engine.events"] == 0


def test_planner_candidate_costs_more_than_any_sweep_point(traced):
    plan = layers(traced, "hybrid_plan")
    per_candidate = (
        plan["transport.cost.calls"] / plan["parallel.planner.candidates"]
    )
    per_point = traced["paper_sweep"]["transport_cost_per_point"]
    assert per_point and per_candidate > max(per_point)


def test_only_chaos_invalidates_the_fastpath_memo(traced):
    for workload in WORKLOADS:
        invalidations = layers(traced, workload)["fastpath.invalidations"]
        assert (invalidations > 0) == (workload == "chaos_campaign"), workload


def test_tracer_restores_every_original():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.perf.digest as digest
    import repro.serve.sweep as sweep
    from repro.mpi.transports import TransportModel
    from tracer import Tracer

    before = (digest.canonical_digest, sweep.canonical_digest,
              TransportModel.__dict__["cost"])
    tracer = Tracer()
    tracer.install()
    assert digest.canonical_digest is not before[0]
    assert sweep.canonical_digest is not before[1]
    tracer.restore()
    after = (digest.canonical_digest, sweep.canonical_digest,
             TransportModel.__dict__["cost"])
    assert after == before
    assert tracer.leftover_wrappers() == []


def test_refuses_to_run_without_the_program():
    """A directory holding only BENCHMARK.json and the benchmark fails."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as tmp:
        shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        with open(os.path.join(tmp, "BENCHMARK.json")) as fh:
            command = json.load(fh)["command"]
        proc = subprocess.run(
            [sys.executable if c == "python3" else c for c in command]
            + ["--workload", "serve_bursty", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
