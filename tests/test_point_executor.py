"""The one step loop behind every scaling point.

Step plans per workload, and the never-firing-fault oracle: a fault plan
whose only event lies beyond the run must reproduce the clean point bit
for bit, so the clean and fault paths provably walk the same loop.  The
two documented fault-point semantics are pinned explicitly: fault points
report the un-inflated backward, and count warm-up steps as simulated.
"""

from dataclasses import replace

import pytest

from repro.core import (
    MULTISCALE_SPEC,
    VIDEO_SPEC,
    ScalingStudy,
    StudyConfig,
    scenario_by_name,
)
from repro.core.study import FRAME, GRADS, LOCAL, PARAMS
from repro.faults import FaultPlan, RankFailure
from repro.horovod.coordinator import straggler_factor

#: the only event fires long after any run ends
NEVER = FaultPlan(seed=0, faults=(RankFailure(rank=1, time=1e9),))

#: every ScalingPoint field a never-firing plan must leave bit-identical
SHARED_FIELDS = (
    "step_time",
    "images_per_second",
    "forward_time",
    "exposed_comm_time",
    "coordination_time",
    "update_time",
    "blocking_time",
    "comm_wall_time",
    "message_sizes",
    "regcache_hit_rate",
    "extrapolated_steps",
    "workload",
)

WORKLOADS = {
    "image": StudyConfig(),
    "local-sgd": StudyConfig(local_sgd_h=2),
    "zero-jitter": StudyConfig(jitter_sigma=0.0, measure_steps=10),
    "video": StudyConfig(workload=VIDEO_SPEC, measure_steps=16),
}


class TestStepPlan:
    def test_plans_per_workload(self):
        mpi_opt = scenario_by_name("MPI-Opt")
        plans = {
            name: ScalingStudy(mpi_opt, cfg).step_plan()
            for name, cfg in (
                ("image", StudyConfig()),
                ("multiscale", StudyConfig(workload=MULTISCALE_SPEC)),
                ("local-sgd", StudyConfig(local_sgd_h=3, measure_steps=3)),
                ("video", StudyConfig(workload=VIDEO_SPEC, measure_steps=8)),
            )
        }
        assert plans["image"] == (GRADS,)
        assert plans["multiscale"] == (GRADS,)
        assert plans["local-sgd"] == (LOCAL, LOCAL, PARAMS)
        assert plans["video"] == (FRAME,) * 7 + (GRADS,)


class TestNeverFiringFaultOracle:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("engine_mode", ["exact", "fast"])
    @pytest.mark.parametrize("scenario", ["MPI", "MPI-Opt", "NCCL"])
    def test_matches_clean_point(self, scenario, engine_mode, workload):
        cfg = replace(WORKLOADS[workload], engine_mode=engine_mode)
        scn = scenario_by_name(scenario)
        clean = ScalingStudy(scn, cfg).run_point(16)
        faulty = ScalingStudy(scn, cfg, fault_plan=NEVER).run_point(16)
        for name in SHARED_FIELDS:
            assert getattr(faulty, name) == getattr(clean, name), name
        # the two fault-point semantics, pinned
        assert clean.backward_time == faulty.backward_time * straggler_factor(
            16, sigma=cfg.jitter_sigma
        )
        assert faulty.simulated_steps == clean.simulated_steps + cfg.warmup_steps
        assert faulty.resilience["final_world_size"] == 16
        assert clean.resilience is None

    def test_zero_jitter_oracle_extrapolates(self):
        # the oracle covers the steady-state path, not just full walks
        cfg = WORKLOADS["zero-jitter"]
        point = ScalingStudy(
            scenario_by_name("MPI-Opt"), cfg, fault_plan=NEVER
        ).run_point(16)
        assert point.extrapolated_steps > 0
