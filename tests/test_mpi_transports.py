"""Tests for CUDA-aware transport selection and costing."""

import pytest

from repro.cuda.runtime import CudaVersion
from repro.hardware import LASSEN, Cluster
from repro.mpi import Mv2Config, WorldSpec, build_world
from repro.mpi.process import SingletonDevicePolicy, AllDevicesPolicy
from repro.mpi.transports import (
    CUDA_IPC_THRESHOLD,
    SMP_EAGER_THRESHOLD,
    TransportKind,
    TransportModel,
)
from repro.sim import Environment
from repro.utils.units import KIB, MIB


def make_world(
    num_nodes=2,
    *,
    policy=None,
    config=None,
    cuda_version=CudaVersion(10, 2),
    mode=None,
):
    env = Environment()
    cluster = Cluster(env, LASSEN, num_nodes=num_nodes)
    config = config or Mv2Config()
    spec = WorldSpec(
        num_ranks=cluster.num_gpus,
        policy=policy or SingletonDevicePolicy(),
        config=config,
        cuda_version=cuda_version,
    )
    ranks = build_world(cluster, spec)
    return cluster, TransportModel(cluster, config, ranks)


class TestSelection:
    def test_self_transport(self):
        _, tm = make_world(1)
        assert tm.select(0, 0, 1 * MIB) is TransportKind.SELF

    def test_small_intra_node_always_smp_eager(self):
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        assert tm.select(0, 1, SMP_EAGER_THRESHOLD) is TransportKind.SMP_EAGER

    def test_default_config_loses_ipc_under_singleton_mask(self):
        """The paper's default: CUDA_VISIBLE_DEVICES=local_rank kills IPC."""
        _, tm = make_world(1)  # no MV2_VISIBLE_DEVICES
        assert tm.select(0, 1, 64 * MIB) is TransportKind.HOST_STAGED

    def test_mv2_visible_devices_restores_ipc(self):
        """The paper's MPI-Opt: MV2_VISIBLE_DEVICES=all restores IPC."""
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        assert tm.select(0, 1, 64 * MIB) is TransportKind.CUDA_IPC

    def test_mv2_visible_devices_ineffective_pre_cuda_10_1(self):
        """Before CUDA 10.1 the override can't work (cuIpcOpenMemHandle fails)."""
        _, tm = make_world(
            1,
            config=Mv2Config(mv2_visible_devices="all"),
            cuda_version=CudaVersion(10, 0),
        )
        assert tm.select(0, 1, 64 * MIB) is TransportKind.HOST_STAGED

    def test_all_devices_policy_gets_ipc_without_override(self):
        """Legacy workaround (Fig 6a): full visibility => IPC works."""
        _, tm = make_world(1, policy=AllDevicesPolicy())
        assert tm.select(0, 1, 64 * MIB) is TransportKind.CUDA_IPC

    def test_medium_intra_node_stays_staged_even_with_ipc(self):
        """IPC only engages above its threshold (Table I: no gain <16MB)."""
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        assert tm.select(0, 1, 1 * MIB) is TransportKind.HOST_STAGED
        assert tm.select(0, 1, CUDA_IPC_THRESHOLD) is TransportKind.CUDA_IPC

    def test_ipc_disabled_by_config(self):
        _, tm = make_world(
            1, config=Mv2Config(mv2_visible_devices="all", cuda_ipc_enabled=False)
        )
        assert tm.select(0, 1, 64 * MIB) is TransportKind.HOST_STAGED

    def test_inter_node_small_eager(self):
        _, tm = make_world(2)
        assert tm.select(0, 4, 8 * KIB) is TransportKind.IB_EAGER

    def test_inter_node_large_gdr(self):
        _, tm = make_world(2)
        assert tm.select(0, 4, 64 * MIB) is TransportKind.GDR_RDMA

    def test_inter_node_gdr_disabled_stages(self):
        _, tm = make_world(2, config=Mv2Config(gdr_enabled=False))
        assert tm.select(0, 4, 64 * MIB) is TransportKind.STAGED_INTER


class TestCosts:
    def test_ipc_beats_staging_under_concurrency(self):
        """A lone staged copy is competitive, but when all four ranks
        transfer at once the staged path serializes on the node's staging
        engines while IPC runs conflict-free — the mechanism behind
        Table I's ~50% wins."""
        from repro.mpi.collectives.base import ExecutionMode, PairTransfer, StepCoster

        pairs = [PairTransfer(s, d, 32 * MIB) for s, d in
                 [(0, 1), (1, 2), (2, 3), (3, 0)]]
        _, tm_opt = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        _, tm_def = make_world(1)
        opt_step = StepCoster(tm_opt, ExecutionMode.ANALYTIC).step_time_analytic(pairs)
        def_step = StepCoster(tm_def, ExecutionMode.ANALYTIC).step_time_analytic(pairs)
        assert def_step > 1.5 * opt_step

    def test_staging_dominated_by_pageable_bandwidth(self):
        _, tm = make_world(1)
        nbytes = 64 * MIB
        bd = tm.cost(0, 1, nbytes)
        assert bd.staging > bd.wire
        floor = nbytes / LASSEN.node.pageable_copy_bandwidth
        assert bd.staging >= floor

    def test_regcache_removes_registration_cost_on_reuse(self):
        _, tm = make_world(2, config=Mv2Config(registration_cache=True))
        nbytes = 64 * MIB
        tm.begin_collective()
        first = tm.cost(0, 4, nbytes, src_buffer=7, dst_buffer=8).total
        tm.begin_collective()
        second = tm.cost(0, 4, nbytes, src_buffer=7, dst_buffer=8).total
        assert second < first
        stats = tm.regcache_stats()
        assert stats["hits"] == 2 and stats["misses"] == 2

    def test_no_regcache_pays_every_time(self):
        _, tm = make_world(2, config=Mv2Config(registration_cache=False))
        nbytes = 64 * MIB
        tm.begin_collective()
        first = tm.cost(0, 4, nbytes, src_buffer=7, dst_buffer=8).total
        tm.begin_collective()
        second = tm.cost(0, 4, nbytes, src_buffer=7, dst_buffer=8).total
        assert second == pytest.approx(first)
        assert tm.regcache_stats()["hit_rate"] == 0.0

    def test_ipc_setup_amortized_per_pair(self):
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        nbytes = 64 * MIB
        first = tm.cost(0, 1, nbytes).total
        second = tm.cost(0, 1, nbytes).total
        assert second < first

    def test_gdr_cost_bounded_by_ib_wire_time(self):
        cluster, tm = make_world(2, config=Mv2Config(registration_cache=True))
        nbytes = 64 * MIB
        tm.cost(0, 4, nbytes, src_buffer=1, dst_buffer=2)  # warm cache
        bd = tm.cost(0, 4, nbytes, src_buffer=1, dst_buffer=2)
        wire_floor = nbytes / LASSEN.ib.bandwidth
        assert bd.total == pytest.approx(wire_floor, rel=0.2)

    def test_stats_accumulate(self):
        _, tm = make_world(2)
        tm.cost(0, 1, 64 * MIB)
        tm.cost(0, 4, 64 * MIB)
        assert tm.stats.transfers[TransportKind.HOST_STAGED] == 1
        assert tm.stats.transfers[TransportKind.GDR_RDMA] == 1


class TestEventMode:
    def test_transfer_proc_matches_cost(self):
        cluster, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        nbytes = 64 * MIB
        env = cluster.env
        # pre-pay the one-time IPC setup so both paths see steady state
        tm.cost(0, 1, nbytes)
        expected = tm.cost(0, 1, nbytes).total
        start = env.now
        p = env.process(tm.transfer_proc(0, 1, nbytes))
        env.run(until=p)
        assert env.now - start == pytest.approx(expected, rel=1e-6)

    def test_concurrent_staged_transfers_contend_for_engines(self):
        cluster, tm = make_world(1)
        nbytes = 64 * MIB
        single = tm.cost(0, 1, nbytes).staging
        env = cluster.env
        start = env.now
        # 4 concurrent staged transfers, 2 staging engines -> ~2x makespan
        procs = [
            env.process(tm.transfer_proc(src, dst, nbytes))
            for src, dst in [(0, 1), (1, 2), (2, 3), (3, 0)]
        ]
        env.run(until=env.all_of(procs))
        elapsed = env.now - start
        assert elapsed > 1.8 * single
        assert elapsed < 2.6 * single


def protocol_state(tm):
    """Everything a transfer's costing can change, in comparable form."""
    caches = {
        nid: (
            ib.eager_sends, ib.rndv_sends,
            ib.reg_cache.hits, ib.reg_cache.misses,
            ib.reg_cache.evictions, ib.reg_cache.invalidations,
            list(ib.reg_cache._entries.items()),  # LRU order included
            sorted(ib.reg_cache._txn), sorted(ib.reg_cache._poisoned),
        )
        for nid, ib in tm._ib.items()
    }
    return (
        dict(tm.stats.bytes_moved), dict(tm.stats.transfers),
        dict(tm.staged_seconds), sorted(tm._ipc_pairs), caches,
    )


#: one message per transport kind: (kind, src, dst, nbytes, config overrides)
QUOTE_CASES = [
    (TransportKind.SELF, 0, 0, 1 * MIB, {}),
    (TransportKind.SMP_EAGER, 0, 1, 8 * KIB, {}),
    (TransportKind.HOST_STAGED, 0, 1, 1 * MIB, {}),
    (TransportKind.CUDA_IPC, 0, 1, 64 * MIB, {"mv2_visible_devices": "all"}),
    (TransportKind.IB_EAGER, 0, 4, 8 * KIB, {}),
    (TransportKind.GDR_RDMA, 0, 4, 16 * MIB, {}),
    (TransportKind.STAGED_INTER, 0, 4, 16 * MIB, {"gdr_enabled": False}),
]
MESSAGE = dict(src_buffer=7, dst_buffer=8)


def warm_pair(config, src, dst, nbytes, *, new_call):
    """Two identical transports, each having sent the message once and then
    another one (so the message's registrations are not the most recently
    used); with ``new_call`` the next send opens a fresh MPI call."""
    worlds = []
    for _ in range(2):
        _, tm = make_world(2, config=config)
        tm.begin_collective()
        tm.cost(src, dst, nbytes, buffer_extent=4 * nbytes, **MESSAGE)
        tm.cost(src, dst, nbytes, buffer_extent=4 * nbytes,
                src_buffer=5, dst_buffer=6)
        if new_call:
            tm.begin_collective()
        worlds.append(tm)
    return worlds


class TestQuote:
    """``quote`` + ``apply`` is an exact, pure-then-apply twin of ``cost``."""

    @pytest.mark.parametrize(
        "kind,src,dst,nbytes,overrides", QUOTE_CASES,
        ids=[case[0].value for case in QUOTE_CASES],
    )
    @pytest.mark.parametrize("regcache", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("new_call", [True, False], ids=["first", "in-call"])
    @pytest.mark.parametrize("times", [1, 3])
    def test_quote_apply_equals_cost(
        self, kind, src, dst, nbytes, overrides, regcache, new_call, times
    ):
        config = Mv2Config(registration_cache=regcache, **overrides)
        quoted, costed = warm_pair(config, src, dst, nbytes, new_call=new_call)
        msg = dict(buffer_extent=4 * nbytes, **MESSAGE)
        before = protocol_state(quoted)
        quote = quoted.quote(src, dst, nbytes, **msg)
        assert protocol_state(quoted) == before  # quoting is pure
        assert quote is not None and quote.kind is kind
        total = quoted.apply(quote, times)
        totals = [costed.cost(src, dst, nbytes, **msg) for _ in range(times)]
        assert totals[0].kind is kind
        assert total == totals[0].total  # bit-equal, not approximately
        assert protocol_state(quoted) == protocol_state(costed)

    def test_disabled_receiver_first_advertisement_costs_more(self):
        config = Mv2Config(registration_cache=False)
        tm, _ = warm_pair(config, 0, 4, 16 * MIB, new_call=True)
        quote = tm.quote(0, 4, 16 * MIB, buffer_extent=64 * MIB, **MESSAGE)
        assert quote.total_first > quote.total
        assert not quote.settled()
        assert tm.apply(quote) == quote.total_first
        assert quote.settled()
        assert tm.apply(quote) == quote.total

    def test_quote_refuses_unopened_ipc_pair(self):
        from repro.sim.fastpath import MutationClock

        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        tm.set_mutation_clock(MutationClock())
        before = protocol_state(tm)
        assert tm.quote(0, 1, 64 * MIB) is None
        assert protocol_state(tm) == before
        assert tm.mutation_clock.value == 0
        tm.cost(0, 1, 64 * MIB)
        assert tm.quote(0, 1, 64 * MIB) is not None

    @pytest.mark.parametrize("case", [
        "cold-src", "cold-dst", "undersized", "poisoned-src", "poisoned-dst",
    ])
    def test_quote_refuses_registration_changes(self, case):
        from repro.sim.fastpath import MutationClock

        nbytes = 16 * MIB
        config = Mv2Config(registration_cache=True)
        tm, _ = warm_pair(config, 0, 4, nbytes, new_call=True)
        tm.set_mutation_clock(MutationClock())
        msg = dict(buffer_extent=4 * nbytes, **MESSAGE)
        assert tm.quote(0, 4, nbytes, **msg) is not None
        if case == "cold-src":
            msg["src_buffer"] = 99
        elif case == "cold-dst":
            msg["dst_buffer"] = 99
        elif case == "undersized":
            msg["buffer_extent"] = 8 * nbytes
        elif case == "poisoned-src":
            tm._ib[0].reg_cache.poison(MESSAGE["src_buffer"])
        else:
            tm._ib[1].reg_cache.poison(MESSAGE["dst_buffer"])
        clock = tm.mutation_clock.value
        before = protocol_state(tm)
        assert tm.quote(0, 4, nbytes, **msg) is None
        assert protocol_state(tm) == before
        assert tm.mutation_clock.value == clock
