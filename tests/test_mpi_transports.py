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
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        before = protocol_state(tm)
        assert tm.quote(0, 1, 64 * MIB) is None
        assert protocol_state(tm) == before
        tm.cost(0, 1, 64 * MIB)
        assert tm.quote(0, 1, 64 * MIB) is not None

    @pytest.mark.parametrize("case", [
        "cold-src", "cold-dst", "undersized", "poisoned-src", "poisoned-dst",
    ])
    def test_quote_refuses_registration_changes(self, case):
        nbytes = 16 * MIB
        config = Mv2Config(registration_cache=True)
        tm, _ = warm_pair(config, 0, 4, nbytes, new_call=True)
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
        before = protocol_state(tm)
        assert tm.quote(0, 4, nbytes, **msg) is None
        assert protocol_state(tm) == before


#: (size, registered extent) of messages spanning every transport kind's
#: selection band, each as a whole buffer and as a chunk of a larger one
CLASS_MESSAGES = tuple(
    (nbytes, extent)
    for nbytes in (8 * KIB, 1 * MIB, 64 * MIB)
    for extent in (nbytes, 4 * nbytes)
)


def partial_world(config, *, faults=None):
    """Ten ranks on three four-GPU nodes: the last node is half full."""
    env = Environment()
    cluster = Cluster(env, LASSEN, num_nodes=3)
    spec = WorldSpec(
        num_ranks=10, policy=SingletonDevicePolicy(), config=config
    )
    ranks = build_world(cluster, spec)
    return cluster, TransportModel(cluster, config, ranks, faults=faults)


def quote_fields(quote):
    return (
        quote.kind, quote.src, quote.dst, quote.nbytes, quote.staging,
        quote.total, quote.total_first, quote.ib, quote.src_buf,
        quote.dst_cache, quote.dst_buf,
    )


class TestClassPriceTable:
    """A price served from the class table equals the transfer's own."""

    @staticmethod
    def warm(tm):
        """Send every message once, so no quote is refused as cold."""
        tm.begin_collective()
        for nbytes, extent in sorted(CLASS_MESSAGES, reverse=True):
            for src in tm.ranks:
                for dst in tm.ranks:
                    tm.cost(src, dst, nbytes, buffer_extent=extent)
        tm.begin_collective()

    @staticmethod
    def served_equals_fresh(tm):
        """Quote every pair through the table, then each again from an
        empty table; returns the table-served timings by message and leaves
        the table as the first pass filled it."""
        served = {
            (src, dst, nbytes, extent): tm.quote(
                src, dst, nbytes, buffer_extent=extent
            )
            for nbytes, extent in CLASS_MESSAGES
            for src in tm.ranks
            for dst in tm.ranks
        }
        table = dict(tm.price_table)
        assert 0 < len(table) < len(served)  # pairs really share prices
        for (src, dst, nbytes, extent), quote in served.items():
            tm.price_table.clear()
            fresh = tm.quote(src, dst, nbytes, buffer_extent=extent)
            assert quote_fields(quote) == quote_fields(fresh)
        tm.price_table.update(table)
        return {
            msg: (q.kind, q.staging, q.total, q.total_first)
            for msg, q in served.items()
        }

    @pytest.mark.parametrize(
        "visible", [None, "all"], ids=["MPI", "MPI-Opt"]
    )
    @pytest.mark.parametrize("regcache", [True, False], ids=["cache", "no-cache"])
    def test_table_price_equals_fresh_price(self, visible, regcache):
        config = Mv2Config(
            mv2_visible_devices=visible, registration_cache=regcache
        )
        _, tm = partial_world(config)
        self.warm(tm)
        kinds = {q[0] for q in self.served_equals_fresh(tm).values()}
        assert TransportKind.GDR_RDMA in kinds
        assert (TransportKind.CUDA_IPC in kinds) == (visible == "all")

    def test_link_fault_pins_prices_to_the_clock(self):
        from repro.faults import FaultInjector, FaultPlan, LinkFault

        plan = FaultPlan(faults=(
            LinkFault(bandwidth_factor=0.5, latency_add_s=1e-5, start=1.0),
        ))
        cluster, tm = partial_world(
            Mv2Config(mv2_visible_devices="all"), faults=FaultInjector(plan)
        )
        self.warm(tm)
        healthy = self.served_equals_fresh(tm)
        cluster.env.run(until=2.0)
        degraded = self.served_equals_fresh(tm)
        # the clock move emptied the table: it holds only degraded prices
        assert set(tm.price_table.values()) == {
            price[1:] for price in degraded.values()
        }
        slower = [m for m in healthy if degraded[m][2] > healthy[m][2]]
        assert slower  # the degraded window really changes prices

    @pytest.mark.parametrize("algorithm", ["ring", "hierarchical"])
    def test_table_size_does_not_grow_with_ranks(self, algorithm):
        from repro.mpi.collectives.allreduce import allreduce_timing
        from repro.sim.fastpath import enable_fastpath
        from tests.test_mpi_collectives import make_world as collective_world

        sizes = []
        for num_gpus in (16, 128):
            world = collective_world(num_gpus)
            enable_fastpath(world)
            for _ in range(3):
                allreduce_timing(
                    world.coster, list(range(num_gpus)), 256 * MIB,
                    algorithm=algorithm,
                )
            sizes.append(len(world.transport.price_table))
        assert sizes[0] == sizes[1] > 0
