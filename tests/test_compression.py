"""Gradient compression & communication reduction (``repro.compression``).

Pins the suite's three contracts end to end:

* **Numerics** — fp16/bf16 round-trips stay inside the dtype's ULP
  bounds (hypothesis-checked over the representable range), bf16
  truncation is idempotent and lands on the bf16 grid, and top-k error
  feedback never loses gradient mass: over *any* step sequence, what was
  sent plus what remains in the residual equals the sum of the inputs,
  exactly.
* **Wire pricing** — compressed payloads are priced at their real byte
  count everywhere on the allreduce path: ``dtype_bytes`` is threaded
  explicitly (no hard-coded ``/ 4`` survives, asserted by a source
  scan), fp16 halves the simulated allreduce time, and the engine's
  per-message records show exactly half the bytes of the fp32 run.
* **Integration** — the functional engine's compressed averages match
  the reference computation bit for bit, local-SGD replicas re-sync
  exactly on period boundaries, the periodic steady-state detector
  replays the H-step cadence, the compression autotuner emits a
  digest-keyed advisory table, and study digests keep compressed
  configurations apart (salt v6).
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    Bf16Compressor,
    CompressionConfig,
    Fp16Compressor,
    IdentityCompressor,
    TOPK_INDEX_BYTES,
    TOPK_VALUE_BYTES,
    build_compressor,
    sparse_wire_nbytes,
    sparsify_with_feedback,
    top_k_count,
    top_k_indices,
)
from repro.comm.cost import FLOAT32_BYTES, reduce_time
from repro.comm.tuning import TuningConfig, tune_compression_table
from repro.core.scenarios import scenario_by_name
from repro.core.study import ScalingStudy, StudyConfig
from repro.cuda.kernels import KernelCostModel
from repro.errors import ConfigError
from repro.hardware import LASSEN, Cluster
from repro.hardware.specs import V100_16GB
from repro.horovod import HorovodConfig, HorovodEngine
from repro.horovod.fusion import PendingTensor
from repro.mpi import MpiWorld, Mv2Config, WorldSpec
from repro.mpi.comm import GpuBuffer
from repro.mpi.datatypes import Datatype
from repro.mpi.process import SingletonDevicePolicy
from repro.perf.digest import CACHE_VERSION_SALT
from repro.perf.steady import PeriodicSteadyState
from repro.sim import Environment
from repro.utils.units import KIB, MIB

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_world(ranks, *, nodes=None):
    cluster = Cluster(Environment(), LASSEN,
                      num_nodes=nodes or max(1, (ranks + 3) // 4))
    spec = WorldSpec(num_ranks=ranks, policy=SingletonDevicePolicy(),
                     config=Mv2Config(mv2_visible_devices="all"))
    return MpiWorld(cluster, spec)


def make_engine(ranks=2, compression="none"):
    world = make_world(ranks)
    return HorovodEngine(
        world.communicator(), HorovodConfig(cycle_time_s=2e-3),
        compression=CompressionConfig.parse(compression),
    )


def run_point(num_gpus, **cfg):
    study = ScalingStudy(scenario_by_name("MPI-Opt"),
                         StudyConfig(engine_mode="fast", **cfg))
    return study.run_point(num_gpus)


class TestConfig:
    @pytest.mark.parametrize("spec,mode,ratio", [
        ("none", "none", 0.01),
        ("", "none", 0.01),
        ("fp16", "fp16", 0.01),
        ("bf16", "bf16", 0.01),
        ("topk", "topk", 0.01),
        ("topk:0.05", "topk", 0.05),
        ("TopK:0.05", "topk", 0.05),
        ("topk:1", "topk", 1.0),
    ])
    def test_parse(self, spec, mode, ratio):
        cfg = CompressionConfig.parse(spec)
        assert (cfg.mode, cfg.topk_ratio) == (mode, ratio)

    @pytest.mark.parametrize("spec", ["int8", "topk:zero", "topk:0",
                                      "topk:1.5", "fp16:0.5x"])
    def test_bad_spec_rejected(self, spec):
        with pytest.raises(ConfigError):
            CompressionConfig.parse(spec)

    def test_spec_round_trips(self):
        for spec in ("none", "fp16", "bf16", "topk:0.01", "topk:0.25"):
            cfg = CompressionConfig.parse(spec)
            assert CompressionConfig.parse(cfg.spec()) == cfg

    def test_build_compressor(self):
        assert isinstance(
            build_compressor(CompressionConfig.parse("none")),
            IdentityCompressor)
        assert isinstance(
            build_compressor(CompressionConfig.parse("fp16")), Fp16Compressor)
        assert isinstance(
            build_compressor(CompressionConfig.parse("bf16")), Bf16Compressor)
        # sparse selection is per-tensor in the engine; the dense fallback
        # (local-SGD parameter sync under topk) is identity
        assert isinstance(
            build_compressor(CompressionConfig.parse("topk:0.01")),
            IdentityCompressor)

    def test_study_config_validates(self):
        with pytest.raises(ConfigError):
            StudyConfig(compression="int8")
        with pytest.raises(ConfigError):
            StudyConfig(local_sgd_h=0)


finite_fp16_range = st.floats(
    min_value=-60000.0, max_value=60000.0, allow_nan=False,
    allow_infinity=False, width=32)
finite_bf16_range = st.floats(
    min_value=-(2.0**100), max_value=2.0**100, allow_nan=False,
    allow_infinity=False, width=32)


class TestDenseCompressors:
    @given(st.lists(finite_fp16_range, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_fp16_round_trip_ulp_bound(self, values):
        x = np.array(values, dtype=np.float32)
        comp = Fp16Compressor()
        rt = comp.decompress(comp.compress(x))
        assert rt.dtype == np.float32
        # half precision: 10 mantissa bits -> rel error <= 2^-10 for
        # normals, plus the smallest subnormal step for values near zero
        assert np.all(np.abs(rt - x) <= 2.0**-10 * np.abs(x) + 2.0**-24)

    @given(st.lists(finite_bf16_range, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bf16_round_trip_ulp_bound(self, values):
        x = np.array(values, dtype=np.float32)
        comp = Bf16Compressor()
        rt = comp.decompress(comp.compress(x))
        assert rt.dtype == np.float32
        # bfloat16: 8 mantissa bits (7 stored + implicit) -> rel <= 2^-8
        # for normals; fp32 subnormals lose the 16 truncated mantissa
        # bits absolutely (<= 2^16 ulp of 2^-149)
        assert np.all(np.abs(rt - x) <= 2.0**-8 * np.abs(x) + 2.0**-133)

    @given(st.lists(finite_bf16_range, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bf16_idempotent_on_grid(self, values):
        x = np.array(values, dtype=np.float32)
        comp = Bf16Compressor()
        once = comp.compress(x)
        # the result lives on the bf16 grid: low 16 mantissa bits cleared,
        # so a second truncation is a bitwise no-op
        assert np.all(once.view(np.uint32) & np.uint32(0xFFFF) == 0)
        assert np.array_equal(
            comp.compress(once).view(np.uint32), once.view(np.uint32))

    def test_wire_nbytes_halves(self):
        for comp in (Fp16Compressor(), Bf16Compressor()):
            assert comp.wire_nbytes(1024) == 512
        assert IdentityCompressor().wire_nbytes(1024) == 1024


class TestTopK:
    def test_top_k_count_bounds(self):
        assert top_k_count(0, 0.01) == 0
        assert top_k_count(10, 0.01) == 1     # never silently drop a tensor
        assert top_k_count(1000, 0.01) == 10
        assert top_k_count(1000, 1.0) == 1000

    def test_top_k_indices_deterministic_tie_break(self):
        flat = np.array([1.0, -2.0, 2.0, 0.5], dtype=np.float32)
        # |-2| == |2|: stable sort keeps the lower index first
        assert top_k_indices(flat, 1).tolist() == [1]
        assert top_k_indices(flat, 2).tolist() == [1, 2]

    def test_sparse_wire_nbytes(self):
        assert TOPK_INDEX_BYTES + TOPK_VALUE_BYTES == 8
        assert sparse_wire_nbytes(10) == 80

    @given(st.lists(
        st.lists(st.integers(min_value=-100, max_value=100),
                 min_size=8, max_size=8),
        min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_error_feedback_conserves_gradient_mass(self, grad_rows):
        """Over any step sequence: sent mass + residual == total gradient
        mass, element for element, exactly (integer-valued floats make
        every add exact, so the invariant holds with == not isclose)."""
        residual = np.zeros(8, dtype=np.float32)
        sent_total = np.zeros(8, dtype=np.float32)
        grand_total = np.zeros(8, dtype=np.float32)
        for row in grad_rows:
            grad = np.array(row, dtype=np.float32)
            grand_total += grad
            idx, values = sparsify_with_feedback(grad, residual, k=3)
            assert len(idx) == 3
            assert np.all(np.diff(idx) > 0)  # ascending, unique
            sent_total[idx] += values
        assert np.array_equal(sent_total + residual, grand_total)

    def test_selection_includes_deferred_mass(self):
        """A coordinate suppressed this step comes back via the residual
        and wins selection once its accumulated mass dominates."""
        residual = np.zeros(4, dtype=np.float32)
        grad = np.array([1.0, 3.0, 0.0, 0.0], dtype=np.float32)
        idx, _ = sparsify_with_feedback(grad, residual, k=1)
        assert idx.tolist() == [1]
        assert residual.tolist() == [1.0, 0.0, 0.0, 0.0]
        idx, values = sparsify_with_feedback(
            np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32), residual, k=1)
        assert idx.tolist() == [0]
        assert values.tolist() == [2.0]  # 1 deferred + 1 fresh


class TestDtypePricing:
    """Satellite: explicit dtype_bytes on the whole allreduce path."""

    #: every module on the allreduce costing path
    PRICED_FILES = (
        "comm/cost.py",
        "mpi/collectives/base.py",
        "mpi/collectives/allreduce.py",
        "mpi/collectives/allgather.py",
        "cuda/kernels.py",
        "hardware/cluster.py",
    )

    def test_float32_bytes_is_the_named_constant(self):
        assert FLOAT32_BYTES == 4
        assert Datatype.FLOAT32.size == 4
        assert Datatype.FLOAT16.size == 2

    def test_no_hardcoded_element_size_on_allreduce_path(self):
        """No ``nbytes / 4`` (or ``// 4``) survives: element counts must
        go through ``reduce_elements(nbytes, dtype_bytes)``."""
        pattern = re.compile(r"nbytes\s*//?\s*4\b")
        for rel in self.PRICED_FILES:
            text = (SRC / rel).read_text()
            assert not pattern.search(text), f"hard-coded /4 in {rel}"

    def test_host_reduce_scales_with_dtype_bytes(self):
        # same element count -> same cost, regardless of byte width
        assert reduce_time(1024, 4, reduce_flops=1e9) == reduce_time(
            512, 2, reduce_flops=1e9)

    def test_device_reduce_cheaper_at_half_width(self):
        model = KernelCostModel(V100_16GB)
        assert model.device_reduce_time(16 * MIB // 2, 2) <= \
            model.device_reduce_time(16 * MIB, 4)

    def test_fp16_allreduce_faster_than_fp32(self):
        # pin the algorithm and stay large enough that both chunk widths
        # ride CUDA IPC: halving the bytes can legitimately be *slower*
        # when the smaller chunks fall under the IPC threshold into host
        # staging with CPU-side reductions — that protocol cliff is the
        # autotuner's problem, not a pricing bug
        comm = make_world(4).communicator()
        n = 64 * MIB
        fp32 = comm.allreduce(
            [GpuBuffer.virtual(n) for _ in range(4)], algorithm="ring").time
        fp16 = comm.allreduce(
            [GpuBuffer.virtual(n // 2, Datatype.FLOAT16) for _ in range(4)],
            algorithm="ring").time
        assert fp16 < fp32


class TestEngineWire:
    """Compression changes the bytes the simulated fabric carries."""

    def test_fp16_halves_every_message(self):
        dense = run_point(8)
        fp16 = run_point(8, compression="fp16")
        assert len(fp16.message_sizes) == len(dense.message_sizes)
        assert fp16.message_sizes == [n // 2 for n in dense.message_sizes]

    def test_bf16_halves_every_message(self):
        dense = run_point(8)
        bf16 = run_point(8, compression="bf16")
        assert bf16.message_sizes == [n // 2 for n in dense.message_sizes]

    def test_topk_shrinks_wire_bytes(self):
        dense = run_point(8)
        sparse = run_point(8, compression="topk:0.01")
        # ~1% of elements at 8 bytes each vs 4 -> ~2% of dense bytes,
        # plus the min-1-element floor on tiny tensors
        assert sum(sparse.message_sizes) < sum(dense.message_sizes) / 40
        assert all(n % sparse_wire_nbytes(1) == 0
                   for n in sparse.message_sizes)

    def test_local_sgd_reduces_comm_steps(self):
        dense = run_point(8, warmup_steps=1, measure_steps=8)
        local = run_point(8, warmup_steps=1, measure_steps=8, local_sgd_h=4)
        # one parameter sync per 4 steps instead of a gradient
        # allreduce every step
        assert len(local.message_sizes) < len(dense.message_sizes)
        assert local.images_per_second > dense.images_per_second


class TestFunctionalParity:
    """The functional numpy path computes the compressed average the
    reference formula predicts — bit for bit."""

    def _run(self, compression, g0, g1):
        engine = make_engine(2, compression)
        data = [g0.copy(), g1.copy()]
        stream = [PendingTensor("grad", nbytes=g0.nbytes, ready_time=0.0,
                                data=data)]
        engine.run_step(stream, backward_time=0.0)
        assert np.array_equal(data[0], data[1])  # SPMD invariant
        assert data[0].dtype == np.float32
        return data[0]

    @pytest.fixture()
    def grads(self):
        rng = np.random.default_rng(3)
        shape = (64,)
        return (rng.normal(size=shape).astype(np.float32),
                rng.normal(size=shape).astype(np.float32))

    def test_dense_average(self, grads):
        g0, g1 = grads
        out = self._run("none", g0, g1)
        assert np.array_equal(out, (g0 + g1) / 2)

    def test_fp16_average(self, grads):
        g0, g1 = grads
        out = self._run("fp16", g0, g1)
        expected = ((g0.astype(np.float16) + g1.astype(np.float16)) / 2
                    ).astype(np.float32)
        assert np.array_equal(out, expected)

    def test_bf16_average(self, grads):
        g0, g1 = grads
        comp = Bf16Compressor()
        out = self._run("bf16", g0, g1)
        expected = comp.compress(
            (comp.compress(g0) + comp.compress(g1)) / 2)
        assert np.array_equal(out, expected)

    def test_topk_full_ratio_is_exact(self, grads):
        g0, g1 = grads
        out = self._run("topk:1", g0, g1)
        assert np.array_equal(out, (g0 + g1) / 2)

    def test_topk_partial_ratio_tracks_dense(self, grads):
        g0, g1 = grads
        engine = make_engine(2, "topk:0.25")
        data = [g0.copy(), g1.copy()]
        stream = [PendingTensor("grad", nbytes=g0.nbytes, ready_time=0.0,
                                data=data)]
        engine.run_step(stream, backward_time=0.0)
        out = data[0]
        # sparse step only transmits selected coordinates; the rest stay 0
        # this step (their mass is deferred into per-rank residuals)
        k = top_k_count(g0.size, 0.25)
        nonzero = out != 0
        assert 0 < nonzero.sum() <= 2 * k
        # both ranks accumulated error feedback for the next step
        assert {key[1] for key in engine._topk_residuals} == {"grad"}
        assert len(engine._topk_residuals) == 2
        assert all(np.any(r != 0) for r in engine._topk_residuals.values())


class TestLocalSgdTrainer:
    def _trainer(self, h, ranks=2):
        from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
        from repro.models import EDSR, EDSR_TINY
        from repro.trainer import DistributedTrainer

        engine = make_engine(ranks)
        dataset = SRDataset(SyntheticDiv2k(height=24, width=24, seed=7),
                            split="train",
                            degradation=DegradationConfig(scale=2))
        return DistributedTrainer(
            lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
            engine, dataset, batch_per_rank=1, lr_patch=8, local_sgd_h=h)

    def test_replicas_sync_on_period_boundary(self):
        trainer = self._trainer(h=2)
        trainer.train(4)  # steps 0..3; step 3 is a sync step
        assert trainer.replicas_in_sync()

    def test_replicas_diverge_mid_period(self):
        trainer = self._trainer(h=2)
        trainer.train(3)  # last step is a local step
        assert not trainer.replicas_in_sync()

    def test_h1_is_synchronous_sgd(self):
        trainer = self._trainer(h=1)
        trainer.train(3)
        assert trainer.replicas_in_sync()

    def test_invalid_h_rejected(self):
        with pytest.raises(ConfigError):
            self._trainer(h=0)


class TestPeriodicSteadyState:
    def test_requires_positive_period(self):
        with pytest.raises(ConfigError):
            PeriodicSteadyState(0)

    def _converge(self, det, phases=(1.0, 2.0, 3.0), periods=3):
        for _ in range(periods):
            for phase, value in enumerate(phases):
                det.observe(value, phase)

    def test_converges_only_on_period_boundary(self):
        det = PeriodicSteadyState(3, window=3)
        self._converge(det)
        assert det.converged()
        det.observe(1.0, 0)  # mid-period again
        assert not det.converged()

    def test_leading_partial_period_ignored(self):
        det = PeriodicSteadyState(3, window=2)
        # run joins mid-period: phases 1, 2 arrive before any phase 0
        det.observe(99.0, 1)
        det.observe(99.0, 2)
        self._converge(det, periods=2)
        assert det.converged()
        assert det.phase_value(1) == 2.0  # partial-period 99s never counted

    def test_extrapolate_cycles_phases(self):
        det = PeriodicSteadyState(3, window=3)
        self._converge(det)
        assert det.extrapolate(1, 5) == [2.0, 3.0, 1.0, 2.0, 3.0]
        assert det.phase_value(4) == 2.0

    def test_phase_value_before_convergence_raises(self):
        det = PeriodicSteadyState(3)
        with pytest.raises(ConfigError):
            det.phase_value(0)

    def test_rearm_resets_everything(self):
        det = PeriodicSteadyState(3, window=2)
        self._converge(det)
        assert det.converged()
        det.rearm()
        assert not det.converged()
        # post-rearm samples wait for a fresh phase-0 boundary again
        det.observe(7.0, 2)
        self._converge(det, phases=(4.0, 5.0, 6.0), periods=2)
        assert det.converged()
        assert det.phase_value(2) == 6.0


class TestCompressionTuner:
    CFG = TuningConfig(byte_points=(4 * KIB, 1 * MIB, 16 * MIB),
                       rank_counts=(4, 16))

    def test_table_shape_and_backend_key(self):
        table = tune_compression_table(self.CFG)
        assert table.backend == "mpi+compression"
        assert table.source == "tuned"
        modes = {m for row in table.algorithms for m in row}
        assert modes <= {"none", "fp16", "topk:0.01"}
        assert table.extra["topk_ratio"] == 0.01

    def test_memoized_and_deterministic(self):
        assert tune_compression_table(self.CFG) is tune_compression_table(
            self.CFG)

    def test_cells_are_argmin_of_reported_timings(self):
        table = tune_compression_table(self.CFG)
        for i, nbytes in enumerate(self.CFG.byte_points):
            for j, ranks in enumerate(self.CFG.rank_counts):
                cell = table.extra["timings"][f"{nbytes}x{ranks}"]
                assert table.algorithms[i][j] == min(cell, key=cell.get)

    def test_every_cell_times_all_candidates(self):
        table = tune_compression_table(self.CFG)
        assert len(table.extra["timings"]) == (
            len(self.CFG.byte_points) * len(self.CFG.rank_counts))
        for cell in table.extra["timings"].values():
            assert set(cell) == {"none", "fp16", "topk:0.01"}
            assert all(t > 0 for t in cell.values())


class TestDigests:
    def test_cache_salt_bumped_for_compression(self):
        assert CACHE_VERSION_SALT == "repro-perf-v10"

    def test_compression_folds_into_point_digest(self):
        scenario = scenario_by_name("MPI-Opt")
        base = ScalingStudy(scenario, StudyConfig()).point_digest(16)
        fp16 = ScalingStudy(
            scenario, StudyConfig(compression="fp16")).point_digest(16)
        local = ScalingStudy(
            scenario, StudyConfig(local_sgd_h=2)).point_digest(16)
        assert len({base, fp16, local}) == 3
