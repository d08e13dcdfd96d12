"""Unit tests for the Liao & Chapman CPU model (Figure 3 / Table II)."""

import pytest

from repro.analysis import ProgramAttributeDatabase
from repro.machines import POWER8, POWER9
from repro.models import predict_both, predict_cpu_time
from repro.machines import PLATFORM_P9_V100

from .kernels import build_gemm, build_rowwise, build_vecadd


def _predict(region, env, cpu=POWER9, num_threads=None):
    db = ProgramAttributeDatabase()
    bound = db.compile_region(region).bind(env)
    return predict_cpu_time(
        bound.attributes,
        bound.loadout,
        bound.parallel_iterations,
        cpu,
        num_threads=num_threads,
        env=dict(env),
    )


class TestLiaoModel:
    def test_breakdown_sums_to_total(self):
        pred = _predict(build_gemm(), {"ni": 256, "nj": 256, "nk": 256})
        assert sum(pred.breakdown().values()) == pytest.approx(pred.total_cycles)
        assert pred.seconds == pytest.approx(
            POWER9.cycles_to_seconds(pred.total_cycles)
        )

    def test_table2_constants_appear(self):
        pred = _predict(build_vecadd(), {"n": 1024}, num_threads=8)
        comps = pred.breakdown()
        assert comps["Schedule_c"] == 10154
        assert comps["Fork_c"] == 3000  # team scale 1.0 at 8 threads
        assert comps["Join_c"] == 4000

    def test_team_scaling_inflates_fork_join(self):
        small = _predict(build_vecadd(), {"n": 100_000}, num_threads=8)
        wide = _predict(build_vecadd(), {"n": 100_000}, num_threads=160)
        assert wide.fork_cycles > 50 * small.fork_cycles
        assert wide.join_cycles > 50 * small.join_cycles

    def test_more_threads_shrink_chunk(self):
        env = {"ni": 1024, "nj": 1024, "nk": 1024}
        four = _predict(build_gemm(), env, num_threads=4)
        wide = _predict(build_gemm(), env, num_threads=160)
        assert wide.chunk_cycles < four.chunk_cycles

    def test_machine_cycles_positive(self):
        pred = _predict(build_rowwise(), {"n": 2048})
        assert pred.machine_cycles_per_iter > 0

    def test_power8_slower_than_power9_on_vector_kernels(self):
        env = {"n": 4096}
        p8 = _predict(build_rowwise(), env, cpu=POWER8)
        p9 = _predict(build_rowwise(), env, cpu=POWER9)
        assert p9.seconds < p8.seconds

    def test_loop_overhead_proportional_to_chunk(self):
        env = {"n": 160_000}
        pred = _predict(build_vecadd(), env, num_threads=160)
        assert pred.loop_overhead_cycles == pytest.approx(
            POWER9.loop_overhead_per_iter * 1000
        )

    def test_tlb_cost_kicks_in_for_huge_chunks(self):
        # one thread walks the whole matrix: pages >> TLB entries
        env = {"ni": 4096, "nj": 4096, "nk": 4096}
        pred = _predict(build_gemm(), env, num_threads=1)
        assert pred.cache_cycles > 0

    def test_static_mode_without_env(self):
        """Compile-time only prediction: the 128-iteration abstraction."""
        region = build_gemm()
        db = ProgramAttributeDatabase()
        attrs = db.compile_region(region)
        pred = predict_cpu_time(
            attrs, attrs.static_loadout, 1100, POWER9, env=None
        )
        assert pred.seconds > 0


class TestSelector:
    def test_selection_consistency(self):
        db = ProgramAttributeDatabase()
        bound = db.compile_region(build_gemm()).bind(
            {"ni": 1024, "nj": 1024, "nk": 1024}
        )
        sel = predict_both(bound, PLATFORM_P9_V100)
        assert sel.offload == (sel.gpu.seconds < sel.cpu.seconds)
        assert sel.winner in ("cpu", "gpu")
        assert sel.predicted_speedup == pytest.approx(
            sel.cpu.seconds / sel.gpu.seconds
        )

    def test_calibration_scales_outputs(self):
        from repro.calibrate import ModelCalibration

        db = ProgramAttributeDatabase()
        bound = db.compile_region(build_gemm()).bind(
            {"ni": 512, "nj": 512, "nk": 512}
        )
        raw = predict_both(bound, PLATFORM_P9_V100)
        cal = ModelCalibration("x", None, cpu_time_scale=2.0, gpu_time_scale=1.0)
        scaled = predict_both(bound, PLATFORM_P9_V100, calibration=cal)
        assert scaled.cpu.seconds == pytest.approx(2 * raw.cpu.seconds)
        # gpu scale 1.0: transfer/launch unchanged
        assert scaled.gpu.seconds == pytest.approx(raw.gpu.seconds)

    def test_gpu_calibration_spares_transfer(self):
        from repro.calibrate import ModelCalibration

        db = ProgramAttributeDatabase()
        bound = db.compile_region(build_vecadd()).bind({"n": 1 << 22})
        raw = predict_both(bound, PLATFORM_P9_V100)
        cal = ModelCalibration("x", None, cpu_time_scale=1.0, gpu_time_scale=0.5)
        scaled = predict_both(bound, PLATFORM_P9_V100, calibration=cal)
        assert scaled.gpu.kernel_seconds == pytest.approx(
            0.5 * raw.gpu.kernel_seconds
        )
        assert scaled.gpu.transfer.total_seconds == pytest.approx(
            raw.gpu.transfer.total_seconds
        )

    def test_static_tripcount_mode_differs(self):
        db = ProgramAttributeDatabase()
        bound = db.compile_region(build_gemm()).bind(
            {"ni": 9600, "nj": 9600, "nk": 9600}
        )
        dynamic = predict_both(bound, PLATFORM_P9_V100)
        static = predict_both(
            bound, PLATFORM_P9_V100, use_runtime_tripcounts=False
        )
        # 9600-iteration inner loops vs the 128 abstraction: a big gap
        assert dynamic.cpu.seconds > 10 * static.cpu.seconds
