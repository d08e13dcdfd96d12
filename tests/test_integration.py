"""Cross-module integration and property tests.

Invariants that must hold across the whole pipeline: determinism,
monotonicity in problem size and resources, consistency between the
binary and multi-device runtimes, and conservation laws of the launch
records.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import ProgramAttributeDatabase, compile_attributes
from repro.machines import PLATFORM_P8_K80, PLATFORM_P9_V100
from repro.models import predict_both
from repro.polybench import benchmark_by_name
from repro.runtime import ModelGuided, OffloadingRuntime, Oracle
from repro.sim import simulate_cpu, simulate_gpu_kernel

from .kernels import build_gemm, build_vecadd


class TestDeterminism:
    def test_predictions_are_pure(self):
        db = ProgramAttributeDatabase()
        bound = db.compile_region(build_gemm()).bind(
            {"ni": 777, "nj": 777, "nk": 777}
        )
        a = predict_both(bound, PLATFORM_P9_V100)
        b = predict_both(bound, PLATFORM_P9_V100)
        assert a.cpu.seconds == b.cpu.seconds
        assert a.gpu.seconds == b.gpu.seconds

    def test_simulators_are_pure(self):
        env = {"n": 3000}
        host = PLATFORM_P9_V100.host
        a = simulate_cpu(compile_attributes(build_vecadd()), host, env)
        b = simulate_cpu(compile_attributes(build_vecadd()), host, env)
        assert a.seconds == b.seconds

    def test_region_rebuild_gives_same_numbers(self):
        """Two independently-built copies of a kernel measure identically."""
        env = {"ni": 512, "nj": 512, "nk": 512}
        (g1,) = benchmark_by_name("gemm").build()
        (g2,) = benchmark_by_name("gemm").build()
        t1 = simulate_gpu_kernel(
            compile_attributes(g1), PLATFORM_P9_V100.gpu, env
        ).seconds
        t2 = simulate_gpu_kernel(
            compile_attributes(g2), PLATFORM_P9_V100.gpu, env
        ).seconds
        assert t1 == t2


class TestMonotonicity:
    @given(n=st.sampled_from([512, 1024, 2048, 4096]))
    @settings(max_examples=4, deadline=None)
    def test_gpu_prediction_monotone_in_size(self, n):
        db = ProgramAttributeDatabase()
        attrs = db.compile_region(build_gemm())
        small = predict_both(attrs.bind({"ni": n, "nj": n, "nk": n}), PLATFORM_P9_V100)
        big = predict_both(
            attrs.bind({"ni": 2 * n, "nj": 2 * n, "nk": 2 * n}), PLATFORM_P9_V100
        )
        assert big.gpu.seconds > small.gpu.seconds
        assert big.cpu.seconds > small.cpu.seconds

    def test_better_bus_never_hurts(self):
        env = {"ni": 2048, "nj": 2048, "nk": 2048}
        db = ProgramAttributeDatabase()
        bound = db.compile_region(build_gemm()).bind(env)
        import dataclasses

        from repro.machines import AcceleratorSlot, PCIE3_X16, Platform

        slow = Platform(
            "slow-bus",
            PLATFORM_P9_V100.host,
            (AcceleratorSlot(PLATFORM_P9_V100.gpu, PCIE3_X16),),
        )
        fast_pred = predict_both(bound, PLATFORM_P9_V100)
        slow_pred = predict_both(bound, slow)
        assert fast_pred.gpu.seconds <= slow_pred.gpu.seconds


class TestRuntimeConsistency:
    def test_model_guided_never_beats_oracle(self):
        for plat in (PLATFORM_P9_V100, PLATFORM_P8_K80):
            guided = OffloadingRuntime(plat, policy=ModelGuided())
            oracle = OffloadingRuntime(plat, policy=Oracle())
            for rt in (guided, oracle):
                rt.compile_region(build_gemm())
            env = {"ni": 1024, "nj": 1024, "nk": 1024}
            g = guided.launch("gemm", env)
            o = oracle.launch("gemm", env)
            assert o.executed_seconds <= g.executed_seconds + 1e-12

    def test_launch_record_conservation(self):
        rt = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        rt.compile_region(build_vecadd())
        rec = rt.launch("vecadd", {"n": 1 << 20})
        # the decision is consistent with the prediction
        assert (rec.target == "gpu") == rec.prediction.offload
        # the oracle bound is respected by definition
        assert rec.oracle_seconds <= rec.executed_seconds + 1e-12

    def test_prediction_independent_of_measurement(self):
        """The policy sees only predictions, never the simulated truth."""
        rt = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        rt.compile_region(build_gemm())
        env = {"ni": 640, "nj": 640, "nk": 640}
        rec = rt.launch("gemm", env)
        db = ProgramAttributeDatabase()
        bound = db.compile_region(build_gemm()).bind(env)
        standalone = predict_both(
            bound,
            PLATFORM_P9_V100,
            calibration=rt.policy._calibration(PLATFORM_P9_V100, None),
        )
        assert rec.prediction.predicted_speedup == pytest.approx(
            standalone.predicted_speedup
        )


class TestCrossGenerationConsistency:
    def test_v100_platform_never_slower_on_gpu_kernel_time(self):
        """Kernel-only time on the newer device is never worse (same code)."""
        env = {"ni": 1024, "nj": 1024, "nk": 1024}
        (gemm,) = benchmark_by_name("gemm").build()
        attrs = compile_attributes(gemm)
        k80 = simulate_gpu_kernel(attrs, PLATFORM_P8_K80.gpu, env)
        v100 = simulate_gpu_kernel(attrs, PLATFORM_P9_V100.gpu, env)
        assert v100.seconds < k80.seconds

    def test_both_platforms_full_suite_finite(self):
        from repro.experiments import measure_suite

        for plat in ("p8-k80", "p9-v100"):
            for mode in ("test", "benchmark"):
                for m in measure_suite(plat, mode):
                    assert 0 < m.cpu_seconds < 1e4
                    assert 0 < m.gpu_seconds < 1e4


class TestPortability:
    def test_generic_x86_platform_end_to_end(self):
        """The framework is machine-agnostic: a laptop-class host works."""
        from repro.machines import (
            AcceleratorSlot,
            GENERIC_X86,
            PCIE3_X16,
            Platform,
            TESLA_K80,
        )
        from repro.runtime import ModelGuided, OffloadingRuntime

        laptop = Platform(
            "x86+K80", GENERIC_X86, (AcceleratorSlot(TESLA_K80, PCIE3_X16),)
        )
        rt = OffloadingRuntime(laptop, policy=ModelGuided())
        (gemm,) = benchmark_by_name("gemm").build()
        rt.compile_region(gemm)
        rec = rt.launch("gemm", {"ni": 1024, "nj": 1024, "nk": 1024})
        assert rec.target in ("cpu", "gpu")
        assert rec.cpu_seconds > 0 and rec.gpu_seconds > 0
