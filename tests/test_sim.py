"""Unit + property tests for the timing simulators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import compile_attributes
from repro.machines import (
    NVLINK2,
    PCIE3_X16,
    POWER8,
    POWER9,
    TESLA_K80,
    TESLA_V100,
)
from repro.sim import simulate_cpu, simulate_gpu_kernel, simulate_transfers

from .kernels import build_colwise, build_gemm, build_rowwise, build_vecadd


def _attrs(build):
    """The compile-time record of a freshly built kernel."""
    return compile_attributes(build())


class TestCPUSim:
    def test_more_threads_is_faster_on_big_work(self):
        env = {"ni": 2048, "nj": 2048, "nk": 2048}
        t4 = simulate_cpu(_attrs(build_gemm), POWER9, env, num_threads=4)
        t160 = simulate_cpu(_attrs(build_gemm), POWER9, env)
        assert t160.seconds < t4.seconds

    def test_more_threads_hurts_tiny_work(self):
        # fork/barrier at 160 threads dominates a tiny kernel
        env = {"n": 2048}
        t4 = simulate_cpu(_attrs(build_vecadd), POWER9, env, num_threads=4)
        t160 = simulate_cpu(_attrs(build_vecadd), POWER9, env)
        assert t160.seconds > t4.seconds

    def test_work_scales_superlinearly_for_gemm(self):
        small = simulate_cpu(_attrs(build_gemm), POWER9, {"ni": 512, "nj": 512, "nk": 512})
        big = simulate_cpu(_attrs(build_gemm), POWER9, {"ni": 1024, "nj": 1024, "nk": 1024})
        assert big.seconds > 4 * small.seconds

    def test_vectorizing_host_beats_scalar_host(self):
        # the Section III story: POWER9's wider vector units
        env = {"n": 4096}
        p8 = simulate_cpu(_attrs(build_colwise), POWER8, env)
        p9 = simulate_cpu(_attrs(build_colwise), POWER9, env)
        assert p9.seconds < p8.seconds

    def test_result_fields_consistent(self):
        res = simulate_cpu(_attrs(build_rowwise), POWER9, {"n": 4096})
        assert res.seconds >= res.overhead_seconds
        assert res.bound in ("compute", "bandwidth", "l2", "l3")
        assert res.dram_bytes >= 0
        assert res.cycles_per_iteration > 0

    def test_vectorize_flag_off_slower(self):
        env = {"n": 8192}
        vec = simulate_cpu(_attrs(build_rowwise), POWER9, env)
        scalar = simulate_cpu(_attrs(build_rowwise), POWER9, env, vectorize=False)
        assert scalar.seconds >= vec.seconds

    @given(n=st.sampled_from([256, 512, 1024, 2048, 4096, 8192]))
    @settings(max_examples=6, deadline=None)
    def test_monotone_in_problem_size(self, n):
        a = simulate_cpu(_attrs(build_rowwise), POWER9, {"n": n})
        b = simulate_cpu(_attrs(build_rowwise), POWER9, {"n": 2 * n})
        assert b.seconds > a.seconds


class TestGPUSim:
    def test_result_fields_consistent(self):
        res = simulate_gpu_kernel(_attrs(build_gemm), TESLA_V100, {"ni": 1024, "nj": 1024, "nk": 1024})
        assert res.seconds >= res.launch_seconds
        assert res.bound in ("issue", "memory", "bandwidth", "l2")
        assert res.dram_bytes >= 0
        assert res.plan.parallel_iterations == 1024

    def test_v100_beats_k80(self):
        env = {"ni": 2048, "nj": 2048, "nk": 2048}
        k80 = simulate_gpu_kernel(_attrs(build_gemm), TESLA_K80, env)
        v100 = simulate_gpu_kernel(_attrs(build_gemm), TESLA_V100, env)
        assert v100.seconds < k80.seconds

    def test_uncoalesced_kernel_pays(self):
        # the paper's A[max*a] strided store vs a unit-stride store of the
        # same element count: scattered sectors cost far more
        from .kernels import build_strided_store

        n = 1 << 20
        bad = simulate_gpu_kernel(_attrs(build_strided_store), TESLA_V100, {"max": n})
        good = simulate_gpu_kernel(_attrs(build_vecadd), TESLA_V100, {"n": n})
        assert bad.seconds > 2 * good.seconds
        assert bad.dram_bytes > good.dram_bytes

    def test_launch_overhead_floors_tiny_kernels(self):
        res = simulate_gpu_kernel(_attrs(build_vecadd), TESLA_V100, {"n": 32})
        assert res.seconds >= TESLA_V100.launch_overhead_us * 1e-6

    @given(n=st.sampled_from([1 << 16, 1 << 18, 1 << 20]))
    @settings(max_examples=3, deadline=None)
    def test_monotone_in_problem_size(self, n):
        a = simulate_gpu_kernel(_attrs(build_vecadd), TESLA_V100, {"n": n})
        b = simulate_gpu_kernel(_attrs(build_vecadd), TESLA_V100, {"n": 4 * n})
        assert b.seconds > a.seconds

    def test_streaming_kernel_bandwidth_bound(self):
        res = simulate_gpu_kernel(_attrs(build_vecadd), TESLA_V100, {"n": 1 << 24})
        # 3 streams of 64 MiB: the DRAM roofline should be the binding term
        assert res.bound in ("bandwidth", "memory")
        assert res.dram_bytes > 3 * (1 << 24) * 4 * 0.5


class TestTransferSim:
    def test_bytes_match_region_maps(self):
        env = {"ni": 64, "nj": 64, "nk": 64}
        res = simulate_transfers(build_gemm(), NVLINK2, env)
        assert res.bytes_to_device == 3 * 64 * 64 * 4
        assert res.bytes_to_host == 64 * 64 * 4
        assert res.num_transfers == 4  # A, B, C down; C up

    def test_duplex_overlap(self):
        env = {"ni": 512, "nj": 512, "nk": 512}
        res = simulate_transfers(build_gemm(), NVLINK2, env)
        assert res.total_seconds == max(
            res.seconds_to_device, res.seconds_to_host
        )

    def test_pcie_slower(self):
        env = {"n": 1 << 22}
        nv = simulate_transfers(build_vecadd(), NVLINK2, env)
        pc = simulate_transfers(build_vecadd(), PCIE3_X16, env)
        assert pc.total_seconds > 4 * nv.total_seconds

    def test_per_array_latency(self):
        # four DMAs -> at least four setup latencies in the direction sums
        env = {"ni": 8, "nj": 8, "nk": 8}
        res = simulate_transfers(build_gemm(), NVLINK2, env)
        assert res.seconds_to_device >= 3 * NVLINK2.latency_us * 1e-6
