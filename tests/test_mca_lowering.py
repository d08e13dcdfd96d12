"""Unit tests for IR → machine-op lowering and cycles-per-iteration."""

import pytest

from repro.analysis import compile_attributes
from repro.ir import Region, cmp, select, sqrt
from repro.machines import POWER8, POWER9
from repro.mca import (
    analyze_region,
    find_band_level,
    lower_region,
    machine_cycles_per_iter,
)

from .kernels import build_colwise, build_gemm, build_rowwise, build_vecadd

FIXED_TRIPS = lambda n: (lambda loop: float(n))  # noqa: E731


def _attrs(build):
    """The compile-time record of a freshly built kernel."""
    return compile_attributes(build())


class TestLowering:
    def test_vecadd_ops(self):
        root = lower_region(build_vecadd(), POWER9, vectorize=False)
        band = find_band_level(root)
        opcodes = [o.opcode for o in band.leaf_ops]
        assert opcodes.count("load") == 2
        assert opcodes.count("store") == 1
        assert opcodes.count("fadd") == 1
        assert "br" in opcodes  # loop control present

    def test_vecadd_band_vectorizes(self):
        root = lower_region(build_vecadd(), POWER9, vectorize=True)
        band = find_band_level(root)
        assert band.info.vectorized
        assert band.info.lanes == POWER9.vector_lanes(4)

    def test_gemm_fma_fused(self):
        root = lower_region(build_gemm(), POWER9, vectorize=False)
        band = find_band_level(root)
        # inner j level -> k level
        j_level = band.sub_loops[0]
        k_level = j_level.sub_loops[0]
        opcodes = [o.opcode for o in k_level.leaf_ops]
        assert "fma" in opcodes
        assert "fadd" not in opcodes  # fused away

    def test_gemm_reduction_is_carried_scalar(self):
        root = lower_region(build_gemm(), POWER9, vectorize=False)
        k_level = find_band_level(root).sub_loops[0].sub_loops[0]
        # carried regs: induction + accumulator
        assert len(k_level.carried) == 2

    def test_gemm_band_vectorized_when_collapse2(self):
        r = Region("gemm2")
        ni, nj, nk = r.param_tuple("ni", "nj", "nk")
        A = r.array("A", (ni, nk))
        B = r.array("B", (nk, nj))
        C = r.array("C", (ni, nj), inout=True)
        alpha, beta = r.scalars("alpha", "beta")
        with r.parallel_loop("i", ni) as i:
            with r.parallel_loop("j", nj) as j:
                acc = r.local("acc", C[i, j] * beta)
                with r.loop("k", nk) as k:
                    r.assign(acc, acc + alpha * A[i, k] * B[k, j])
                r.store(C[i, j], acc)
        root = lower_region(r, POWER9)
        band = find_band_level(root)
        # j is the innermost band var; B[k][j] and C[i][j] are stride-1,
        # A[i][k] is stride-0 along j -> band vectorizes
        assert band.is_band_vectorized()

    def test_colwise_band_vectorizes(self):
        # A[i][j] stride 1 along band var j -> outer-loop vectorization
        root = lower_region(build_colwise(), POWER9)
        band = find_band_level(root)
        assert band.info.vectorized

    def test_rowwise_inner_vectorizes(self):
        # inner j loop walks stride 1 -> classic innermost vectorization
        root = lower_region(build_rowwise(), POWER9)
        band = find_band_level(root)
        assert not band.info.vectorized
        inner = band.sub_loops[0]
        assert inner.info.vectorized
        assert inner.info.unroll > 1  # reduction unroll-and-jam

    def test_vectorize_flag_off_disables(self):
        root = lower_region(build_rowwise(), POWER9, vectorize=False)
        band = find_band_level(root)
        assert all(not s.info.vectorized for s in band.sub_loops)

    def test_select_lowers_to_fsel(self):
        r = Region("sel")
        n = r.param("n")
        A = r.array("A", (n,), inout=True)
        with r.parallel_loop("i", n) as i:
            x = A[i]
            r.store(A[i], select(cmp("le", x, 0.1), 1.0, sqrt(x)))
        root = lower_region(r, POWER9, vectorize=False)
        band = find_band_level(root)
        ops = [o.opcode for o in band.leaf_ops]
        assert "cmp" in ops and "fsel" in ops and "fsqrt" in ops

    def test_if_becomes_branch_levels(self):
        r = Region("iff")
        n = r.param("n")
        A = r.array("A", (n,), inout=True)
        with r.parallel_loop("i", n) as i:
            with r.if_(cmp("gt", A[i], 0.0)):
                r.store(A[i], 0.0)
        root = lower_region(r, POWER9, vectorize=False)
        band = find_band_level(root)
        assert len(band.sub_branches) == 1
        then_lv, else_lv = band.sub_branches[0]
        assert then_lv.op_count() > 0
        assert else_lv.op_count() == 0


class TestCyclesPerIteration:
    def test_more_work_costs_more(self):
        trips = FIXED_TRIPS(128)
        small = machine_cycles_per_iter(_attrs(build_vecadd), POWER9, trips)
        big = machine_cycles_per_iter(_attrs(build_gemm), POWER9, trips)
        assert big > small * 10

    def test_trip_count_scales_inner_loops(self):
        # GEMM has two nested inner loops (j, k): doubling trips quadruples
        # the per-parallel-iteration cost
        c128 = machine_cycles_per_iter(_attrs(build_gemm), POWER9, FIXED_TRIPS(128))
        c256 = machine_cycles_per_iter(_attrs(build_gemm), POWER9, FIXED_TRIPS(256))
        assert c256 == pytest.approx(4 * c128, rel=0.1)

    def test_trip_count_scales_linearly_single_loop(self):
        c128 = machine_cycles_per_iter(_attrs(build_rowwise), POWER9, FIXED_TRIPS(128))
        c256 = machine_cycles_per_iter(_attrs(build_rowwise), POWER9, FIXED_TRIPS(256))
        assert c256 == pytest.approx(2 * c128, rel=0.15)

    def test_vectorization_speeds_up_rowwise(self):
        trips = FIXED_TRIPS(1024)
        vec = machine_cycles_per_iter(_attrs(build_rowwise), POWER9, trips, vectorize=True)
        scalar = machine_cycles_per_iter(
            _attrs(build_rowwise), POWER9, trips, vectorize=False
        )
        assert vec < scalar / 2

    def test_power9_beats_power8_on_vector_kernels(self):
        trips = FIXED_TRIPS(1024)
        p8 = machine_cycles_per_iter(_attrs(build_colwise), POWER8, trips)
        p9 = machine_cycles_per_iter(_attrs(build_colwise), POWER9, trips)
        assert p9 < p8

    def test_positive_and_finite(self):
        for build in (build_vecadd, build_gemm, build_colwise, build_rowwise):
            c = machine_cycles_per_iter(
                _attrs(build), POWER9, FIXED_TRIPS(64)
            )
            assert 0 < c < 1e9


class TestReport:
    def test_report_fields(self):
        rep = analyze_region(build_gemm(), POWER9, FIXED_TRIPS(128))
        assert rep.region_name == "gemm"
        assert rep.cycles_per_iteration > 0
        assert rep.total_ops > 5
        assert 0 < rep.ipc < POWER9.dispatch_width + 1
        assert rep.bottleneck in ("FX", "LS", "FP", "VSX", "BR")

    def test_render_contains_pressure_bars(self):
        rep = analyze_region(build_gemm(), POWER9, FIXED_TRIPS(128))
        text = rep.render()
        assert "resource pressure" in text
        assert "cycles / parallel iteration" in text

    def test_vectorized_reported(self):
        rep = analyze_region(build_rowwise(), POWER9, FIXED_TRIPS(1024))
        assert rep.vectorized
        assert rep.vector_lanes >= 2
