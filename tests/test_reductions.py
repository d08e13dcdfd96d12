"""Tests for band-wide reductions (OpenMP reduction clauses, Reduction_c)."""

import numpy as np
import pytest

from repro.analysis import (
    ProgramAttributeDatabase,
    compile_attributes,
    extract_loadout,
    nest_trips,
)
from repro.ir import (
    ReduceStore,
    Region,
    count_reductions,
    parse_region,
    region_to_text,
    validate_region,
)
from repro.machines import PLATFORM_P9_V100, POWER9, TESLA_V100
from repro.models import predict_cpu_time, predict_both
from repro.runtime import ModelGuided, OffloadingRuntime
from repro.sim import allocate_arrays, execute_region, simulate_cpu, simulate_gpu_kernel


def build_dot() -> Region:
    """result[0] = sum_i x[i]*w[i] — the canonical reduction kernel."""
    r = Region("dot")
    n = r.param("n")
    x = r.array("x", (n,))
    w = r.array("w", (n,))
    out = r.array("result", (1,), inout=True)
    with r.parallel_loop("i", n) as i:
        r.reduce_store(out[0], x[i] * w[i])
    return r


def build_row_sums_reduction() -> Region:
    """total[0] += per-row dot products (reduction below an inner loop)."""
    r = Region("rowdot")
    n, m = r.param_tuple("n", "m")
    A = r.array("A", (n, m))
    v = r.array("v", (m,))
    out = r.array("total", (1,), inout=True)
    with r.parallel_loop("i", n) as i:
        acc = r.local("acc", 0.0)
        with r.loop("j", m) as j:
            r.assign(acc, acc + A[i, j] * v[j])
        r.reduce_store(out[0], acc)
    return r


class TestIR:
    def test_validates(self):
        validate_region(build_dot())
        validate_region(build_row_sums_reduction())

    def test_count_reductions(self):
        assert count_reductions(build_dot()) == 1
        from tests.kernels import build_gemm

        assert count_reductions(build_gemm()) == 0

    def test_band_dependent_target_rejected(self):
        r = Region("bad")
        n = r.param("n")
        x = r.array("x", (n,))
        out = r.array("out", (n,), inout=True)
        with r.parallel_loop("i", n) as i:
            with pytest.raises(ValueError):
                r.reduce_store(out[i], x[i])
            r.store(out[i], x[i])  # keep the region valid

    def test_unsupported_operator_rejected(self):
        r = Region("bad2")
        n = r.param("n")
        x = r.array("x", (n,))
        out = r.array("out", (1,), inout=True)
        with r.parallel_loop("i", n) as i:
            with pytest.raises(ValueError):
                r.reduce_store(out[0], x[i], op="xor")
            r.reduce_store(out[0], x[i], op="max")

    def test_roundtrip_through_text(self):
        region = build_dot()
        text = region_to_text(region)
        assert "reduce(add)" in text
        parsed = parse_region(text)
        validate_region(parsed)
        assert region_to_text(parsed) == text
        assert count_reductions(parsed) == 1


class TestExecution:
    def test_dot_matches_numpy(self):
        region = build_dot()
        env = {"n": 64}
        arrays = allocate_arrays(region, env, seed=9)
        arrays["result"][:] = 0.0  # reduction combines with the initial value
        execute_region(region, arrays, {}, env)
        assert arrays["result"][0] == pytest.approx(
            float(np.dot(arrays["x"].astype(np.float64), arrays["w"])), rel=1e-4
        )

    def test_max_reduction(self):
        r = Region("maxred")
        n = r.param("n")
        x = r.array("x", (n,))
        out = r.array("out", (1,), inout=True)
        with r.parallel_loop("i", n) as i:
            r.reduce_store(out[0], x[i], op="max")
        arrays = allocate_arrays(r, {"n": 32}, seed=2)
        execute_region(r, arrays, {}, {"n": 32})
        assert arrays["out"][0] == pytest.approx(arrays["x"].max())

    def test_nested_reduction_matches_numpy(self):
        region = build_row_sums_reduction()
        env = {"n": 8, "m": 12}
        arrays = allocate_arrays(region, env, seed=3)
        arrays["total"][:] = 0.0
        execute_region(region, arrays, {}, env)
        expect = float(
            (arrays["A"].astype(np.float64) @ arrays["v"].astype(np.float64)).sum()
        )
        assert arrays["total"][0] == pytest.approx(expect, rel=1e-3)


class TestModelling:
    def test_loadout_counts_combine_op(self):
        region = build_dot()
        lo = extract_loadout(region, nest_trips(region, {"n": 100}))
        assert lo.fp_insts >= 2  # the multiply + the reduce combine
        assert lo.store_insts == 1

    def test_reduction_c_term_appears(self):
        region = build_dot()
        db = ProgramAttributeDatabase()
        bound = db.compile_region(region).bind({"n": 100_000})
        pred = predict_cpu_time(
            bound.attributes, bound.loadout, bound.parallel_iterations, POWER9, env={"n": 100_000}
        )
        assert pred.reduction_cycles > 0
        assert "Reduction_c" in pred.breakdown()
        # ceil(log2(160)) = 8 combining steps
        assert pred.reduction_cycles == pytest.approx(
            8 * POWER9.reduction_step_cycles
        )

    def test_non_reduction_kernels_pay_nothing(self):
        from tests.kernels import build_vecadd

        region = build_vecadd()
        db = ProgramAttributeDatabase()
        bound = db.compile_region(region).bind({"n": 1000})
        pred = predict_cpu_time(
            bound.attributes, bound.loadout, bound.parallel_iterations, POWER9, env={"n": 1000}
        )
        assert pred.reduction_cycles == 0.0

    def test_simulators_accept_reductions(self):
        attrs = compile_attributes(build_dot())
        env = {"n": 1 << 22}
        cpu = simulate_cpu(attrs, POWER9, env)
        gpu = simulate_gpu_kernel(attrs, TESLA_V100, env)
        assert cpu.seconds > 0 and gpu.seconds > 0

    def test_end_to_end_selection(self):
        rt = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        region = build_row_sums_reduction()
        rt.compile_region(region)
        rec = rt.launch("rowdot", {"n": 4096, "m": 4096})
        assert rec.target in ("cpu", "gpu")
        assert rec.prediction is not None

    def test_reduction_cost_visible_on_gpu_model(self):
        import dataclasses

        region = build_dot()
        db = ProgramAttributeDatabase()
        bound = db.compile_region(region).bind({"n": 1 << 22})
        with_red = predict_both(bound, PLATFORM_P9_V100)
        # strip the ReduceStore and compare: the kernel estimate must drop
        from repro.codegen import plan_gpu_launch
        from repro.models import predict_gpu_time

        plan = plan_gpu_launch(bound.parallel_iterations, TESLA_V100)
        without = predict_gpu_time(
            "dot", bound.loadout, bound.ipda, plan, TESLA_V100,
            PLATFORM_P9_V100.bus, bound.bytes_to_device, bound.bytes_to_host,
            num_reductions=0,
        )
        assert with_red.gpu.exec_cycles > without.exec_cycles
