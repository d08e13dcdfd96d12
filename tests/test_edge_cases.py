"""Edge-case tests across packages (else-branches, degenerate shapes)."""

import numpy as np
import pytest

from repro.analysis import compile_attributes
from repro.ir import (
    Region,
    cmp,
    parse_region,
    region_to_text,
    validate_region,
)
from repro.machines import POWER9, TESLA_V100
from repro.sim import allocate_arrays, execute_region, simulate_cpu, simulate_gpu_kernel


def build_if_else() -> Region:
    r = Region("clip")
    n = r.param("n")
    A = r.array("A", (n,), inout=True)
    with r.parallel_loop("i", n) as i:
        with r.if_(cmp("gt", A[i], 0.5)):
            r.store(A[i], 1.0)
    # graft an else branch (the builder exposes only then; the IR allows both)
    if_stmt = r.body[0].body[0]
    from repro.ir import Store

    if_stmt.else_body.append(Store(A, if_stmt.then_body[0].idxs, if_stmt.then_body[0].value * 0.0))
    return r


class TestIfElse:
    def test_printer_renders_else(self):
        text = region_to_text(build_if_else())
        assert "} else {" in text

    def test_parser_roundtrips_else(self):
        region = build_if_else()
        text = region_to_text(region)
        parsed = parse_region(text)
        validate_region(parsed)
        assert region_to_text(parsed) == text

    def test_executor_takes_else(self):
        region = build_if_else()
        arrays = {"A": np.array([0.9, 0.1], dtype=np.float32)}
        execute_region(region, arrays, {}, {"n": 2})
        assert arrays["A"][0] == 1.0
        assert arrays["A"][1] == 0.0

    def test_simulators_accept_if_else(self):
        attrs = compile_attributes(build_if_else())
        assert simulate_cpu(attrs, POWER9, {"n": 10_000}).seconds > 0
        assert simulate_gpu_kernel(attrs, TESLA_V100, {"n": 10_000}).seconds > 0


class TestDegenerateShapes:
    def test_one_iteration_band(self):
        r = Region("one")
        n = r.param("n")
        A = r.array("A", (n,), inout=True)
        with r.parallel_loop("i", 1) as i:
            acc = r.local("acc", 0.0)
            with r.loop("j", n) as j:
                r.assign(acc, acc + A[j])
            r.store(A[i], acc)
        attrs = compile_attributes(r)
        cpu = simulate_cpu(attrs, POWER9, {"n": 1000})
        gpu = simulate_gpu_kernel(attrs, TESLA_V100, {"n": 1000})
        assert cpu.seconds > 0 and gpu.seconds > 0
        # one work item: one warp, one SM
        assert gpu.plan.total_threads >= 1
        assert gpu.plan.active_sms == 1

    def test_zero_trip_inner_loop(self):
        r = Region("zero")
        n = r.param("n")
        A = r.array("A", (n,), inout=True)
        with r.parallel_loop("i", n) as i:
            acc = r.local("acc", A[i])
            with r.loop("j", 0) as j:
                r.assign(acc, acc + A[j])
            r.store(A[i], acc)
        validate_region(r)
        arrays = allocate_arrays(r, {"n": 4}, seed=0)
        before = arrays["A"].copy()
        execute_region(r, arrays, {}, {"n": 4})
        np.testing.assert_array_equal(arrays["A"], before)
        assert simulate_cpu(compile_attributes(r), POWER9, {"n": 64}).seconds > 0

    def test_scalar_only_body(self):
        r = Region("scalar_body")
        n = r.param("n")
        out = r.array("out", (n,), output=True)
        c = r.scalar("c")
        with r.parallel_loop("i", n) as i:
            r.store(out[i], c * 2.0 + 1.0)
        arrays = allocate_arrays(r, {"n": 3})
        execute_region(r, arrays, {"c": 4.0}, {"n": 3})
        np.testing.assert_allclose(arrays["out"], 9.0)

    def test_rank3_array_round_trip(self):
        r = Region("rank3")
        n = r.param("n")
        A = r.array("A", (n, n, n))
        B = r.array("B", (n, n, n), output=True)
        with r.parallel_loop("i", n) as i:
            with r.parallel_loop("j", n) as j:
                with r.loop("k", n) as k:
                    r.store(B[i, j, k], A[i, j, k] * 2.0)
        parsed = parse_region(region_to_text(r))
        assert region_to_text(parsed) == region_to_text(r)
        arrays = allocate_arrays(r, {"n": 3}, seed=8)
        execute_region(r, arrays, {}, {"n": 3})
        np.testing.assert_allclose(arrays["B"], arrays["A"] * 2.0, rtol=1e-6)
