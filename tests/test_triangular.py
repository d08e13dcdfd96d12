"""Tests for non-rectangular (triangular) loop nests.

Polybench's COVAR/CORR originally use ``for j2 in j1..m`` loops; the suite
port rectangularizes them (DESIGN.md), but the framework itself supports
triangular nests through nest-aware midpoint trip resolution.
"""

import numpy as np
import pytest

from repro.analysis import ProgramAttributeDatabase, compile_attributes, nest_trips
from repro.ir import Loop, Region, validate_region
from repro.machines import PLATFORM_P9_V100, POWER9, TESLA_V100
from repro.runtime import ModelGuided, OffloadingRuntime
from repro.sim import (
    allocate_arrays,
    execute_region,
    simulate_cpu,
    simulate_gpu_kernel,
)
from repro.symbolic import EvalError


def build_triangular(name="tri") -> Region:
    """symmat[j1][j2] = sum_i data[i][j1]*data[i][j2] for j2 >= j1."""
    r = Region(name)
    n, m = r.param_tuple("n", "m")
    data = r.array("data", (n, m))
    sym = r.array("symmat", (m, m), output=True)
    with r.parallel_loop("j1", m) as j1:
        with r.loop("j2", m - j1.sym, start=j1) as j2:
            acc = r.local("acc", 0.0)
            with r.loop("i", n) as i:
                r.assign(acc, acc + data[i, j1] * data[i, j2])
            r.store(sym[j1, j2], acc)
    return r


def _loops(region):
    band = region.body[0]
    j2 = band.body[0]
    i = j2.body[1]
    return band, j2, i


class TestNestTrips:
    def test_rectangular_matches_runtime(self):
        from tests.kernels import build_gemm

        region = build_gemm()
        env = {"ni": 100, "nj": 200, "nk": 300}
        trips = nest_trips(region, env)
        j_loop = region.body[0].body[0]
        k_loop = j_loop.body[1]
        assert trips(j_loop) == 200.0
        assert trips(k_loop) == 300.0

    def test_triangular_midpoint(self):
        region = build_triangular()
        band, j2, i = _loops(region)
        trips = nest_trips(region, {"n": 64, "m": 100})
        assert trips(band) == 100.0
        # j1 bound at midpoint 50: average j2 trips = m - 50
        assert trips(j2) == pytest.approx(50.0)
        assert trips(i) == 64.0

    def test_strict_mode_raises_on_missing_params(self):
        region = build_triangular()
        with pytest.raises(EvalError):
            nest_trips(region, {"n": 64})  # m unbound

    def test_default_fallback(self):
        region = build_triangular()
        band, j2, i = _loops(region)
        trips = nest_trips(region, {}, default=128)
        assert trips(band) == 128.0
        assert trips(i) == 128.0

    def test_validates(self):
        validate_region(build_triangular())


class TestTriangularExecution:
    def test_functional_matches_numpy(self):
        region = build_triangular()
        env = {"n": 6, "m": 5}
        arrays = allocate_arrays(region, env, seed=4)
        execute_region(region, arrays, {}, env)
        d = arrays["data"].astype(np.float64)
        full = d.T @ d
        got = arrays["symmat"]
        for j1 in range(5):
            for j2 in range(5):
                if j2 >= j1:
                    assert got[j1, j2] == pytest.approx(full[j1, j2], rel=1e-4)
                else:
                    assert got[j1, j2] == 0.0

    def test_simulators_accept_triangular(self):
        attrs = compile_attributes(build_triangular())
        env = {"n": 1024, "m": 1024}
        cpu = simulate_cpu(attrs, POWER9, env)
        gpu = simulate_gpu_kernel(attrs, TESLA_V100, env)
        assert cpu.seconds > 0 and gpu.seconds > 0

    def test_triangular_is_half_the_rectangular_work(self):
        tri = build_triangular("tri_h")
        env = {"n": 2048, "m": 2048}
        tri_time = simulate_cpu(compile_attributes(tri), POWER9, env).seconds

        rect = Region("rect_h")
        n, m = rect.param_tuple("n", "m")
        data = rect.array("data", (n, m))
        sym = rect.array("symmat", (m, m), output=True)
        with rect.parallel_loop("j1", m) as j1:
            with rect.loop("j2", m) as j2:
                acc = rect.local("acc", 0.0)
                with rect.loop("i", n) as i:
                    rect.assign(acc, acc + data[i, j1] * data[i, j2])
                rect.store(sym[j1, j2], acc)
        rect_time = simulate_cpu(compile_attributes(rect), POWER9, env).seconds
        assert tri_time == pytest.approx(rect_time / 2, rel=0.25)

    def test_full_runtime_pipeline(self):
        region = build_triangular("tri_rt")
        rt = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        rt.compile_region(region)
        rec = rt.launch("tri_rt", {"n": 1024, "m": 1024})
        assert rec.target in ("cpu", "gpu")
        assert rec.prediction is not None

    def test_attribute_db_binds_triangular(self):
        db = ProgramAttributeDatabase()
        region = build_triangular("tri_db")
        attrs = db.compile_region(region)
        bound = attrs.bind({"n": 512, "m": 512})
        # loadout reflects the average (triangular) trip counts
        rect_loads = 512 * 512 * 2
        assert bound.loadout.load_insts == pytest.approx(rect_loads / 2, rel=0.1)
