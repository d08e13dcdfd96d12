"""Tests for OpenMP schedule support in the model and the simulator."""

import pytest

from repro.analysis import ProgramAttributeDatabase, compile_attributes
from repro.codegen import OMPSchedule
from repro.machines import POWER9
from repro.models import predict_cpu_time
from repro.sim import simulate_cpu

from .kernels import build_vecadd


def _bound(env):
    db = ProgramAttributeDatabase()
    return db.compile_region(build_vecadd()).bind(env)


class TestDynamicSchedule:
    def test_dynamic_small_chunks_cost_more_in_model(self):
        env = {"n": 100_000}
        bound = _bound(env)
        static = predict_cpu_time(
            bound.attributes, bound.loadout, 100_000, POWER9, env=env
        )
        dynamic = predict_cpu_time(
            bound.attributes,
            bound.loadout,
            100_000,
            POWER9,
            env=env,
            schedule=OMPSchedule.DYNAMIC,
            chunk_size=1,
        )
        # Liao's Schedule_times x Schedule_c: one dispatch per iteration
        assert dynamic.schedule_cycles > static.schedule_cycles
        assert dynamic.seconds > static.seconds

    def test_dynamic_large_chunks_approach_static(self):
        env = {"n": 100_000}
        bound = _bound(env)
        static = predict_cpu_time(
            bound.attributes, bound.loadout, 100_000, POWER9, env=env
        )
        coarse = predict_cpu_time(
            bound.attributes,
            bound.loadout,
            100_000,
            POWER9,
            env=env,
            schedule=OMPSchedule.DYNAMIC,
            chunk_size=10_000,
        )
        assert coarse.seconds < static.seconds * 1.5

    def test_simulator_mirrors_schedule_cost(self):
        attrs = compile_attributes(build_vecadd())
        env = {"n": 200_000}
        static = simulate_cpu(attrs, POWER9, env)
        fine = simulate_cpu(
            attrs, POWER9, env, schedule=OMPSchedule.DYNAMIC, chunk_size=4
        )
        assert fine.seconds > static.seconds

    def test_dynamic_dispatch_constant_used(self):
        env = {"n": 160_000}
        bound = _bound(env)
        chunk = 100
        pred = predict_cpu_time(
            bound.attributes,
            bound.loadout,
            160_000,
            POWER9,
            env=env,
            schedule=OMPSchedule.DYNAMIC,
            chunk_size=chunk,
        )
        chunks_per_thread = -(-160_000 // (chunk * 160))
        assert pred.schedule_cycles == pytest.approx(
            chunks_per_thread * POWER9.par_schedule_dynamic_cycles
        )
