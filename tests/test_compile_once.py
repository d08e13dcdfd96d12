"""Compile once: the static analysis lives on the compile-time record.

``RegionAttributes`` owns a region's IPDA result and its MCA lowerings.
Models and simulators read them from the record, so a suite sweep runs
IPDA once per record and lowers each record at most once per CPU
lowering key.  The lowering cache is keyed by the values lowering reads,
never by a descriptor's name or identity.
"""

import dataclasses
import sys

import pytest

import repro.ipda.analysis as ipda_analysis
import repro.mca.lowering as lowering
from repro.analysis import ProgramAttributeDatabase, compile_attributes
from repro.experiments import clear_caches, measure_suite, predict_suite
from repro.machines import POWER8, POWER9
from repro.mca import lower_region, lowering_key
from repro.models import predict_cpu_time
from repro.sim import simulate_cpu

from .kernels import build_gemm, build_rowwise


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield
    clear_caches()


def _wrap_everywhere(monkeypatch, owner, name, wrapper):
    """Replace every ``repro`` module-global reference to ``owner.name``.

    A function imported by name lives on in the importing module's
    namespace, so patching only the defining module would miss calls.
    """
    original = getattr(owner, name)
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", None) or ""
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, wrapper)
    return original


class TestTrafficPin:
    def test_suite_sweep_analyses_each_record_once(self, monkeypatch):
        records = []
        ipda_calls = []
        lowerings: dict[tuple, int] = {}

        real_compile = ProgramAttributeDatabase.compile_region
        real_analyze = ipda_analysis.analyze_region
        real_lower = lowering.lower_region

        def counting_compile(db, region):
            attrs = real_compile(db, region)
            records.append(attrs)
            return attrs

        def counting_analyze(region):
            ipda_calls.append(region)
            return real_analyze(region)

        def counting_lower(region, cpu, *, vectorize=True):
            key = (id(region), lowering_key(cpu), vectorize)
            lowerings[key] = lowerings.get(key, 0) + 1
            return real_lower(region, cpu, vectorize=vectorize)

        monkeypatch.setattr(
            ProgramAttributeDatabase, "compile_region", counting_compile
        )
        _wrap_everywhere(monkeypatch, ipda_analysis, "analyze_region",
                         counting_analyze)
        _wrap_everywhere(monkeypatch, lowering, "lower_region", counting_lower)

        measure_suite("p9-v100", "test", jobs=1)
        predict_suite("p9-v100", "test", jobs=1)

        # the suite plus the calibration microbenchmarks
        assert len(records) > 20
        assert [id(r) for r in ipda_calls] == [id(a.region) for a in records]
        # one record per region object, so a region id names its record
        assert len({id(a.region) for a in records}) == len(records)
        assert lowerings, "the sweep lowered nothing"
        assert max(lowerings.values()) == 1, {
            k: n for k, n in lowerings.items() if n > 1
        }


class TestLoweringCache:
    def test_value_keyed_and_shared(self):
        attrs = compile_attributes(build_gemm())
        no_fma = dataclasses.replace(POWER9, has_fma=False)
        assert no_fma.name == POWER9.name

        base = attrs.lowering(POWER9)
        variant = attrs.lowering(no_fma)
        assert variant is not base
        assert variant != base  # FMA fusion changes the ops
        assert variant == lower_region(attrs.region, no_fma)
        assert base == lower_region(attrs.region, POWER9)
        # a second request for the same key returns the same tree
        assert attrs.lowering(no_fma) is variant
        assert attrs.lowering(POWER9) is base
        # fields lowering does not read do not split the cache
        slower = dataclasses.replace(POWER9, frequency_ghz=1.0)
        assert attrs.lowering(slower) is base
        assert attrs.lowering(POWER9, vectorize=False) is not base

    def test_key_holds_what_lowering_reads(self):
        assert lowering_key(POWER8) != lowering_key(POWER9)
        wide = dataclasses.replace(POWER9, vector_width_bits=256)
        assert lowering_key(wide) != lowering_key(POWER9)
        renamed = dataclasses.replace(POWER9, name="other")
        assert lowering_key(renamed) == lowering_key(POWER9)

    def test_cache_is_not_part_of_the_record(self):
        attrs = compile_attributes(build_rowwise())
        twin = dataclasses.replace(attrs)
        attrs.lowering(POWER9)
        assert attrs == twin
        assert "_lowerings" not in repr(attrs)

    def test_consumers_leave_the_shared_tree_intact(self):
        attrs = compile_attributes(build_gemm())
        env = {"ni": 256, "nj": 256, "nk": 256}
        bound = attrs.bind(env)
        simulate_cpu(attrs, POWER9, env)
        predict_cpu_time(attrs, bound.loadout, bound.parallel_iterations,
                         POWER9, env=env)
        assert attrs.lowering(POWER9) == lower_region(attrs.region, POWER9)
