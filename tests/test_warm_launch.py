"""Tests for the warm launch path: per-case contexts and the catalog skip.

A launch resolves its ``(region, env)`` case once into a
:class:`~repro.runtime.CaseContext`.  With an
:class:`~repro.runtime.ExecutionMemo` the context is interned on the
runtime's dispatch core, so a warm launch touches neither the memo nor
the attribute database; without one every launch builds a fresh context.
Either way the records are the ones the runtime produced before the
context existed (``tests/test_output_pins.py`` pins whole runs).
"""

from repro.machines import (
    NVLINK2,
    PCIE3_X16,
    PLATFORM_P9_V100,
    POWER9,
    TESLA_K80,
    TESLA_V100,
    AcceleratorSlot,
    Platform,
)
from repro.replay import (
    MemoizedPolicy,
    ReplayConfig,
    ReplayEngine,
    WorkloadConfig,
    generate_requests,
)
from repro.runtime import (
    ExecutionMemo,
    ModelGuided,
    MultiDeviceRuntime,
    OffloadingRuntime,
)

from .kernels import build_gemm

ENV = {"ni": 512, "nj": 512, "nk": 512}

DUAL = Platform(
    "P9 + V100/NVLink + K80/PCIe",
    POWER9,
    (
        AcceleratorSlot(TESLA_V100, NVLINK2),
        AcceleratorSlot(TESLA_K80, PCIE3_X16),
    ),
)


def _runtime(**kwargs) -> OffloadingRuntime:
    rt = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided(), **kwargs)
    rt.compile_region(build_gemm())
    return rt


class TestCaseContext:
    def test_interned_with_a_memo_and_memo_idle_once_warm(self):
        memo = ExecutionMemo()
        rt = _runtime(memo=memo)
        first = rt.launch("gemm", ENV)
        lookups = memo.hits + memo.misses
        again = rt.launch("gemm", dict(ENV))
        assert again == first
        assert memo.hits + memo.misses == lookups  # served by the context
        core = rt._core
        assert core.case("gemm", ENV) is core.case("gemm", dict(ENV))

    def test_fresh_every_launch_without_a_memo(self):
        rt = _runtime()
        core = rt._core
        assert core.case("gemm", ENV) is not core.case("gemm", ENV)
        assert rt.launch("gemm", ENV) == rt.launch("gemm", ENV)

    def test_memo_and_no_memo_records_are_identical(self):
        plain, memoized = _runtime(), _runtime(memo=ExecutionMemo())
        for env in (ENV, {"ni": 9600, "nj": 9600, "nk": 9600}, ENV):
            assert plain.launch("gemm", env) == memoized.launch("gemm", env)

    def test_keys_follow_the_stream_keying(self):
        for by_env, want in (
            (False, "gemm"),
            (True, "gemm@ni=512,nj=512,nk=512"),
        ):
            rt = _runtime(sentinel_stream_by_env=by_env)
            ctx = rt._core.case("gemm", {"nk": 512, "nj": 512, "ni": 512})
            assert ctx.sentinel_key == want
            assert ctx.case_key == "gemm@ni=512,nj=512,nk=512"

    def test_degraded_multi_launch_simulates_only_the_host(self):
        memo = ExecutionMemo()
        rt = MultiDeviceRuntime(DUAL, memo=memo)
        rt.compile_region(build_gemm())
        rt.launch("gemm", ENV, force_target="cpu")
        assert memo.misses == 1  # one host execution: no bind, no accelerators
        ctx = rt._core.case("gemm", ENV)
        assert ctx.bound is None and ctx.footprint is None
        assert ctx.executions[1:] == [None, None]

    def test_dilation_is_applied_every_launch(self):
        rt = _runtime(memo=ExecutionMemo())
        calm = rt.launch("gemm", ENV)
        rt.time_dilation = lambda kind: 2.0 if kind == "gpu" else 1.0
        slow = rt.launch("gemm", ENV)
        assert slow.gpu_seconds == calm.gpu_seconds * 2.0
        assert slow.cpu_seconds == calm.cpu_seconds


class TestCatalogOnce:
    def test_warm_database_replays_without_the_catalog(self, monkeypatch):
        workload = WorkloadConfig(launches=60, seed=4)
        cfg = ReplayConfig(platform=PLATFORM_P9_V100, workload=workload)
        requests = generate_requests(workload)
        memo, policy = ExecutionMemo(), MemoizedPolicy()
        cold = ReplayEngine(cfg, policy=policy, memo=memo)
        want = cold.run(requests=requests).records

        def no_catalog(*args, **kwargs):
            raise AssertionError("catalog rebuilt for a warm database")

        monkeypatch.setattr("repro.replay.engine.build_catalog", no_catalog)
        warm = ReplayEngine(cfg, policy=policy, memo=memo, db=cold.runtime.db)
        assert warm.run(requests=requests).records == want
