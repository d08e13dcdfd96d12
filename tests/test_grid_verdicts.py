"""Each robustness grid decides pass/fail in one place: ``failures()``.

The verdicts are built straight from the score dataclasses, so every
gate is pinned without running a grid.
"""

from repro.experiments import (
    DriftResult,
    DriftScore,
    FaultScore,
    FaultsResult,
    ScenarioOutcome,
    TransfersResult,
)


def _drift(latency: int) -> DriftResult:
    score = DriftScore(
        scenario="gpu-optimist",
        launches=96,
        detection_launch=24 + latency,
        detection_latency=latency,
        repromote_launch=None,
        baseline_accuracy=1.0,
        skewed_accuracy=0.5,
        healed_accuracy=1.0,
        recovery_gap=0.0,
        bit_identical=None,
        watchdog_overruns=0,
    )
    return DriftResult(rows=(score,), launches=96, start=24)


class TestDriftVerdict:
    def test_latency_within_bound_passes(self):
        result = _drift(8)
        assert result.failures() == []
        assert result.passed and result.rows[0].ok

    def test_latency_past_bound_fails(self):
        result = _drift(10)
        assert result.failures() == [
            "gpu-optimist: detection latency 10 > 8 launches"
        ]
        assert not result.passed and not result.rows[0].ok
        assert result.to_payload()["max_detection_latency"] == 8


def _faults(dead_gpu_ms: float) -> FaultsResult:
    def row(policy, total_ms, fallbacks, breaker):
        return FaultScore(
            scenario="dead-gpu",
            policy=policy,
            launches=4,
            total_seconds=total_ms * 1e-3,
            faults=4,
            retries=0,
            fallbacks=fallbacks,
            breaker_state=breaker,
            vs_oracle=1.0,
        )

    return FaultsResult(
        rows=(
            row("always-gpu", dead_gpu_ms, 4, "open"),
            row("always-cpu", 100.0, 0, "open"),
        ),
        launches=4,
    )


class TestFaultsVerdict:
    def test_dead_gpu_within_retry_hair_passes(self):
        assert _faults(100.5).failures() == []

    def test_dead_gpu_costlier_than_always_cpu_fails(self):
        result = _faults(102.0)
        assert not result.passed
        (failure,) = result.failures()
        assert failure.startswith("dead-gpu/always-gpu: 102.000 ms > 1.01")


def _transfers(map_codes: tuple[str, ...]) -> TransfersResult:
    deadbuf = ScenarioOutcome(
        scenario="dead-debug-buffer",
        region="xfer_deadbuf",
        map_codes=map_codes,
        declared_to_device=100,
        declared_to_host=100,
        inferred_to_device=50,
        inferred_to_host=50,
        cpu_seconds=1.0,
        gpu_kernel_seconds=0.1,
        declared_transfer_seconds=2.0,
        inferred_transfer_seconds=0.1,
        decision_declared="cpu",
        decision_inferred="gpu",
    )
    assert deadbuf.fixed and deadbuf.wasted_seconds > 0
    return TransfersResult(
        platform="p9-v100", mode="test", suite=(), scenarios=(deadbuf,)
    )


class TestTransfersVerdict:
    def test_dead_buffer_flip_under_map004_passes(self):
        assert _transfers(("MAP004",)).passed

    def test_dead_buffer_without_map004_fails(self):
        result = _transfers(("MAP003",))
        assert result.failures() == [
            "dead-debug-buffer: no MAP004 flip onto the oracle"
        ]
        assert not result.passed
