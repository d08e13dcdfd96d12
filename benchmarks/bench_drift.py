"""Scores the drift sentinel across the calibration-skew scenario grid.

Gates on :meth:`repro.experiments.DriftResult.failures` (thresholds in
``repro.experiments.drift``, docs/ROBUSTNESS.md): the zero-skew control
stays bit-identical and never drifts, every skew is detected within the
latency bound and healed within the accuracy gap, and the transient
skew is re-promoted to CALIBRATED.  ``python benchmarks/bench_drift.py``
runs the 96-launch grid, checks a seeded rerun is byte-identical and
writes ``BENCH_drift.json``; ``--tiny`` is the 72-launch CI smoke.
"""

import sys

from conftest import grid_main, run_printed

from repro.experiments import run_drift


def test_drift_regeneration(benchmark):
    result = benchmark.pedantic(run_printed, args=(run_drift,), rounds=1, iterations=1)
    assert result.failures() == []


if __name__ == "__main__":
    sys.exit(
        grid_main(
            "drift",
            run_drift,
            {"launches": 96, "start": 24},
            {"launches": 72, "start": 18},
        )
    )
