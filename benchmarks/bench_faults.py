"""Scores every policy under the injected-fault scenario grid.

Gates on :meth:`repro.experiments.FaultsResult.failures`
(docs/ROBUSTNESS.md): fault-free runs suffer nothing; under a dead GPU
every launch falls back at about always-cpu cost and the breaker opens;
under flaky transfers the model-guided selector stays at the degraded
oracle; the OOM trigger fires.  ``python benchmarks/bench_faults.py``
runs the 12-launch grid, checks a seeded rerun is byte-identical and
writes ``BENCH_faults.json``; ``--tiny`` is the 4-launch CI smoke.
"""

import sys

from conftest import grid_main, run_printed

from repro.experiments import run_faults


def test_faults_regeneration(benchmark):
    result = benchmark.pedantic(run_printed, args=(run_faults,), rounds=1, iterations=1)
    assert result.failures() == []


if __name__ == "__main__":
    sys.exit(grid_main("faults", run_faults, {"launches": 12}, {"launches": 4}))
