"""Scores the traffic-replay chaos grid at production scale.

Gates on :meth:`repro.experiments.ReplayResult.failures` (thresholds in
``repro.experiments.replay``, docs/ROBUSTNESS.md): chaos scenarios keep
steady-state accuracy, detect and recover within bounds; overhead tails
stay finite; overload scenarios bound the queue while shedding /
degrading / deferring; the hedged arm wins under bounded duplicated
work.  ``python benchmarks/bench_replay.py`` runs the 10^5-requests-per-
scenario grid, checks a seeded rerun is byte-identical and writes
``BENCH_traffic.json``; ``--tiny`` is the 2000-request CI smoke target.
"""

import sys

from conftest import grid_main, run_printed

from repro.experiments import run_replay


def test_replay_regeneration(benchmark):
    result = benchmark.pedantic(run_printed, args=(run_replay,), rounds=1, iterations=1)
    assert result.failures() == []


if __name__ == "__main__":
    sys.exit(
        grid_main("traffic", run_replay, {"launches": 100_000}, {"launches": 2_000})
    )
