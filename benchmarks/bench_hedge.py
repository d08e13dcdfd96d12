"""Scores hedged dispatch over the deadline-budget x chaos grid.

Gates on :meth:`repro.experiments.HedgeResult.failures`
(docs/ROBUSTNESS.md): every cell arms backups under the duplicated-work
ceiling, and unbudgeted cells strictly cut the chaos-window p99 vs their
unhedged twin.  ``python benchmarks/bench_hedge.py`` runs the
20000-request grid, checks a seeded rerun is byte-identical and writes
``BENCH_hedge.json``; ``--tiny`` is the 2000-request CI smoke target.
"""

import sys

from conftest import grid_main, run_printed

from repro.experiments import run_hedge


def test_hedge_regeneration(benchmark):
    result = benchmark.pedantic(run_printed, args=(run_hedge,), rounds=1, iterations=1)
    assert result.failures() == []


if __name__ == "__main__":
    sys.exit(
        grid_main("hedge", run_hedge, {"launches": 20_000}, {"launches": 2_000})
    )
