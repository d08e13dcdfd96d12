"""Scores the multi-tenant offload service against its legacy-FIFO twins.

Gates on :meth:`repro.experiments.ServiceResult.failures` (thresholds in
``repro.experiments.service``, docs/ROBUSTNESS.md): steady accuracy
within a delta of the FIFO twin, bounded per-tenant p99 fairness, and
at least one scenario where transfer/compute overlap beats the serial
FIFO on the stressed tail.  ``python benchmarks/bench_service.py`` runs
the 20000-request grid, checks a seeded rerun is byte-identical and
writes ``BENCH_service.json``; ``--tiny`` is the 2000-request CI smoke.
"""

import sys

from conftest import grid_main, run_printed

from repro.experiments import run_service


def test_service_regeneration(benchmark):
    result = benchmark.pedantic(run_printed, args=(run_service,), rounds=1, iterations=1)
    assert result.failures() == []


if __name__ == "__main__":
    sys.exit(
        grid_main("service", run_service, {"launches": 20_000}, {"launches": 2_000})
    )
