"""Scores declared vs dataflow-inferred transfer sizing (docs/LINT.md).

Gates on :meth:`repro.experiments.TransfersResult.failures`: the clean
suite keeps byte-identical sizing and decisions, every over-mapped
scenario only tightens, and the dead debug buffer flips the selector
onto the oracle under MAP004.  ``python benchmarks/bench_transfers.py``
runs the test-mode report, checks a seeded rerun is byte-identical and
writes ``BENCH_transfers.json`` (``--tiny`` is the same report).
"""

import sys

from conftest import grid_main, run_printed

from repro.experiments import run_transfers


def test_transfers_regeneration(benchmark):
    result = benchmark.pedantic(run_printed, args=(run_transfers,), rounds=1, iterations=1)
    assert result.failures() == []


if __name__ == "__main__":
    sys.exit(grid_main("transfers", run_transfers, {}, {}))
