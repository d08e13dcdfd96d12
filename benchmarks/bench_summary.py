"""The live claim scorecard: every shape-level paper claim must hold."""

from conftest import run_printed

from repro.experiments import run_summary


def test_summary_scorecard(benchmark):
    result = benchmark.pedantic(run_printed, args=(run_summary,), rounds=1, iterations=1)
    assert len(result.claims) >= 9
    failing = [c.claim for c in result.claims if not c.holds]
    assert result.all_hold, f"claims regressed: {failing}"
