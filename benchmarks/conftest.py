"""Benchmark-suite configuration and the shared bench helpers.

The benchmarks regenerate every paper table/figure; each prints its
artefact once (so ``pytest benchmarks/ --benchmark-only -s`` shows the
reproduced tables) and times the regeneration itself.

The robustness grids (replay, service, hedge, drift, faults, transfers)
decide pass/fail in exactly one place, their result's ``failures()``;
:func:`grid_main` is the one command-line driver around them.
"""

import json
import os
import sys
from pathlib import Path

# allow running from a source checkout without installation
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover
    sys.path.insert(0, str(SRC))

_PRINTED: list = []  # (run, args) pairs; args may be unhashable


def run_printed(run, *args):
    """``run(*args)``, printing the result's ``render()`` once per session.

    pytest-benchmark may call a target several times; the reproduced
    artefact is shown on the first call for each ``(run, args)`` only.
    """
    result = run(*args)
    if (run, args) not in _PRINTED:
        _PRINTED.append((run, args))
        print()
        print(result.render())
    return result


def grid_main(name: str, run, full: dict, tiny: dict) -> int:
    """Run one robustness grid from the command line; the exit code.

    Runs ``run(**full)`` (``run(**tiny)`` with ``--tiny``), prints the
    report, reruns the identical seeded grid and demands a byte-identical
    payload, then writes ``BENCH_<name>.json``: the payload plus the
    grid module's ``MAX_*``/``MIN_*`` thresholds and the rerun verdict.
    Every ``failures()`` line is printed to stderr as ``FAIL: ...``.
    """
    kwargs = tiny if "--tiny" in sys.argv[1:] else full
    result = run(**kwargs)
    print(result.render())
    failures = result.failures()
    payload = result.to_payload()
    rerun = run(**kwargs).to_payload()
    identical = json.dumps(payload, sort_keys=True) == json.dumps(rerun, sort_keys=True)
    if not identical:
        failures.append("seeded rerun is not byte-identical")
    payload["thresholds"] = {
        key.lower(): value
        for key, value in sorted(vars(sys.modules[run.__module__]).items())
        if key.startswith(("MAX_", "MIN_"))
    }
    payload["rerun_identical"] = identical
    out = Path(f"BENCH_{name}.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def pytest_configure(config):
    """Activate the persistent analysis cache when the runner asks for it.

    ``REPRO_CACHE_DIR=…`` makes every benchmark in the session share one
    :class:`repro.parallel.AnalysisCache`, so warm re-runs skip the
    static analysis entirely (cold vs warm is what
    ``benchmarks/bench_parallel.py`` scores).  Without the variable the
    suite runs exactly as before — no cache, bit-identical results.
    """
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir:
        from repro.parallel import AnalysisCache

        activation = AnalysisCache(cache_dir).activate()
        activation.__enter__()
        config._repro_cache_activation = activation


def pytest_unconfigure(config):
    activation = getattr(config, "_repro_cache_activation", None)
    if activation is not None:
        activation.__exit__(None, None, None)
