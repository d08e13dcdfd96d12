#!/usr/bin/env python3
"""Wall-clock benchmark of the reproduction: four workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay-steady --seed 0 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see perfbench/README.md for both tables).  Every line but the
last is for people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record-reference``
rewrites the stored output digests of the reference seed instead.

The program is imported from ``src/`` next to this directory, with
``jobs=1`` and no persistent analysis cache; the process exits with
status 2, printing no result, when the sources are not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from hostspeed import NOMINAL_CALIBRATION_S, calibrate
from tracing import SpanTracer
from workloads import (
    ARTEFACTS,
    REFERENCE_SEED,
    WORKLOADS,
    drain,
    import_program,
    make_workload,
    median,
    quantile,
    run_pass,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: every run replays its unit of work at least twice (rerun identity)
MIN_PASSES = 2

#: per-layer metrics: (name, unit), in report order
LAYER_METRICS = [(f"experiments.{a}_s", "s") for a in ARTEFACTS] + [
    ("analysis.compile_calls", "count"),
    ("analysis.compile_self_s", "s"),
    ("mca.lower_calls", "count"),
    ("mca.lower_self_s", "s"),
    ("mca.steady_state_calls", "count"),
    ("mca.steady_state_self_s", "s"),
    ("ipda.analyze_calls", "count"),
    ("ipda.analyze_self_s", "s"),
    ("models.predict_calls", "count"),
    ("models.predict_self_s", "s"),
    ("calibrate.fit_calls", "count"),
    ("calibrate.fit_self_s", "s"),
    ("sim.cpu_calls", "count"),
    ("sim.cpu_self_s", "s"),
    ("sim.gpu_calls", "count"),
    ("sim.gpu_self_s", "s"),
    ("sim.transfer_self_s", "s"),
    ("runtime.launch_calls", "count"),
    ("runtime.launch_self_s", "s"),
    ("runtime.launch_us_p50", "us"),
    ("runtime.launch_us_p999", "us"),
    ("runtime.launch_us_samples", "count"),
    ("runtime.memo_hit_ratio", "fraction"),
    ("runtime.policy_hit_ratio", "fraction"),
    ("runtime.fallbacks", "count"),
    ("runtime.retried_launches", "count"),
    ("drift.observe_calls", "count"),
    ("drift.observe_self_s", "s"),
    ("obs.metric_updates", "count"),
    ("obs.metrics_self_s", "s"),
    ("faults.fault_events", "count"),
    ("faults.hedge_wins", "count"),
    ("replay.generate_s", "s"),
    ("replay.engine_self_s", "s"),
    ("replay.score_s", "s"),
    ("replay.shed", "count"),
    ("replay.degraded", "count"),
    ("replay.expired", "count"),
    ("replay.queue_wait_p99_ms", "sim_ms"),
    ("replay.sim_completion_p99_ms", "sim_ms"),
    ("service.run_self_s", "s"),
    ("service.batches", "count"),
    ("service.batched_fraction", "fraction"),
    ("service.transfers_waived", "count"),
    ("service.lane_max_depth", "count"),
    ("trace.overhead_fraction", "fraction"),
]

#: layers a workload exercises: zero calls there means a missed wrapper
_COLD = (
    "analysis.compile", "mca.lower", "mca.steady_state", "ipda.analyze",
    "models.predict", "calibrate.fit", "sim.cpu", "sim.gpu", "sim.transfer",
    "runtime.launch",
)
_REPLAY = ("drift.observe", "obs.metrics", "replay.generate", "replay.engine",
           "replay.score")
EXPECTED_ACTIVE = {
    "paper-cold": _COLD,
    "replay-steady": _COLD + _REPLAY,
    "service-storm": _COLD + _REPLAY + ("service.run",),
    "replay-multi": _COLD + _REPLAY,
}


def _diff(after: dict, before: dict) -> dict:
    out = {}
    for kind in ("calls", "self_s", "total_s", "nested"):
        a, b = after[kind], before[kind]
        out[kind] = {k: a[k] - b.get(k, 0) for k in a}
    return out


class Report:
    """Collects the run's verdicts and prints the human and JSON output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests = None
        self.accuracy = None

    def judge(self, outputs) -> None:
        """Check one pass's outputs (reference, first pass, invariants)."""
        if outputs is None:  # the whole pass raised
            self.attempted += self.workload.units
            self.failed += self.workload.units
            return
        verdict, accuracy = self.workload.check(outputs, self.first_digests)
        if self.first_digests is None:
            self.first_digests = self.workload.digests(outputs)
            self.accuracy = accuracy
        self.attempted += verdict.attempted
        self.failed += min(verdict.failed, verdict.attempted)
        self.problems.extend(verdict.problems)

    def emit(self, metrics: dict) -> None:
        for name, (value, unit) in metrics.items():
            print(f"{name:<34} {value:>16.6g} {unit}")
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"{'error_rate':<34} {error_rate:>16.6g} fraction "
              f"({self.failed}/{self.attempted} operations)")
        for problem in sorted(set(self.problems))[:20]:
            print(f"perfbench: {problem}", file=sys.stderr)
        result = {
            "correct": self.failed == 0 and not self.problems and self.attempted > 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
        print(json.dumps(result, sort_keys=True))


class Clock:
    """Wall time of each step of one pass or set-up, with a host-speed
    sample taken after every step."""

    def __init__(self, samples: list[float] | None = None):
        self.steps: list[float] = []
        self.samples = [calibrate()] if samples is None else list(samples)

    @property
    def raw(self) -> float:
        return sum(self.steps)

    def add(self, elapsed: float) -> None:
        """Book ``elapsed`` seconds of a step that ended just now."""
        self.steps.append(elapsed)
        self.samples.append(calibrate())

    def time(self, fn):
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.add(perf_counter() - t0)

    def time_steps(self, steps):
        """Time a generator step by step; its return value."""
        while True:
            try:
                self.time(lambda: next(steps))
            except StopIteration as stop:
                return stop.value


def nominal_median(clocks: list[Clock]) -> float:
    """Typical wall time of one pass (or set-up), at the nominal host speed.

    Each step's lower median over the clocks, summed: a step caught in
    a scheduling blip moves nothing, even when there are only two.  The rescaling uses the median
    host-speed sample of the whole group, so a host that stayed busy for
    the whole run is corrected for, and one odd sample is not.
    """
    shapes = {len(c.steps) for c in clocks}
    if len(shapes) == 1:
        typical = sum(
            statistics.median_low(step) for step in zip(*(c.steps for c in clocks))
        )
    else:  # a pass that raised stopped early
        typical = median([c.raw for c in clocks])
    samples = [t for c in clocks for t in c.samples]
    return typical * NOMINAL_CALIBRATION_S / median(samples)


def _passes(workload, state, seconds: float, report: Report, *, tracer=None,
            minimum: int = MIN_PASSES, on_pass=None) -> list[Clock]:
    """Repeat the unit of work until ``seconds`` elapse; one Clock per pass."""
    clocks = []
    deadline = perf_counter() + seconds
    while len(clocks) < minimum or perf_counter() < deadline:
        gc.collect()
        before = tracer.snapshot() if tracer else None
        hits = _hit_counts(state)
        clock = Clock()
        try:
            outputs = workload.collect(
                [clock.time(step) for step in workload.steps(state, tracer)]
            )
        except Exception as exc:  # an operation that raised is a failure
            report.problems.append(f"pass raised {type(exc).__name__}: {exc}")
            outputs = None
        clocks.append(clock)
        if on_pass is not None and outputs is not None:
            on_pass(outputs, _diff(tracer.snapshot(), before) if tracer else None,
                    _hit_counts(state, hits))
            if tracer is not None:
                tracer.recording = False  # raw spans: set-up + first pass only
        report.judge(outputs)
        if outputs is None:
            break
    return clocks


def _hit_counts(state, since=None):
    """(memo hits, memo lookups, policy hits, policy lookups) [since]."""
    if state is None:
        now = (0, 0, 0, 0)
    else:
        now = (
            state.memo.hits,
            state.memo.hits + state.memo.misses,
            state.policy.hits,
            state.policy.hits + state.policy.misses,
        )
    if since is None:
        return now
    return tuple(a - b for a, b in zip(now, since))


def run_end_to_end(workload, seconds: float) -> None:
    report = Report(workload)
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        if workload.name == "paper-cold":
            # timed, host speed included, inside a fresh interpreter
            seconds, *samples = workload.setup()
            clock = Clock(samples)
            clock.steps.append(seconds)
        else:
            clock = Clock()
            state = clock.time_steps(workload.build())
        setups.append(clock)
    clocks = _passes(workload, state, seconds, report)
    pass_s = nominal_median(clocks)
    metrics = {
        "setup_s": (nominal_median(setups), "s"),
        "sweep_s": (pass_s, "s"),
        "requests_per_s": (workload.units / pass_s if pass_s > 0 else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (
            1.0 - report.failed / report.attempted if report.attempted else 0.0,
            "fraction",
        ),
        "decision_accuracy": (report.accuracy or 0.0, "fraction"),
    }
    raw = [c.raw for c in clocks]
    q = statistics.quantiles(raw, n=4) if len(raw) > 1 else raw * 3
    speed = median([t for c in clocks for t in c.samples]) / NOMINAL_CALIBRATION_S
    print(f"workload {workload.name}: seed {workload.seed}, {len(setups)} set-ups, "
          f"{len(clocks)} passes of {workload.units} {workload.unit}")
    print(f"unscaled wall seconds: set-up median {median([c.raw for c in setups]):.4f}; "
          f"pass q1 {q[0]:.4f} median {median(raw):.4f} q3 {q[2]:.4f}; host slowdown "
          f"factor {speed:.3f}")
    report.emit(metrics)


def run_traced(workload, seconds: float) -> None:
    """Untraced passes, then a traced set-up and traced passes."""
    report = Report(workload)
    paper = workload.name == "paper-cold"
    state = None if paper else drain(workload.build())
    plain = _passes(workload, state, seconds / 2, report, minimum=1)

    tracer = SpanTracer()
    tracer.install()
    tracer.watch_nesting("models.predict", "calibrate.fit")
    tracer.recording = True
    start = tracer.snapshot()
    setup_launches = 0
    if not paper:
        state = drain(workload.build())
        setup_launches = state.setup_launches
    setup = _diff(tracer.snapshot(), start)
    tracer.keep_samples("runtime.launch")

    per_pass = []  # (outputs-derived facts, tracer delta, hit deltas)

    def on_pass(outputs, delta, hits):
        per_pass.append((workload.pass_facts(outputs), delta, hits))

    traced = _passes(workload, state, seconds / 2, report, tracer=tracer,
                     minimum=1, on_pass=on_pass)
    missed = tracer.unwrapped_references()
    tracer.uninstall()
    if not per_pass:
        report.emit({name: (0.0, unit) for name, unit in LAYER_METRICS})
        return

    facts, first, hits = per_pass[0]

    def calls(span: str) -> int:
        return setup["calls"].get(span, 0) + first["calls"].get(span, 0)

    def self_s(span: str) -> float:
        return setup["self_s"].get(span, 0.0) + median(
            [d["self_s"].get(span, 0.0) for _, d, _ in per_pass]
        )

    def total_s(span: str) -> float:
        return median([d["total_s"].get(span, 0.0) for _, d, _ in per_pass])

    # -- completeness self-test: a missed import site must not zero a layer
    for span in EXPECTED_ACTIVE[workload.name]:
        if calls(span) == 0:
            report.problems.append(f"trace: no {span} calls (missed wrapper?)")
    if missed:
        report.problems.append(f"trace: unwrapped references {missed}")
    for _, delta, _ in per_pass[1:]:
        if delta["calls"] != first["calls"]:
            report.problems.append("trace: call counts differ between passes")
            break
    if not paper and calls("runtime.launch") != setup_launches + facts["launched"]:
        report.problems.append(
            f"trace: {calls('runtime.launch')} runtime.launch calls, but "
            f"{setup_launches} set-up launches + {facts['launched']} launched outcomes"
        )
    if workload.name == "replay-steady":
        direct = calls("models.predict") - (
            setup["nested"].get(("models.predict", "calibrate.fit"), 0)
            + first["nested"].get(("models.predict", "calibrate.fit"), 0)
        )
        if direct != state.policy.misses:
            report.problems.append(
                f"trace: {direct} direct models.predict calls, but "
                f"{state.policy.misses} MemoizedPolicy misses"
            )

    launch_us = [s * 1e6 for s in tracer.samples.get("runtime.launch", [])]
    memo_hits, memo_lookups, policy_hits, policy_lookups = hits
    values = {f"experiments.{a}_s": total_s(f"experiments.{a}") for a in ARTEFACTS}
    for span in set(setup["calls"]) | set(first["calls"]):
        values[f"{span}_calls"] = calls(span)
        values[f"{span}_self_s"] = self_s(span)
    values["obs.metric_updates"] = calls("obs.metrics")
    values.update(
        {
            "runtime.launch_us_p50": quantile(launch_us, 0.5),
            "runtime.launch_us_p999": quantile(launch_us, 0.999),
            "runtime.launch_us_samples": len(launch_us),
            "runtime.memo_hit_ratio": memo_hits / memo_lookups if memo_lookups else 0.0,
            "runtime.policy_hit_ratio": (
                policy_hits / policy_lookups if policy_lookups else 0.0
            ),
            "replay.generate_s": setup["total_s"].get("replay.generate", 0.0),
            "replay.score_s": total_s("replay.score"),
            "trace.overhead_fraction": nominal_median(traced) / nominal_median(plain) - 1.0,
            **{k: v for k, v in facts.items() if k != "launched"},
        }
    )
    metrics = {name: (float(values.get(name, 0.0)), unit) for name, unit in LAYER_METRICS}
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload.name}.json")  # latest run only
    spans = tracer.write_chrome_trace(path)
    print(f"workload {workload.name}: seed {workload.seed}, {len(plain)} untraced + "
          f"{len(traced)} traced passes; {spans} spans "
          f"({tracer.dropped} beyond the cap) written to {os.path.relpath(path, ROOT)}")
    report.emit(metrics)


def record_reference(name: str) -> None:
    workload = make_workload(name, ROOT, REFERENCE_SEED, None)
    state = None if name == "paper-cold" else drain(workload.build())
    outputs = run_pass(workload, state)
    reference = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
    reference["seed"] = REFERENCE_SEED
    reference[name] = workload.reference_entry(outputs)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {name} reference (seed {REFERENCE_SEED}) in {REFERENCE_PATH}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    # one process, no worker pools, no persistent cache: measure the code
    for env in ("REPRO_JOBS", "REPRO_CHUNK", "REPRO_CACHE_DIR"):
        os.environ.pop(env, None)
    sys.path.insert(0, src)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    import_program()
    if args.record_reference:
        record_reference(args.workload)
        return 0
    reference = None
    # the paper artefacts take no seed, so every seed checks their digests
    if args.seed == REFERENCE_SEED or args.workload == "paper-cold":
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh).get(args.workload)
    workload = make_workload(args.workload, ROOT, args.seed, reference)
    if args.trace:
        run_traced(workload, args.seconds)
    else:
        run_end_to_end(workload, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
