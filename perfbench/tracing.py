"""Wall-clock span tracing from outside the program.

The benchmark may not edit the code it measures, so layer boundaries are
recorded by wrapping public functions and methods at run time.  A
function imported by name (``from ..sim import simulate_cpu``) lives on
in the importing module's namespace, so :meth:`SpanTracer.install`
replaces *every* reference to the original function object in every
loaded ``repro`` module, not only the defining one; methods are patched
on their class.

Each wrapped call is a span: name, start, end and parent.  A layer's
self time is its spans' duration minus the part covered by their child
spans (calls are nested on one thread, so the covered part is the sum
of the direct children's durations).  Aggregates cover every span;
raw spans are kept in memory only while :attr:`SpanTracer.recording`
is set and are written out as a Chrome trace at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter

__all__ = ["SpanTracer", "layer_targets"]


def layer_targets():
    """(span name, owner, attribute) for every wrapped layer boundary.

    ``owner`` is a module (function boundary) or a class (method
    boundary).  Imported lazily so that importing this file costs
    nothing before the program is on ``sys.path``.
    """
    from repro.analysis import ProgramAttributeDatabase
    from repro.calibrate import model_fit
    from repro.drift import DriftSentinel
    from repro.ipda import analysis as ipda_analysis
    from repro.mca import lowering, scheduler
    from repro.models import selector
    from repro.obs import MetricsRegistry
    from repro.replay import OffloadService, ReplayEngine, score, workload
    from repro.runtime import MultiDeviceRuntime, OffloadingRuntime
    from repro.sim import cpu_sim, gpu_sim, interconnect_sim

    return [
        ("analysis.compile", ProgramAttributeDatabase, "compile_region"),
        ("mca.lower", lowering, "lower_region"),
        ("mca.steady_state", scheduler, "steady_state_cycles"),
        ("ipda.analyze", ipda_analysis, "analyze_region"),
        ("models.predict", selector, "predict_both"),
        ("calibrate.fit", model_fit, "fit_model_calibration"),
        ("sim.cpu", cpu_sim, "simulate_cpu"),
        ("sim.gpu", gpu_sim, "simulate_gpu_kernel"),
        ("sim.transfer", interconnect_sim, "simulate_transfers"),
        ("runtime.launch", OffloadingRuntime, "launch"),
        ("runtime.launch", MultiDeviceRuntime, "launch"),
        ("drift.observe", DriftSentinel, "observe"),
        # every metric update starts with one get-or-create lookup, and
        # the lookup (label-key building) is where the registry's cost is
        ("obs.metrics", MetricsRegistry, "counter"),
        ("obs.metrics", MetricsRegistry, "gauge"),
        ("obs.metrics", MetricsRegistry, "histogram"),
        ("obs.metrics", MetricsRegistry, "quantiles"),
        ("replay.generate", workload, "generate_requests"),
        ("replay.engine", ReplayEngine, "run"),
        ("replay.score", score, "score_run"),
        ("service.run", OffloadService, "run"),
    ]


def _program_modules():
    """Every loaded module of the program (``repro`` and below)."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", None) or ""
        if name == "repro" or name.startswith("repro."):
            yield module


class SpanTracer:
    """Per-layer call counts and self time, plus a bounded raw span log."""

    def __init__(self, max_spans: int = 250_000):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        #: inclusive durations of every span of these names (percentiles)
        self.samples: dict[str, list[float]] = {}
        #: calls of a name made while another named span was open:
        #: (child, ancestor) -> count, for the completeness self-test
        self.nested_calls: dict[tuple[str, str], int] = {}
        self._watch_nesting: set[tuple[str, str]] = set()
        self._stack: list[list] = []  # [name, start, child_s, span_id]
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.recording = False
        self.max_spans = max_spans
        self.dropped = 0
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._origin = perf_counter()
        self._installed: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}  # id(original) -> span name

    # -- configuration ------------------------------------------------------
    def keep_samples(self, name: str) -> None:
        self.samples.setdefault(name, [])

    def watch_nesting(self, child: str, ancestor: str) -> None:
        self._watch_nesting.add((child, ancestor))
        self.nested_calls.setdefault((child, ancestor), 0)

    # -- spans --------------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [name, 0.0, 0.0, -1]
        if self.recording:
            if len(self._span_start) < self.max_spans:
                name_id = self._name_ids.get(name)
                if name_id is None:
                    name_id = self._name_ids[name] = len(self._names)
                    self._names.append(name)
                frame[3] = len(self._span_start)
                self._span_name.append(name_id)
                self._span_parent.append(self._stack[-1][3] if self._stack else -1)
                self._span_start.append(0.0)
                self._span_end.append(0.0)
            else:
                self.dropped += 1
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name = frame[0]
        duration = end - frame[1]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
        if stack:
            stack[-1][2] += duration
        sample = self.samples.get(name)
        if sample is not None:
            sample.append(duration)
        if self._watch_nesting:
            for child, ancestor in self._watch_nesting:
                if child == name and any(f[0] == ancestor for f in stack):
                    self.nested_calls[(child, ancestor)] += 1
        span_id = frame[3]
        if span_id >= 0:
            self._span_start[span_id] = frame[1]
            self._span_end[span_id] = end

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary, at every site that references it."""
        for name, owner, attr in layer_targets():
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original)
            self._originals[id(original)] = name
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))
                continue
            for module in _program_modules():
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapped
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def unwrapped_references(self) -> list[str]:
        """Module attributes that still reference an original boundary.

        Empty after :meth:`install`; the completeness self-test asserts
        it, so a module imported after installation cannot escape.
        """
        return [
            f"{module.__name__}.{key} ({self._originals[id(value)]})"
            for module in _program_modules()
            for key, value in vars(module).items()
            if id(value) in self._originals
        ]

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Copy of the aggregate counters (for per-phase differences)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "nested": dict(self.nested_calls),
        }

    def write_chrome_trace(self, path: str) -> int:
        """Write the recorded spans as Chrome trace events; returns count."""
        n = len(self._span_start)
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i in range(n):
                event = {
                    "name": self._names[self._span_name[i]],
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": round((self._span_start[i] - self._origin) * 1e6, 3),
                    "dur": round((self._span_end[i] - self._span_start[i]) * 1e6, 3),
                    "args": {"id": i, "parent": self._span_parent[i]},
                }
                fh.write(json.dumps(event))
                fh.write(",\n" if i + 1 < n else "\n")
            fh.write("]}\n")
        return n
