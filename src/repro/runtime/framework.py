"""The offloading decision runtime (Figure 2, end to end).

``OffloadingRuntime`` owns the Program Attribute Database and the platform.
``compile_region`` is the compile-time half: outline, analyse, store
attributes.  ``launch`` is the runtime half: bind runtime values, ask the
policy for a target, dispatch to that device, and record everything the
experiments need (both device times are simulated so policies can be scored
against the oracle without re-running).

Dispatch is resilient (docs/ROBUSTNESS.md): an optional
:class:`~repro.faults.FaultInjector` makes accelerator attempts fail, and
the runtime answers with bounded retry + exponential backoff (on a
simulated clock), automatic host fallback, a per-device circuit breaker
and a :class:`~repro.faults.DeviceHealth` penalty that steers the
model-guided selector away from a flaky card.  With no injector the fast
path is taken and every record is bit-identical to the pre-fault-tolerance
runtime.

Dispatch is also *gated* (docs/LINT.md): an optional
:class:`~repro.lint.LintGate` refuses to offload regions whose parallel
band carries race-severity lint findings — raising, forcing the host, or
merely recording, per its mode.  Lint-clean regions leave no trace in the
record (``lint=None``), so they too stay bit-identical.

Dispatch is finally *drift-aware* (docs/ROBUSTNESS.md): an optional
:class:`~repro.drift.DriftSentinel` tracks predicted-vs-observed seconds
per (device, region), a :class:`~repro.drift.Watchdog` turns the
prediction into a per-launch deadline (an overrun becomes a typed
:class:`~repro.faults.DeadlineExceeded` feeding the health/breaker
machinery), and the :class:`~repro.drift.SelfHealingSelector` degrades
the model-guided decision gracefully when a stream is DRIFTED.  While
every stream is CALIBRATED the record carries no drift provenance
(``drift=None``) and sentinel-on runs stay bit-identical too.

Dispatch is, finally, *observable* (docs/OBSERVABILITY.md): an optional
:class:`~repro.obs.Tracer` records nested ``launch`` → ``predict`` →
``dispatch`` spans (with ``compile`` → ``analyse`` on the compile-time
side) and an optional :class:`~repro.obs.MetricsRegistry` counts
launches, retries, fallbacks, lint/drift verdicts and prediction error.
Both default off (:data:`~repro.obs.NULL_TRACER`), record-only, and
leave every ``LaunchRecord`` bit-identical whether attached or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from ..analysis import ProgramAttributeDatabase, RegionAttributes
from ..drift import DriftDecision, DriftSentinel, SelfHealingSelector, Watchdog
from ..faults import (
    DeviceHealth,
    FaultEvent,
    FaultInjector,
    RetryPolicy,
    SimulatedClock,
)
from ..ir import Region
from ..lint.gate import FALLBACK_LINT, GateDecision, LintGate, LintGateError
from ..machines import Platform
from ..models import SelectionPrediction
from ..obs import NULL_TRACER, MetricsRegistry, NullTracer, Tracer
from .device import AcceleratorDevice, HostDevice
from .dispatch import (
    FALLBACK_HEDGE,
    Budget,
    Bulkhead,
    DispatchCore,
    HedgeOutcome,
    HedgePolicy,
)
from .memo import ExecutionMemo
from .policies import ModelGuided, Policy

__all__ = ["ADMISSION_DEGRADED", "LaunchRecord", "OffloadingRuntime"]

#: Admission provenance stamped on launches degraded to the host by an
#: admission controller (``launch(..., force_target="cpu")``).
ADMISSION_DEGRADED = "degraded-to-host"


@dataclass(frozen=True)
class LaunchRecord:
    """Everything observed for one target-region launch.

    The trailing fields are fault-tolerance provenance; their defaults
    describe an untroubled launch, so fault-free runs produce records
    identical to the pre-resilience runtime.
    """

    region_name: str
    target: str  # device the launch actually executed on
    policy_name: str
    prediction: SelectionPrediction | None
    cpu_seconds: float  # measured (simulated) host time
    gpu_seconds: float  # measured (simulated) device time incl. transfers
    executed_seconds: float  # time of the chosen target (incl. retry backoff)
    requested_target: str | None = None  # policy's pick before rerouting
    attempts: int = 0  # accelerator dispatch attempts (0 = never tried)
    fault_events: tuple[FaultEvent, ...] = ()
    fallback: str | None = None  # why the launch left the requested target
    overhead_seconds: float = 0.0  # simulated retry backoff
    lint: GateDecision | None = None  # gate verdict (None = clean or no gate)
    drift: DriftDecision | None = None  # sentinel verdict (None = calibrated)
    admission: str | None = None  # admission-control provenance (None = full path)
    transfers: str | None = None  # transfer sizing source (None = declared map)
    hedge: HedgeOutcome | None = None  # hedged-launch provenance (None = no backup)
    tenant: str | None = None  # issuing tenant (None = anonymous/single-tenant)

    @property
    def true_speedup(self) -> float:
        """Actual GPU-offloading speedup (host / device).

        NaN when the device time is zero or non-finite (a failed launch
        measures no useful device time) so experiment tables degrade to
        "nan" instead of raising ZeroDivisionError or propagating inf.
        """
        if self.gpu_seconds <= 0.0 or not (
            math.isfinite(self.gpu_seconds) and math.isfinite(self.cpu_seconds)
        ):
            return math.nan
        return self.cpu_seconds / self.gpu_seconds

    @property
    def predicted_speedup(self) -> float | None:
        if self.prediction is None:
            return None
        cpu, gpu = self.prediction.cpu.seconds, self.prediction.gpu.seconds
        if gpu <= 0.0 or not (math.isfinite(gpu) and math.isfinite(cpu)):
            return math.nan
        return cpu / gpu

    @property
    def decision_correct(self) -> bool:
        """Did the policy match the oracle?"""
        oracle = "gpu" if self.gpu_seconds < self.cpu_seconds else "cpu"
        return self.target == oracle

    @property
    def oracle_seconds(self) -> float:
        return min(self.cpu_seconds, self.gpu_seconds)

    @property
    def fell_back(self) -> bool:
        """Did resilience reroute this launch off the requested target?"""
        return self.fallback is not None

    @property
    def faulted(self) -> bool:
        return bool(self.fault_events)


@dataclass
class OffloadingRuntime:
    """Compile-time + run-time halves of the decision framework."""

    platform: Platform
    policy: Policy = field(default_factory=ModelGuided)
    num_threads: int | None = None  # host team size (None = all hw threads)
    db: ProgramAttributeDatabase = field(default_factory=ProgramAttributeDatabase)
    injector: FaultInjector | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lint_gate: LintGate | None = None
    sentinel: DriftSentinel | None = None
    watchdog: Watchdog | None = None
    health_decay_halflife_s: float | None = None  # simulated-time penalty decay
    tracer: Tracer | NullTracer = NULL_TRACER  # off by default (records nothing)
    metrics: MetricsRegistry | None = None
    #: optional per-(region, env) cache of the deterministic launch inputs
    #: (simulated times, bindings, footprints); same values, so records
    #: stay bit-identical — the replay engine's 10⁵-launch fast path
    memo: ExecutionMemo | None = None
    #: optional per-launch time dilation: called with the device kind
    #: ("cpu"/"gpu"), returns a multiplier for that device's simulated
    #: seconds this launch.  The chaos hook for mid-stream hardware drift;
    #: None (the default) leaves every launch untouched.
    time_dilation: Callable[[str], float] | None = None
    #: key drift-sentinel streams by (region, env) instead of region
    #: alone.  A mixed-dataset-size workload replayed through one stream
    #: makes every size change look like a residual shift; per-case
    #: streams keep a stable workload CALIBRATED.  Off by default (the
    #: historical keying the drift experiment and its tests pin).
    sentinel_stream_by_env: bool = False
    #: optional per-device bounded scheduled-work slots; a saturated
    #: accelerator reroutes to the host (FALLBACK_BULKHEAD).  None = off.
    bulkheads: Bulkhead | None = None
    #: optional speculative host-backup policy (docs/ROBUSTNESS.md);
    #: None = off, and every record stays bit-identical.
    hedge: HedgePolicy | None = None

    def __post_init__(self):
        self._host = HostDevice(self.platform.host, num_threads=self.num_threads)
        self._accel = AcceleratorDevice(self.platform.gpu, self.platform.bus)
        self.clock = SimulatedClock()
        if self.tracer.enabled and self.tracer.clock is None:
            self.tracer.clock = self.clock  # span timestamps follow this runtime
        if self.sentinel is not None and self.sentinel.clock is None:
            self.sentinel.clock = self.clock  # drift transitions get timestamps
        self.health = DeviceHealth(
            self._accel.name,
            clock=self.clock,
            decay_halflife_s=self.health_decay_halflife_s,
        )
        self._accel_launches = 0  # per-device dispatch ordinal for the injector
        self._healer = (
            SelfHealingSelector(self.sentinel) if self.sentinel else None
        )
        self._core = DispatchCore(self)

    # -- compile time -------------------------------------------------------
    def compile_region(self, region: Region) -> RegionAttributes:
        """Outline + analyse a region into the attribute database."""
        with self.tracer.activate():
            return self.db.compile_region(region)

    # -- run time -------------------------------------------------------------
    def launch(
        self,
        region_name: str,
        env: Mapping[str, int],
        *,
        force_target: str | None = None,
        budget: Budget | None = None,
        tenant: str | None = None,
    ) -> LaunchRecord:
        """Reach a target region with runtime values and dispatch it.

        ``force_target="cpu"`` is the admission controller's degrade hook:
        the launch runs on the host immediately, skipping prediction and
        accelerator dispatch entirely (that cost is exactly what overload
        shedding exists to avoid); the record carries
        ``admission=ADMISSION_DEGRADED``.  The default ``None`` takes the
        full path and leaves the record bit-identical to a runtime without
        admission control.

        ``budget`` is this request's remaining end-to-end deadline
        budget: retry backoff and watchdog burn are charged against it
        and can never overspend it (docs/ROBUSTNESS.md).  ``None`` (the
        default) dispatches unbudgeted, bit-identically.

        ``tenant`` stamps the issuing tenant onto the record (the
        offload service's provenance hook); ``None`` — the anonymous
        single-tenant default — returns the identical record object an
        untenanted runtime would.
        """
        if force_target not in (None, "cpu"):
            raise ValueError(
                f"force_target must be None or 'cpu', got {force_target!r}"
            )
        tracer = self.tracer
        with tracer.activate(), tracer.span(
            "launch", region=region_name, policy=self.policy.name
        ) as span:
            if force_target == "cpu":
                record = self._launch_degraded(region_name, env)
            else:
                record = self._launch(region_name, env, tracer, budget)
            if tenant is not None:
                record = replace(record, tenant=tenant)
            if tracer.enabled:
                span.set("target", record.target)
                if record.fallback is not None:
                    span.set("fallback", record.fallback)
        if self.metrics is not None:
            self._core.record_metrics(
                record,
                executed_device=record.target,
                retries_labels={"device": self._accel.name},
                healths=((self._accel.name, self.health),),
                pred_triples=(
                    (
                        ("cpu", record.prediction.cpu.seconds, record.cpu_seconds),
                        ("gpu", record.prediction.gpu.seconds, record.gpu_seconds),
                    )
                    if record.prediction is not None
                    else ()
                ),
            )
        return record

    def _launch_degraded(
        self, region_name: str, env: Mapping[str, int]
    ) -> LaunchRecord:
        """The admission-degraded path: straight to the host, no models."""
        attrs = self.db.lookup(region_name)
        cpu_seconds = self._core.measure(self._host, attrs, env)
        gpu_seconds = self._core.measure(self._accel, attrs, env)
        return LaunchRecord(
            region_name=region_name,
            target="cpu",
            policy_name=self.policy.name,
            prediction=None,
            cpu_seconds=cpu_seconds,
            gpu_seconds=gpu_seconds,
            executed_seconds=cpu_seconds,
            requested_target="cpu",
            admission=ADMISSION_DEGRADED,
        )

    def _launch(
        self,
        region_name: str,
        env: Mapping[str, int],
        tracer: Tracer | NullTracer,
        budget: Budget | None = None,
    ) -> LaunchRecord:
        core = self._core
        attrs = self.db.lookup(region_name)
        bound = core.bound(attrs, env)

        cpu_seconds = core.measure(self._host, attrs, env)
        gpu_seconds = core.measure(self._accel, attrs, env)

        with tracer.span(
            "predict", region=region_name, policy=self.policy.name
        ) as pspan:
            requested, prediction = self.policy.choose(
                bound,
                self.platform,
                num_threads=self.num_threads,
                sim_cpu_seconds=cpu_seconds,
                sim_gpu_seconds=gpu_seconds,
            )
            # Self-healing selection: when the sentinel has flagged a stream,
            # the healed pick *is* the request (the raw model pick survives in
            # the drift provenance).  None while everything is CALIBRATED.
            drift_decision: DriftDecision | None = None
            if self._healer is not None and prediction is not None:
                drift_decision = self._healer.decide(
                    core.sentinel_key(region_name, env), prediction
                )
                if drift_decision is not None:
                    requested = drift_decision.target
            if tracer.enabled:
                pspan.set("requested", requested)
                if prediction is not None:
                    pspan.set("pred_cpu_s", prediction.cpu.seconds)
                    pspan.set("pred_gpu_s", prediction.gpu.seconds)
                if drift_decision is not None:
                    pspan.set("drift_mode", drift_decision.mode)
                    pspan.set("drift_cpu_state", drift_decision.cpu_state)
                    pspan.set("drift_gpu_state", drift_decision.gpu_state)
        target = requested
        fallback: str | None = None
        attempts = 0
        events: tuple[FaultEvent, ...] = ()
        overhead = 0.0
        plan: tuple[str, float] | None = None
        hedge: HedgeOutcome | None = None

        with tracer.span(
            "dispatch", region=region_name, requested=requested
        ) as dspan:
            lint_decision = core.lint_decision(attrs.region)

            self.health.breaker.on_launch()
            if (
                target == "gpu"
                and lint_decision is not None
                and lint_decision.blocked
            ):
                if lint_decision.action == "raise":
                    raise LintGateError(region_name, lint_decision.codes)
                target, fallback = "cpu", FALLBACK_LINT
            if target == "gpu":
                target, fallback = core.pre_dispatch_reroute(
                    self.health, prediction, "gpu"
                )
            if target == "gpu":
                launch_index = self._accel_launches
                plan = core.hedge_plan(
                    device_name=self._accel.name,
                    region_name=region_name,
                    env=env,
                    drift_flagged=drift_decision is not None,
                    half_open=core.half_open(self.health),
                    budget=budget,
                    predicted_gpu_s=(
                        prediction.gpu.seconds if prediction is not None else None
                    ),
                )
                result = core.attempt(
                    health=self.health,
                    device=self._accel,
                    attrs=attrs,
                    env=env,
                    launch_index=launch_index,
                    budget=budget,
                )
                self._accel_launches += 1
                attempts = result.attempts
                events = result.fault_events
                overhead = result.overhead_seconds
                if not result.ok:
                    target, fallback = "cpu", result.reason
                elif self.watchdog is not None and prediction is not None:
                    # the watchdog budgets from the (drift-healed) prediction
                    basis = prediction.gpu.seconds * (
                        drift_decision.correction_gpu
                        if drift_decision is not None
                        else 1.0
                    )
                    overrun = core.kill_overrun(
                        health=self.health,
                        device_name=self._accel.name,
                        basis_seconds=basis,
                        observed_seconds=gpu_seconds,
                        launch_index=launch_index,
                        attempt=max(attempts, 1),
                        budget=budget,
                        detail=(
                            f" (predicted {basis:.3e}s x "
                            f"{self.watchdog.factor:g} + "
                            f"{self.watchdog.slack_s:g}s)"
                        ),
                    )
                    if overrun is not None:
                        deadline_event, burned, kill_fallback = overrun
                        events = events + (deadline_event,)
                        overhead += burned
                        target, fallback = "cpu", kill_fallback
            if plan is not None:
                hedge = core.hedge_resolve(
                    plan,
                    primary_ok=(target == "gpu"),
                    primary_seconds=gpu_seconds,
                    backup_seconds=cpu_seconds,
                    overhead_seconds=overhead,
                )
                if (
                    hedge is not None
                    and hedge.winner == "backup"
                    and target == "gpu"
                ):
                    target, fallback = "cpu", FALLBACK_HEDGE
            if tracer.enabled:
                dspan.set("target", target)
                dspan.set("attempts", attempts)
                if fallback is not None:
                    dspan.set("fallback", fallback)
                if overhead:
                    dspan.set("overhead_s", overhead)
                if lint_decision is not None:
                    dspan.set("lint_action", lint_decision.action)
                if hedge is not None:
                    dspan.set("hedge_winner", hedge.winner)
                for ev in events:
                    dspan.event(
                        "fault",
                        device=ev.device_name,
                        type=ev.error_type,
                        attempt=ev.attempt,
                    )

        executed = (cpu_seconds if target == "cpu" else gpu_seconds)
        executed += overhead
        if hedge is not None:
            executed = hedge.completion_s
        core.hedge_observe(self._accel.name, region_name, env, gpu_seconds)
        if self.sentinel is not None and prediction is not None:
            # post-mortem: both sides are simulated every launch, so both
            # streams learn regardless of where the region actually ran
            core.observe_sentinel_pair(
                core.sentinel_key(region_name, env),
                prediction,
                cpu_seconds,
                gpu_seconds,
            )
        return LaunchRecord(
            region_name=region_name,
            target=target,
            policy_name=self.policy.name,
            prediction=prediction,
            cpu_seconds=cpu_seconds,
            gpu_seconds=gpu_seconds,
            executed_seconds=executed,
            requested_target=requested,
            attempts=attempts,
            fault_events=events,
            fallback=fallback,
            overhead_seconds=overhead,
            lint=lint_decision,
            drift=drift_decision,
            transfers=core.transfer_provenance(bound),
            hedge=hedge,
        )
