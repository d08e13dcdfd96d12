"""The traffic replay engine: trace in, scored run out.

``ReplayEngine`` marries the pieces: a generated request trace
(:mod:`.workload`), a chaos schedule compiled onto the runtime's
simulated clock (:mod:`.chaos`), a bounded admission queue
(:mod:`.admission`), and one of the offloading runtimes.  Per request it

1. re-admits any parked (deferred) requests the queue has drained
   enough to take back,
2. asks the admission queue for a verdict — ``admit`` launches through
   the full predict→dispatch path at the FIFO service start time,
   ``degrade`` runs the host-only ``force_target="cpu"`` path at the
   arrival time, ``shed`` drops the request, ``defer`` parks it —
3. advances the runtime's clock to the launch start (chaos windows and
   drift-transition timestamps live on this clock), launches, and books
   the service time back into the queue.

With ``ReplayConfig.service`` the trace runs through the
:class:`~.service.OffloadService` instead: per-device lanes, each with
its own :class:`~.admission.AdmissionQueue`, sharing the engine's
launch path and the budget door of :mod:`.outcome`.

Two throughput levers make 10⁵-launch traces practical without touching
a single recorded value: an :class:`~repro.runtime.ExecutionMemo` caches
the deterministic per-(region, env) simulated times / bindings /
footprints inside the runtime, and :class:`MemoizedPolicy` caches the
policy's (target, prediction) per cached binding.  Both return the
*identical* objects a cold call would compute, so a memoized replay is
bit-identical to an unmemoized one — the differential tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import ProgramAttributeDatabase
from ..drift import DriftSentinel, Watchdog
from ..machines import Platform
from ..obs import MetricsRegistry
from ..runtime import (
    Bulkhead,
    ExecutionMemo,
    HedgePolicy,
    ModelGuided,
    MultiDeviceRuntime,
    OffloadingRuntime,
)
from .admission import AdmissionConfig, AdmissionQueue
from .chaos import ChaosSchedule
from .outcome import EXPIRED, ReplayOutcome, door
from .service import OffloadService, ServiceConfig
from .workload import LaunchRequest, WorkloadConfig, build_catalog, generate_requests

__all__ = [
    "MemoizedPolicy",
    "ReplayConfig",
    "ReplayOutcome",
    "ReplayRun",
    "ReplayEngine",
]


class MemoizedPolicy:
    """Cache a deterministic policy's decisions per (binding, sim times).

    The wrapped policy's ``choose`` is a pure function of the bound
    attributes, the platform, the team size and the simulated seconds it
    is offered, so its result can be replayed from a dict.  Keys use the
    *identity* of the bound-attributes object — the
    :class:`~repro.runtime.ExecutionMemo` hands the runtime the same
    object per (region, env), and the cache holds a strong reference to
    it, so an id can never be recycled under us.  Cache hits return the
    identical (target, prediction) objects, keeping records bit-identical
    to an unmemoized run.
    """

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else ModelGuided()
        self.name = self.inner.name
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0

    def choose(self, bound, platform, *, num_threads, sim_cpu_seconds, sim_gpu_seconds):
        key = (
            id(bound),
            platform.name,
            num_threads,
            sim_cpu_seconds,
            sim_gpu_seconds,
        )
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit[1]
        result = self.inner.choose(
            bound,
            platform,
            num_threads=num_threads,
            sim_cpu_seconds=sim_cpu_seconds,
            sim_gpu_seconds=sim_gpu_seconds,
        )
        # the bound reference pins the id for the cache's lifetime
        self._cache[key] = (bound, result)
        self.misses += 1
        return result


@dataclass(frozen=True)
class ReplayConfig:
    """One replay scenario, fully specified."""

    platform: Platform
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    chaos: ChaosSchedule = field(default_factory=ChaosSchedule)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    num_threads: int | None = None
    multi_device: bool = False
    #: simulated-time half-life of the accelerator health penalty; decay
    #: is what lets a post-storm runtime forgive the card instead of
    #:  pinning borderline kernels to the host forever
    health_decay_halflife_s: float | None = 5.0
    #: per-request end-to-end deadline budget (simulated seconds); queue
    #: wait, retry backoff and watchdog burn are charged against it.  A
    #: request whose budget drains while queueing runs the host-only
    #: degraded path instead ("expired").  None = off (bit-identical).
    budget_s: float | None = None
    #: arm speculative host backups (a HedgePolicy on the runtime) with
    #: classic tail-at-scale arming: every sketch-ready launch hedges,
    #: but only primaries that outlive the p95 delay ever pay
    hedge: bool = False
    hedge_min_samples: int = 8
    #: bounded scheduled-work slots per device (a Bulkhead on the
    #: runtime); saturated devices reroute pre-dispatch.  None = off.
    bulkhead_slots: int | None = None
    #: drive the trace through the multi-tenant :class:`OffloadService`
    #: (per-device admission lanes, batching, phase overlap) instead of
    #: the legacy single-server FIFO.  Off by default — the differential
    #: suite pins that the default stays byte-identical.
    service: bool = False
    service_config: ServiceConfig = field(default_factory=ServiceConfig)


@dataclass
class ReplayRun:
    """Everything one engine run produced (input to the scorer)."""

    config: ReplayConfig
    requests: list[LaunchRequest]
    outcomes: list[ReplayOutcome]
    queue: object  # AdmissionQueue (legacy) | ServiceStats (service mode)
    metrics: MetricsRegistry
    runtime: object  # OffloadingRuntime | MultiDeviceRuntime
    horizon_s: float  # last service finish (or last arrival if none)
    service: OffloadService | None = None  # the lanes, when service mode ran

    @property
    def records(self) -> list:
        return [o.record for o in self.outcomes if o.record is not None]

    @property
    def sentinel(self) -> DriftSentinel | None:
        return self.runtime.sentinel

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.outcome] = counts.get(o.outcome, 0) + 1
        return dict(sorted(counts.items()))


class ReplayEngine:
    """Drive one runtime through one trace under one chaos schedule."""

    def __init__(
        self,
        config: ReplayConfig,
        *,
        policy=None,
        memo: ExecutionMemo | None = None,
        db: ProgramAttributeDatabase | None = None,
    ):
        self.config = config
        self.memo = memo if memo is not None else ExecutionMemo()
        self.policy = policy if policy is not None else MemoizedPolicy()
        self._db = db
        self.runtime = self._build_runtime()

    def _build_runtime(self):
        cfg = self.config
        common = dict(
            platform=cfg.platform,
            num_threads=cfg.num_threads,
            sentinel=DriftSentinel(),
            watchdog=Watchdog(factor=8.0),
            metrics=MetricsRegistry(),
            memo=self.memo,
            health_decay_halflife_s=cfg.health_decay_halflife_s,
            # mixed dataset sizes per region: one drift stream per
            # (region, env) so size changes never read as residual shifts
            sentinel_stream_by_env=True,
        )
        if self._db is not None:
            common["db"] = self._db
        if cfg.multi_device:
            runtime = MultiDeviceRuntime(**common)
        else:
            runtime = OffloadingRuntime(policy=self.policy, **common)
        # chaos compiles onto the runtime's own clock
        runtime.injector = cfg.chaos.build_injector(runtime.clock)
        runtime.time_dilation = cfg.chaos.build_dilation(runtime.clock)
        if cfg.bulkhead_slots is not None:
            runtime.bulkheads = Bulkhead(cfg.bulkhead_slots)
        if cfg.hedge:
            runtime.hedge = HedgePolicy(
                min_samples=cfg.hedge_min_samples, on_slow=True
            )
        return runtime

    # -- driving ------------------------------------------------------------
    def _advance_to(self, t: float) -> None:
        clock = self.runtime.clock
        if t > clock.now:
            clock.advance(t - clock.now)

    def _launch(self, request: LaunchRequest, *, force_target=None, budget=None):
        return self.runtime.launch(
            request.case.region_name,
            request.case.env_dict(),
            force_target=force_target,
            budget=budget,
            tenant=request.tenant,
        )

    @staticmethod
    def _device_key(record) -> str:
        """The bulkhead booking key: target kind (single) or device name."""
        target = getattr(record, "target", None)
        if target is not None:
            return target
        return record.executed_device or record.chosen

    def _book(self, record, finish_s: float) -> None:
        bulkheads = self.runtime.bulkheads
        if bulkheads is not None:
            bulkheads.book(self._device_key(record), finish_s)

    def _serve(
        self,
        queue: AdmissionQueue,
        request: LaunchRequest,
        outcomes: list[ReplayOutcome],
        label: str,
        wait_sketch,
    ) -> None:
        # the FIFO start is max(arrival, server_free_at): the wait is
        # known before the server is committed
        wait = max(queue.server_free_at - request.arrival_s, 0.0)
        budget = door(request, wait, self.config.budget_s, outcomes, wait_sketch)
        if budget is EXPIRED:
            return
        start = queue.start(request.arrival_s)
        self._advance_to(start)
        record = self._launch(request, budget=budget)
        finish = queue.finish(start, record.executed_seconds)
        self._book(record, finish)
        outcomes.append(
            ReplayOutcome(
                index=request.index,
                arrival_s=request.arrival_s,
                outcome=label,
                start_s=start,
                record=record,
            )
        )

    def run(self, requests: list[LaunchRequest] | None = None) -> ReplayRun:
        """Replay ``requests`` (default: the configured workload's trace).

        The catalog IR is only built when the trace must be generated or
        a region it launches is missing from the database; a warm
        database replaying a given trace skips it.
        """
        cfg = self.config
        db = self.runtime.db
        if requests is None or any(
            r.case.region_name not in db for r in requests
        ):
            cases, regions = build_catalog(cfg.workload.sizes)
            for region in regions.values():
                if region.name not in db:
                    self.runtime.compile_region(region)
            if requests is None:
                requests = generate_requests(cfg.workload, cases)
        if cfg.service:
            return self._run_service(requests)
        return self._run_legacy(requests)

    def _run_service(self, requests: list[LaunchRequest]) -> ReplayRun:
        cfg = self.config
        if cfg.multi_device:
            raise ValueError("service mode drives the single-accelerator runtime only")
        service = OffloadService(self, cfg.service_config)
        outcomes, horizon = service.run(requests)
        metrics = self.runtime.metrics
        self._advance_to(horizon)
        metrics.gauge("replay_queue_max_depth").set(service.stats.max_depth)
        metrics.gauge("replay_horizon_seconds").set(horizon)
        for name, lane in service.lanes.items():
            metrics.gauge("service_lane_max_depth", device=name).set(lane.max_depth)
        return ReplayRun(
            config=cfg,
            requests=requests,
            outcomes=outcomes,
            queue=service.stats,
            metrics=metrics,
            runtime=self.runtime,
            horizon_s=horizon,
            service=service,
        )

    def _run_legacy(self, requests: list[LaunchRequest]) -> ReplayRun:
        cfg = self.config
        queue = AdmissionQueue(cfg.admission)
        outcomes: list[ReplayOutcome] = []
        metrics = self.runtime.metrics
        depth_sketch = metrics.family("quantiles", "admission_queue_depth")
        requests_total = metrics.family("counter", "replay_requests_total", "decision")
        wait_sketch = metrics.family("quantiles", "admission_wait_seconds")

        for request in requests:
            for parked in queue.resumable(request.arrival_s):
                self._serve(queue, parked, outcomes, "resumed", wait_sketch)
            depth_sketch.labels().observe(float(queue.depth(request.arrival_s)))
            decision = queue.decide(request.arrival_s)
            requests_total.labels(decision).inc()
            if decision == "admit":
                self._serve(queue, request, outcomes, "ok", wait_sketch)
            elif decision == "degrade":
                self._advance_to(request.arrival_s)
                record = self._launch(request, force_target="cpu")
                outcomes.append(
                    ReplayOutcome(
                        index=request.index,
                        arrival_s=request.arrival_s,
                        outcome="degraded",
                        start_s=request.arrival_s,
                        record=record,
                    )
                )
            elif decision == "defer":
                queue.park(request)
            else:  # shed
                outcomes.append(
                    ReplayOutcome(
                        index=request.index,
                        arrival_s=request.arrival_s,
                        outcome="shed",
                    )
                )

        # the trace is over; drain whatever is still parked
        for parked in queue.resumable(float("inf")):
            self._serve(queue, parked, outcomes, "resumed", wait_sketch)

        outcomes.sort(key=lambda o: o.index)
        horizon = max(
            queue.server_free_at,
            requests[-1].arrival_s if requests else 0.0,
        )
        self._advance_to(horizon)
        metrics.gauge("replay_queue_max_depth").set(queue.max_depth)
        metrics.gauge("replay_horizon_seconds").set(horizon)
        return ReplayRun(
            config=cfg,
            requests=requests,
            outcomes=outcomes,
            queue=queue,
            metrics=metrics,
            runtime=self.runtime,
            horizon_s=horizon,
        )
