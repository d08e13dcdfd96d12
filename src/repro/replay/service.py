"""Multi-tenant offload service with per-device admission batching.

The legacy replay loop (:class:`~.engine.ReplayEngine` without
``service``) models the *selector* as a single-server FIFO: every
launch — host or accelerator — waits behind one queue, so devices never
contend and a CPU launch can block a GPU one.  The
:class:`OffloadService` replaces that placeholder with the shape the
ROADMAP's production north-star needs:

* **one admission lane per device** — requests are routed by the
  (memoized) selection policy's undilated preview: host-bound work joins
  the always-available CPU lane, accelerator-bound work joins the GPU
  lane with its own server pool.  Each lane owns an
  :class:`~.admission.AdmissionQueue` and runs the same bounded
  admission policy (reject / degrade / defer) the legacy queue runs
  globally;
* **admission batching** — within a lane, a scheduling quantum groups a
  contiguous run of same-case admissions into one batch (operands are
  already resident after the first member's H2D, so the batch pays one
  transfer);
* **phase overlap** — each accelerator lane owns an H2D channel, a
  compute server pool, and a D2H channel.  A queued launch's host→device
  transfer proceeds while the previous launch computes, and copy-back
  never holds a compute slot: exactly the async-offload pipelining the
  legacy serial model cannot express.

Everything still happens on the engine's simulated clock, through the
engine's own ``_launch`` path — chaos windows, drift, hedging, budgets
and bulkheads all apply unchanged.  The service only decides *when* each
launch starts and what that implies for queueing accounting.  It is
compared against the legacy FIFO on the same traces by
``benchmarks/bench_service.py`` (:mod:`repro.experiments.service`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .admission import AdmissionQueue
from .outcome import EXPIRED, ReplayOutcome, door

__all__ = [
    "DeviceLane",
    "OffloadService",
    "ServiceConfig",
    "ServiceStats",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the offload service's per-device scheduling.

    ``quantum_s`` rounds each batch's open time up to the next quantum
    boundary, letting near-simultaneous same-case admissions coalesce
    (0 opens every batch at its head's arrival);
    ``servers`` / ``host_servers`` size the accelerator and host compute
    pools; ``max_batch`` bounds how many same-case admissions ride one
    transfer (1 dispatches every admission alone).
    """

    quantum_s: float = 5e-4
    servers: int = 2
    host_servers: int = 2
    max_batch: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.quantum_s) and self.quantum_s >= 0.0):
            raise ValueError("quantum_s must be finite and >= 0")
        if self.servers < 1 or self.host_servers < 1:
            raise ValueError("need at least one server per lane")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


class DeviceLane:
    """One device's admission queue + server pool on the simulated clock.

    ``queue`` holds the lane's admission state: its ``pending``
    admitted-but-undispatched ``(request, label, depth)`` entries in
    FIFO order, the defer buffer, the booked finishes and the counters.
    Queue *depth* counts pending plus dispatched-but-unfinished
    launches.
    """

    def __init__(self, name: str, *, servers: int, channelled: bool, admission):
        self.name = name
        self.queue = AdmissionQueue(admission)
        #: model dedicated H2D/D2H DMA channels (accelerator lanes only)
        self.channelled = channelled
        self.compute_free = [0.0] * servers
        self.h2d_free_s = 0.0
        self.d2h_free_s = 0.0
        self.batches = 0
        self.batched = 0  # members that rode a batch behind its head
        self.transfers_waived = 0

    @property
    def max_depth(self) -> int:
        return self.queue.max_depth

    def snapshot(self) -> dict:
        return {
            **self.queue.snapshot(),
            "batches": self.batches,
            "transfers_waived": self.transfers_waived,
            "servers": len(self.compute_free),
        }


class ServiceStats:
    """Aggregate accounting across lanes, duck-typed as the legacy queue.

    ``score_run`` reads the same attribute names off ``run.queue``
    whether the run used the legacy :class:`~.admission.AdmissionQueue`
    or the service; the per-lane split lives under ``snapshot()``.
    Totals are derived from the lanes, except ``total_wait_s``: a float
    sum depends on its order, and the aggregate is summed in dispatch
    order across lanes.
    """

    def __init__(self, lanes: dict[str, DeviceLane]):
        self._lanes = lanes
        self.total_wait_s = 0.0

    def _sum(self, key: str) -> int:
        return sum(getattr(lane.queue, key) for lane in self._lanes.values())

    admitted = property(lambda self: self._sum("admitted"))
    shed = property(lambda self: self._sum("shed"))
    degraded = property(lambda self: self._sum("degraded"))
    deferred = property(lambda self: self._sum("deferred"))
    resumed = property(lambda self: self._sum("resumed"))

    @property
    def max_depth(self) -> int:
        return max((lane.queue.max_depth for lane in self._lanes.values()), default=0)

    @property
    def max_wait_s(self) -> float:
        return max((lane.queue.max_wait_s for lane in self._lanes.values()), default=0.0)

    @property
    def batches(self) -> int:
        return sum(lane.batches for lane in self._lanes.values())

    @property
    def batched(self) -> int:
        return sum(lane.batched for lane in self._lanes.values())

    @property
    def transfers_waived(self) -> int:
        return sum(lane.transfers_waived for lane in self._lanes.values())

    def snapshot(self) -> dict:
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "degraded": self.degraded,
            "deferred": self.deferred,
            "resumed": self.resumed,
            "max_depth": self.max_depth,
            "max_wait_s": self.max_wait_s,
            "total_wait_s": self.total_wait_s,
            "batches": self.batches,
            "batched": self.batched,
            "transfers_waived": self.transfers_waived,
            "lanes": {name: lane.snapshot() for name, lane in self._lanes.items()},
        }


class OffloadService:
    """Drive one engine's trace through per-device admission lanes."""

    def __init__(self, engine, config: ServiceConfig):
        self.engine = engine
        self.config = config
        self.runtime = engine.runtime
        self.metrics = engine.runtime.metrics
        admission = engine.config.admission
        self.lanes = {
            "cpu": DeviceLane(
                "cpu",
                servers=config.host_servers,
                channelled=False,
                admission=admission,
            ),
            "gpu": DeviceLane(
                "gpu",
                servers=config.servers,
                channelled=True,
                admission=admission,
            ),
        }
        self._lane_list = list(self.lanes.values())
        self.stats = ServiceStats(self.lanes)
        metrics = self.metrics
        self._depth = metrics.family("quantiles", "admission_queue_depth")
        self._lane_depth = metrics.family("quantiles", "service_queue_depth", "device")
        self._requests_total = metrics.family(
            "counter", "replay_requests_total", "decision"
        )
        self._batches_total = metrics.family("counter", "service_batches_total", "device")
        self._occupancy = metrics.family("quantiles", "service_occupancy", "device")
        self._wait = metrics.family("quantiles", "admission_wait_seconds")
        self._route_cache: dict = {}
        self._phase_fractions: dict = {}
        #: (lane, server, comp_start_s, comp_end_s, index, tenant) per
        #: launch — the property tests assert compute never double-books
        self.timeline: list[tuple] = []
        #: (lane, index, tenant, begin_s, clock_s) in dispatch order —
        #: per-tenant FIFO and clock monotonicity are asserted on this
        self.dispatch_log: list[tuple] = []

    # -- event loop ---------------------------------------------------------
    def run(self, requests) -> tuple[list, float]:
        """Replay the trace; returns (outcomes, horizon_s)."""
        outcomes: list = []
        for request in requests:
            # everything whose batch opens at or before this arrival is
            # dispatched first (the legacy loop serves admits immediately)
            while True:
                lane = self._next_lane()
                if lane is None or self._open_time(lane) > request.arrival_s:
                    break
                self._dispatch_batch(lane, outcomes)
            self._process_arrival(request, outcomes)
        self._drain(outcomes)
        outcomes.sort(key=lambda o: o.index)
        busy = max(lane.queue.server_free_at for lane in self._lane_list)
        horizon = max(busy, requests[-1].arrival_s if requests else 0.0)
        return outcomes, horizon

    def _next_lane(self) -> DeviceLane | None:
        """The lane whose head batch opens earliest (declaration order ties)."""
        best = None
        best_open = math.inf
        for lane in self._lane_list:
            if not lane.queue.pending:
                continue
            open_t = self._open_time(lane)
            if open_t < best_open:
                best, best_open = lane, open_t
        return best

    def _open_time(self, lane: DeviceLane) -> float:
        return self._quantize(lane.queue.pending[0][0].arrival_s)

    def _quantize(self, t: float) -> float:
        q = self.config.quantum_s
        if q <= 0.0:
            return t
        # clamp: float division can round the ceiling below t itself
        return max(t, math.ceil(t / q) * q)

    # -- arrivals -----------------------------------------------------------
    def _process_arrival(self, request, outcomes) -> None:
        now = request.arrival_s
        for lane in self._lane_list:
            queue = lane.queue
            for parked in queue.resumable(now):
                queue.pending.append((parked, "resumed", queue.depth(now)))
        lane = self._route(request)
        queue = lane.queue
        depth = queue.depth(now)
        self._depth.labels().observe(float(depth))
        self._lane_depth.labels(lane.name).observe(float(depth))
        decision = queue.decide(now)
        self._requests_total.labels(decision).inc()
        if decision == "admit":
            queue.pending.append((request, "ok", depth))
        elif decision == "degrade":
            engine = self.engine
            engine._advance_to(now)
            record = engine._launch(request, force_target="cpu")
            outcomes.append(
                ReplayOutcome(
                    index=request.index,
                    arrival_s=now,
                    outcome="degraded",
                    start_s=now,
                    record=record,
                    finish_s=now + max(record.executed_seconds, 0.0),
                )
            )
        elif decision == "defer":
            queue.park(request)
        else:  # shed
            outcomes.append(
                ReplayOutcome(index=request.index, arrival_s=now, outcome="shed")
            )

    # -- routing ------------------------------------------------------------
    def _route(self, request) -> DeviceLane:
        """Which lane queues this request (policy preview, cached per case).

        The preview uses the *undilated* memoized times — the same inputs
        the policy sees on a calm run — so routing is a pure function of
        the case.  The launch itself may still land elsewhere (drift
        pinning, bulkhead reroute, hedging); the lane only models where
        the request queued.
        """
        lane = self._route_cache.get(request.case)
        if lane is None:
            rt = self.runtime
            core = rt._core
            ctx = core.case(request.case.region_name, request.case.env_dict())
            target, _ = self.engine.policy.choose(
                core.bound(ctx),
                rt.platform,
                num_threads=rt.num_threads,
                sim_cpu_seconds=core.execution(ctx, 0).seconds,
                sim_gpu_seconds=core.execution(ctx, 1).seconds,
            )
            lane = self.lanes["gpu" if target == "gpu" else "cpu"]
            self._route_cache[request.case] = lane
        return lane

    # -- dispatch -----------------------------------------------------------
    def _dispatch_batch(self, lane: DeviceLane, outcomes) -> None:
        """Pipelined dispatch: shared H2D, pooled compute, serialized D2H."""
        pending = lane.queue.pending
        head = pending[0][0]
        members = [pending.popleft()]
        while (
            len(members) < self.config.max_batch
            and pending
            and pending[0][0].case == head.case
        ):
            members.append(pending.popleft())
        lane.batches += 1
        lane.batched += len(members) - 1
        if len(members) > 1:
            self._batches_total.labels(lane.name).inc()
        open_t = self._quantize(head.arrival_s)
        engine = self.engine
        server = min(
            range(len(lane.compute_free)), key=lane.compute_free.__getitem__
        )
        server_free = lane.compute_free[server]
        busy = sum(1 for t in lane.compute_free if t > open_t)
        self._occupancy.labels(lane.name).observe(busy / len(lane.compute_free))
        shared_ready = None  # H2D completion the batch's later members reuse
        prev_comp_end = None
        for request, label, depth in members:
            if prev_comp_end is not None:
                begin = max(open_t, prev_comp_end)
            elif lane.channelled:
                # service begins when the transfer channel picks it up —
                # the compute server may still be busy (that's the overlap)
                begin = max(open_t, lane.h2d_free_s)
            else:
                begin = max(open_t, server_free)
            wait = begin - request.arrival_s
            budget = door(request, wait, engine.config.budget_s, outcomes, self._wait)
            if budget is EXPIRED:
                continue
            lane.queue.launched(wait, depth)
            self.stats.total_wait_s += wait
            engine._advance_to(begin)
            record = engine._launch(request, budget=budget)
            h2d, comp, d2h = self._phases(request, record)
            base = server_free if prev_comp_end is None else prev_comp_end
            if lane.channelled and record.target == "gpu":
                if shared_ready is None:
                    t0 = max(begin, lane.h2d_free_s)
                    shared_ready = t0 + h2d
                    lane.h2d_free_s = shared_ready
                else:
                    # same case, operands already resident: no transfer
                    lane.transfers_waived += 1
                comp_start = max(shared_ready, base)
                comp_end = comp_start + comp
                d2h_start = max(comp_end, lane.d2h_free_s)
                finish = d2h_start + d2h
                lane.d2h_free_s = finish
            else:
                # rerouted-to-host (or host-lane) work has no channel
                # phases: the whole record occupies the compute slot
                comp_start = max(begin, base)
                comp_end = comp_start + (h2d + comp + d2h)
                finish = comp_end
            prev_comp_end = comp_end
            lane.compute_free[server] = comp_end
            lane.queue.book(finish)
            engine._book(record, finish)
            self.timeline.append(
                (lane.name, server, comp_start, comp_end, request.index, request.tenant)
            )
            self.dispatch_log.append(
                (lane.name, request.index, request.tenant, begin, self.runtime.clock.now)
            )
            outcomes.append(
                ReplayOutcome(
                    index=request.index,
                    arrival_s=request.arrival_s,
                    outcome=label,
                    start_s=begin,
                    record=record,
                    finish_s=finish,
                )
            )

    # -- phases -------------------------------------------------------------
    def _phases(self, request, record) -> tuple[float, float, float]:
        """Split one record's executed seconds into (h2d, compute, d2h).

        GPU launches reuse the memoized undilated execution detail —
        kernel vs transfer split — scaled so the phases sum to the
        record's actual (possibly dilated, retried, hedged) executed
        seconds.  Host launches are all compute.
        """
        executed = max(record.executed_seconds, 0.0)
        if getattr(record, "target", None) != "gpu":
            return 0.0, executed, 0.0
        fractions = self._phase_fractions.get(request.case)
        if fractions is None:
            core = self.runtime._core
            ctx = core.case(request.case.region_name, request.case.env_dict())
            detail = core.execution(ctx, 1).detail
            fractions = (0.0, 1.0, 0.0)
            if isinstance(detail, tuple) and len(detail) == 2:
                kernel, xfer = detail
                h2d = max(getattr(xfer, "seconds_to_device", 0.0), 0.0)
                comp = max(getattr(kernel, "seconds", 0.0), 0.0)
                d2h = max(getattr(xfer, "seconds_to_host", 0.0), 0.0)
                serial = h2d + comp + d2h
                if serial > 0.0 and math.isfinite(serial):
                    fractions = (h2d / serial, comp / serial, d2h / serial)
            self._phase_fractions[request.case] = fractions
        return (
            fractions[0] * executed,
            fractions[1] * executed,
            fractions[2] * executed,
        )

    # -- end of trace -------------------------------------------------------
    def _drain(self, outcomes) -> None:
        """Dispatch the backlog, then re-admit everything still parked.

        Each lane resumes its parked requests one at a time, in park
        order, each dispatched before the next re-enters.
        """
        while (lane := self._next_lane()) is not None:
            self._dispatch_batch(lane, outcomes)
        for lane in self._lane_list:
            queue = lane.queue
            for parked in queue.resumable(math.inf):
                queue.pending.append((parked, "resumed", queue.depth(math.inf)))
                self._dispatch_batch(lane, outcomes)
