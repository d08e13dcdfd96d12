"""Multi-tenant offload service with per-device admission batching.

The legacy replay loop models the *selector* as a single-server FIFO:
every launch — host or accelerator — waits behind one queue, so devices
never contend and a CPU launch can block a GPU one.  The
:class:`OffloadService` replaces that placeholder with the shape the
ROADMAP's production north-star needs:

* **one admission lane per device** — requests are routed by the
  (memoized) selection policy's undilated preview: host-bound work joins
  the always-available CPU lane, accelerator-bound work joins the GPU
  lane with its own server pool.  Each lane runs the same bounded
  admission policy (reject / degrade / defer) the legacy queue ran
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
launch starts and what that implies for queueing accounting.

Compatibility is a hard contract, pinned by ``tests/test_service.py``:
``ServiceConfig.legacy_equivalent()`` (no batching, no overlap, one
serial lane) reproduces the legacy engine **byte-identically** — same
outcomes, records, metrics-relevant depths, waits, door-sheds and
horizon, including the legacy quirk that the end-of-trace park drain
resets the FIFO's free time.  The only addition is
``ReplayOutcome.finish_s``, which the legacy path leaves ``None``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ..runtime import Budget

__all__ = [
    "DeviceLane",
    "OffloadService",
    "ServiceConfig",
    "ServiceStats",
]

#: sentinel returned by the door check when a request's whole budget
#: would burn in the queue (the launch never happens)
_EXPIRED = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the offload service's per-device scheduling.

    ``quantum_s`` rounds each batch's open time up to the next quantum
    boundary, letting near-simultaneous same-case admissions coalesce;
    ``servers`` / ``host_servers`` size the accelerator and host compute
    pools; ``max_batch`` bounds how many same-case admissions ride one
    transfer.  ``batching=False`` dispatches every admission alone at
    its arrival; ``overlap=False`` collapses all devices back into one
    serial dispatcher lane (the legacy model, where the *dispatcher* is
    the server rather than the devices).
    """

    quantum_s: float = 5e-4
    servers: int = 2
    host_servers: int = 2
    max_batch: int = 8
    batching: bool = True
    overlap: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.quantum_s) and self.quantum_s >= 0.0):
            raise ValueError("quantum_s must be finite and >= 0")
        if self.servers < 1 or self.host_servers < 1:
            raise ValueError("need at least one server per lane")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")

    @classmethod
    def legacy_equivalent(cls) -> ServiceConfig:
        """The configuration that reproduces the legacy FIFO bit-for-bit."""
        return cls(
            quantum_s=0.0,
            servers=1,
            host_servers=1,
            max_batch=1,
            batching=False,
            overlap=False,
        )


class DeviceLane:
    """One device's admission queue + server pool on the simulated clock.

    ``pending`` holds admitted-but-undispatched ``(request, label)``
    pairs in FIFO order; ``parked`` is the defer buffer.  Queue *depth*
    counts pending plus dispatched-but-unfinished launches — the same
    accounting the legacy :class:`~.admission.AdmissionQueue` kept, so
    bounded admission behaves identically in the serial configuration.
    Finish times of a multi-server lane complete out of order, so the
    drain sweeps all elapsed entries rather than a sorted prefix.
    """

    def __init__(self, name: str, *, servers: int, channelled: bool, admission):
        self.name = name
        self.admission = admission
        #: model dedicated H2D/D2H DMA channels (accelerator lanes only)
        self.channelled = channelled
        self.pending: deque = deque()
        self.parked: deque = deque()
        self._finish_times: deque[float] = deque()
        self.compute_free = [0.0] * servers
        self.h2d_free_s = 0.0
        self.d2h_free_s = 0.0
        self.peak_finish = 0.0
        # -- accounting (AdmissionQueue-shaped) ------------------------
        self.admitted = 0
        self.shed = 0
        self.degraded = 0
        self.deferred = 0
        self.resumed = 0
        self.max_depth = 0
        self.total_wait_s = 0.0
        self.max_wait_s = 0.0
        self.batches = 0
        self.transfers_waived = 0

    def depth(self, now: float) -> int:
        """Launches waiting or in service at ``now`` (drains finished)."""
        ft = self._finish_times
        while ft and ft[0] <= now:
            ft.popleft()
        if ft and any(t <= now for t in ft):
            live = [t for t in ft if t > now]
            ft.clear()
            ft.extend(live)
        return len(self.pending) + len(ft)

    @property
    def server_free_at(self) -> float:
        """Last booked finish (serial-lane FIFO accounting)."""
        return self._finish_times[-1] if self._finish_times else 0.0

    def book(self, finish_s: float) -> None:
        self._finish_times.append(finish_s)
        self.peak_finish = max(self.peak_finish, finish_s)

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
            "transfers_waived": self.transfers_waived,
            "servers": len(self.compute_free),
        }


class ServiceStats:
    """Aggregate accounting across lanes, duck-typed as the legacy queue.

    ``score_run`` reads the same attribute names off ``run.queue``
    whether the run used the legacy :class:`~.admission.AdmissionQueue`
    or the service; the per-lane split lives under ``snapshot()``.
    """

    def __init__(self, lanes: dict[str, DeviceLane]):
        self._lanes = lanes
        self.admitted = 0
        self.shed = 0
        self.degraded = 0
        self.deferred = 0
        self.resumed = 0
        self.max_depth = 0
        self.total_wait_s = 0.0
        self.max_wait_s = 0.0
        self.batches = 0
        self.batched = 0  # members that rode a batch behind its head
        self.transfers_waived = 0

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
        if config.overlap:
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
        else:
            self.lanes = {
                "dispatcher": DeviceLane(
                    "dispatcher", servers=1, channelled=False, admission=admission
                )
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
        from .engine import ReplayOutcome  # deferred: engine imports this module

        outcomes: list = []
        for request in requests:
            # everything whose batch opens at or before this arrival is
            # dispatched first (the legacy loop serves admits immediately)
            while True:
                lane = self._next_lane()
                if lane is None or self._open_time(lane) > request.arrival_s:
                    break
                self._dispatch_batch(lane, outcomes, ReplayOutcome)
            self._process_arrival(request, outcomes, ReplayOutcome)
        self._drain(outcomes, ReplayOutcome)
        outcomes.sort(key=lambda o: o.index)
        if self.config.overlap:
            busy = max((lane.peak_finish for lane in self._lane_list), default=0.0)
        else:
            # the serial lane mirrors the legacy horizon exactly,
            # including the post-drain reset quirk
            busy = max((lane.server_free_at for lane in self._lane_list), default=0.0)
        horizon = max(busy, requests[-1].arrival_s if requests else 0.0)
        return outcomes, horizon

    def _next_lane(self) -> DeviceLane | None:
        """The lane whose head batch opens earliest (declaration order ties)."""
        best = None
        best_open = math.inf
        for lane in self._lane_list:
            if not lane.pending:
                continue
            open_t = self._open_time(lane)
            if open_t < best_open:
                best, best_open = lane, open_t
        return best

    def _open_time(self, lane: DeviceLane) -> float:
        return self._quantize(lane.pending[0][0].arrival_s)

    def _quantize(self, t: float) -> float:
        q = self.config.quantum_s
        if not self.config.batching or q <= 0.0:
            return t
        # clamp: float division can round the ceiling below t itself
        return max(t, math.ceil(t / q) * q)

    # -- arrivals -----------------------------------------------------------
    def _process_arrival(self, request, outcomes, ReplayOutcome) -> None:
        now = request.arrival_s
        for lane in self._lane_list:
            self._resume_ready(lane, now)
        lane = self._route(request)
        depth = lane.depth(now)
        self._depth.labels().observe(float(depth))
        self._lane_depth.labels(lane.name).observe(float(depth))
        decision = self._decide(lane, depth)
        self._requests_total.labels(decision).inc()
        if decision == "admit":
            lane.pending.append((request, "ok", depth))
        elif decision == "degrade":
            engine = self.engine
            engine._advance_to(now)
            record = engine._launch(request, force_target="cpu")
            lane.degraded += 1
            self.stats.degraded += 1
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
            lane.parked.append(request)
            lane.deferred += 1
            self.stats.deferred += 1
        else:  # shed
            lane.shed += 1
            self.stats.shed += 1
            outcomes.append(
                ReplayOutcome(index=request.index, arrival_s=now, outcome="shed")
            )

    def _decide(self, lane: DeviceLane, depth: int) -> str:
        cfg = lane.admission
        if not cfg.bounded or depth < cfg.capacity:
            return "admit"
        if cfg.policy == "degrade":
            return "degrade"
        if cfg.policy == "defer" and len(lane.parked) < cfg.defer_capacity:
            return "defer"
        return "shed"

    def _resume_ready(self, lane: DeviceLane, now: float) -> None:
        resume_at = lane.admission.effective_resume_depth
        while lane.parked:
            depth = lane.depth(now)
            if depth >= resume_at:
                break
            lane.pending.append((lane.parked.popleft(), "resumed", depth))
            lane.resumed += 1
            self.stats.resumed += 1

    def _touch_depth(self, lane: DeviceLane, depth_before: int) -> None:
        # the newcomer itself counts, and the touch happens only when the
        # request actually launches: identical to the legacy queue's
        # max(len(finish_times)) taken at each finish(), which door-shed
        # ("expired") requests never reach
        d = depth_before + 1
        lane.max_depth = max(lane.max_depth, d)
        self.stats.max_depth = max(self.stats.max_depth, d)

    # -- routing ------------------------------------------------------------
    def _route(self, request) -> DeviceLane:
        """Which lane queues this request (policy preview, cached per case).

        The preview uses the *undilated* memoized times — the same inputs
        the policy sees on a calm run — so routing is a pure function of
        the case.  The launch itself may still land elsewhere (drift
        pinning, bulkhead reroute, hedging); the lane only models where
        the request queued.
        """
        if not self.config.overlap:
            return self._lane_list[0]
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
    def _dispatch_batch(self, lane: DeviceLane, outcomes, ReplayOutcome) -> None:
        head = lane.pending[0][0]
        members = [lane.pending.popleft()]
        if self.config.batching and self.config.max_batch > 1:
            while (
                len(members) < self.config.max_batch
                and lane.pending
                and lane.pending[0][0].case == head.case
            ):
                members.append(lane.pending.popleft())
        lane.batches += 1
        self.stats.batches += 1
        self.stats.batched += len(members) - 1
        if len(members) > 1:
            self._batches_total.labels(lane.name).inc()
        open_t = self._quantize(head.arrival_s)
        if self.config.overlap:
            self._dispatch_overlap(lane, open_t, members, outcomes, ReplayOutcome)
        else:
            self._dispatch_serial(lane, members, outcomes, ReplayOutcome)

    def _dispatch_serial(self, lane, members, outcomes, ReplayOutcome) -> None:
        """Legacy-model dispatch: one serial server, whole-record service."""
        engine = self.engine
        for request, label, depth in members:
            start = max(request.arrival_s, lane.server_free_at)
            wait = start - request.arrival_s
            budget = self._door(request, wait, outcomes, ReplayOutcome)
            if budget is _EXPIRED:
                continue
            self._touch_depth(lane, depth)
            engine._advance_to(start)
            record = engine._launch(request, budget=budget)
            finish = start + max(record.executed_seconds, 0.0)
            lane.compute_free[0] = finish
            self._complete(
                lane,
                request,
                label,
                begin=start,
                finish=finish,
                comp_start=start,
                comp_end=finish,
                server=0,
                record=record,
                outcomes=outcomes,
                ReplayOutcome=ReplayOutcome,
            )

    def _dispatch_overlap(
        self, lane, open_t, members, outcomes, ReplayOutcome
    ) -> None:
        """Pipelined dispatch: shared H2D, pooled compute, serialized D2H."""
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
            budget = self._door(request, wait, outcomes, ReplayOutcome)
            if budget is _EXPIRED:
                continue
            self._touch_depth(lane, depth)
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
                    self.stats.transfers_waived += 1
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
            self._complete(
                lane,
                request,
                label,
                begin=begin,
                finish=finish,
                comp_start=comp_start,
                comp_end=comp_end,
                server=server,
                record=record,
                outcomes=outcomes,
                ReplayOutcome=ReplayOutcome,
            )

    def _door(self, request, wait: float, outcomes, ReplayOutcome):
        """Budget door-shed; returns the Budget (or None), or ``_EXPIRED``."""
        budget_s = self.engine.config.budget_s
        budget = None
        if budget_s is not None:
            budget = Budget(budget_s)
            if wait >= budget.total_s:
                outcomes.append(
                    ReplayOutcome(
                        index=request.index,
                        arrival_s=request.arrival_s,
                        outcome="expired",
                    )
                )
                return _EXPIRED
        self._wait.labels().observe(wait)
        if budget is not None:
            budget.charge(wait)
        return budget

    def _complete(
        self,
        lane,
        request,
        label,
        *,
        begin,
        finish,
        comp_start,
        comp_end,
        server,
        record,
        outcomes,
        ReplayOutcome,
    ) -> None:
        wait = begin - request.arrival_s
        lane.admitted += 1
        self.stats.admitted += 1
        lane.total_wait_s += wait
        self.stats.total_wait_s += wait
        lane.max_wait_s = max(lane.max_wait_s, wait)
        self.stats.max_wait_s = max(self.stats.max_wait_s, wait)
        lane.book(finish)
        self.engine._book(record, finish)
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
    def _drain(self, outcomes, ReplayOutcome) -> None:
        """Dispatch the backlog, then re-admit everything still parked.

        Mirrors the legacy drain exactly: each parked request is resumed
        against an infinitely-drained queue (the legacy quirk that resets
        the FIFO's free time), one at a time, in park order, lane by
        lane.
        """
        while True:
            lane = self._next_lane()
            if lane is None:
                break
            self._dispatch_batch(lane, outcomes, ReplayOutcome)
        for lane in self._lane_list:
            resume_at = lane.admission.effective_resume_depth
            while lane.parked:
                depth = lane.depth(math.inf)
                if depth >= resume_at:
                    break
                lane.pending.append((lane.parked.popleft(), "resumed", depth))
                lane.resumed += 1
                self.stats.resumed += 1
                while lane.pending:
                    self._dispatch_batch(lane, outcomes, ReplayOutcome)
