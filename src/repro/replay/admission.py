"""Bounded admission control for the replay engine's dispatch loop.

The engine models the selector as a **single-server FIFO** on the
simulated clock: launches are serviced in arrival order, each occupying
the server for its ``executed_seconds``.  The admission queue in front
of it is *bounded* — when an arrival finds ``capacity`` launches already
waiting or in service, the configured overload policy decides its fate:

* ``reject``  — the request is shed outright (the caller sees an error;
  the cheapest failure mode, and an honest one);
* ``degrade`` — the request runs **immediately on the host** via the
  runtimes' ``force_target="cpu"`` hook, skipping model evaluation and
  accelerator dispatch entirely: the host path is the overflow lane, so
  shedding load costs none of the machinery the queue is protecting;
* ``defer``   — the request parks in a second bounded buffer and is
  re-admitted (ahead of newer arrivals) once the queue drains below
  ``resume_depth``; a full park buffer sheds.

Everything is deterministic: depth is a pure function of the arrival
times and the simulated service times, so the same trace through the
same policy yields byte-identical accounting.  An **unbounded** queue
(``capacity=None``) admits everything and never consults the policy —
that configuration is the differential-test arm proving the queue is
pure bookkeeping on the happy path.

The same class is the admission state of each offload-service lane
(:class:`~.service.DeviceLane`): there admitted requests wait in
``pending`` for their batch and finishes book out of order across the
lane's servers, so depth counts both and drains every elapsed finish.
``server_free_at`` is the running maximum of booked finishes, so the
end-of-trace drain, which empties the finish times, still resumes
parked requests behind the last launch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionConfig",
    "AdmissionQueue",
]

ADMISSION_POLICIES = ("reject", "degrade", "defer")


@dataclass(frozen=True)
class AdmissionConfig:
    """Queue bound + overload policy.

    ``capacity`` counts waiting *and* in-service launches; ``None``
    disables admission control entirely (infinite queue, nothing shed).
    ``resume_depth`` (defer only) is the depth the queue must drain to
    before parked requests re-enter; ``defer_capacity`` bounds the park
    buffer.
    """

    capacity: int | None = None
    policy: str = "reject"
    defer_capacity: int = 64
    resume_depth: int | None = None  # default: capacity // 2

    def __post_init__(self):
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"policy must be one of {ADMISSION_POLICIES}, got {self.policy!r}"
            )
        if self.defer_capacity < 1:
            raise ValueError("defer_capacity must be >= 1")
        if self.resume_depth is not None and self.resume_depth < 0:
            raise ValueError("resume_depth must be >= 0")

    @property
    def bounded(self) -> bool:
        return self.capacity is not None

    @property
    def effective_resume_depth(self) -> int:
        if self.resume_depth is not None:
            return self.resume_depth
        return max((self.capacity or 2) // 2, 1)


class AdmissionQueue:
    """Deterministic FIFO admission bookkeeping on the simulated clock.

    The engine drives it with three calls per request: ``resumable`` /
    ``decide`` on arrival, then ``start``/``finish`` around each launch
    it actually runs.  The offload service gives each of its device
    lanes one queue and drives the lower-level ``launched`` / ``book``
    itself, because its lanes compute start times from their own server
    pools.  The queue never touches the runtime — it only watches the
    clock arithmetic — so attaching it cannot perturb a single record.
    """

    def __init__(self, config: AdmissionConfig):
        self.config = config
        #: admitted ``(request, label, depth)`` entries not yet launched,
        #: in FIFO order.  The engine launches each admit at once, so its
        #: queue never holds any; a service lane holds them until their
        #: batch opens.
        self.pending: deque = deque()
        # min-heap: a multi-server lane books finishes out of order
        self._finish_times: list[float] = []
        self._parked: deque = deque()
        #: latest booked finish — a running maximum, so draining the
        #: finish times (``depth(inf)`` at the end of the trace) never
        #: hands a parked request a server that is still busy
        self.server_free_at = 0.0
        # -- accounting ------------------------------------------------
        self.admitted = 0
        self.shed = 0
        self.degraded = 0
        self.deferred = 0
        self.resumed = 0
        self.max_depth = 0
        self.total_wait_s = 0.0
        self.max_wait_s = 0.0

    # -- depth -------------------------------------------------------------
    def depth(self, now: float) -> int:
        """Launches waiting or in service at ``now`` (drains finished)."""
        ft = self._finish_times
        while ft and ft[0] <= now:
            heappop(ft)
        return len(self.pending) + len(ft)

    # -- arrival -----------------------------------------------------------
    def resumable(self, now: float):
        """Parked requests ready to re-enter before this arrival."""
        resume_at = self.config.effective_resume_depth
        while self._parked and self.depth(now) < resume_at:
            self.resumed += 1
            yield self._parked.popleft()

    def decide(self, now: float) -> str:
        """``admit`` | ``degrade`` | ``shed`` | ``defer`` for one arrival."""
        cfg = self.config
        depth = self.depth(now)
        if not cfg.bounded or depth < cfg.capacity:
            return "admit"
        if cfg.policy == "degrade":
            self.degraded += 1
            return "degrade"
        if cfg.policy == "defer" and len(self._parked) < cfg.defer_capacity:
            self.deferred += 1
            return "defer"
        self.shed += 1
        return "shed"

    def park(self, request) -> None:
        self._parked.append(request)

    # -- service -----------------------------------------------------------
    def start(self, arrival_s: float) -> float:
        """Admit one launch; return its (FIFO) service start time."""
        start = max(arrival_s, self.server_free_at)
        self.launched(start - arrival_s, self.depth(arrival_s))
        return start

    def launched(self, wait_s: float, depth: int) -> None:
        """Count one launch that waited ``wait_s`` behind ``depth`` others."""
        self.admitted += 1
        self.total_wait_s += wait_s
        self.max_wait_s = max(self.max_wait_s, wait_s)
        # the newcomer itself counts; door-shed requests never get here
        self.max_depth = max(self.max_depth, depth + 1)

    def finish(self, start_s: float, service_s: float) -> float:
        """Record one launch's service; return its finish time."""
        finish = start_s + max(service_s, 0.0)
        self.book(finish)
        return finish

    def book(self, finish_s: float) -> None:
        """Occupy the queue until ``finish_s``."""
        heappush(self._finish_times, finish_s)
        self.server_free_at = max(self.server_free_at, finish_s)

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    def snapshot(self) -> dict:
        """Deterministic accounting dump for reports and gates."""
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "degraded": self.degraded,
            "deferred": self.deferred,
            "resumed": self.resumed,
            "max_depth": self.max_depth,
            "max_wait_s": self.max_wait_s,
            "total_wait_s": self.total_wait_s,
        }
