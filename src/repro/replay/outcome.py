"""Per-request replay outcomes and the deadline-budget door.

Both drivers of a trace — the engine's single-server FIFO and the
offload service's per-device lanes — record one :class:`ReplayOutcome`
per request and run the same :func:`door` check before each launch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime import Budget

__all__ = ["EXPIRED", "ReplayOutcome", "door"]


@dataclass(frozen=True)
class ReplayOutcome:
    """What happened to one request of the trace."""

    index: int
    arrival_s: float
    outcome: str  # "ok" | "resumed" | "degraded" | "shed" | "expired"
    start_s: float | None = None  # service start (None when never launched)
    record: object | None = None  # LaunchRecord / MultiLaunchRecord / None
    #: pipeline completion (D2H done) — only the offload service models
    #: phase overlap, so the legacy path leaves it None and the scorer
    #: falls back to start + executed_seconds
    finish_s: float | None = None

    @property
    def launched(self) -> bool:
        return self.record is not None


#: what :func:`door` returns for a request that never launches
EXPIRED = object()


def door(request, wait_s: float, budget_s: float | None, outcomes: list, wait_sketch):
    """Budget check for one launch about to start after ``wait_s`` queued.

    The start time is known before the server is committed, so a request
    whose whole budget would burn in the queue sheds at the door: its
    "expired" outcome is recorded and :data:`EXPIRED` returned, instead
    of occupying a server with work its client already gave up on —
    which is also what keeps a backlogged stretch from cascading.
    Otherwise the wait is observed and charged, and the launch's
    :class:`~repro.runtime.Budget` (None when budgets are off) returned.
    """
    budget = None
    if budget_s is not None:
        budget = Budget(budget_s)
        if wait_s >= budget.total_s:
            outcomes.append(
                ReplayOutcome(
                    index=request.index,
                    arrival_s=request.arrival_s,
                    outcome="expired",
                )
            )
            return EXPIRED
    wait_sketch.labels().observe(wait_s)
    if budget is not None:
        budget.charge(wait_s)
    return budget
