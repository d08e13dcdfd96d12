"""Hedged-dispatch experiment grid: deadline budgets x chaos flavour.

Not a paper artefact — the companion experiment to the ``hedged-chaos``
replay scenario (docs/ROBUSTNESS.md).  One seeded trace is calibrated
exactly as in :mod:`.replay`, then every (chaos flavour, budget) cell is
replayed **twice** — once with speculative host backups armed, once
without — over the identical request stream, policy memo, and chaos
schedule.  The only delta inside a cell is the
:class:`~repro.runtime.HedgePolicy`, so the chaos-tail comparison is
causal:

* **flavours** — ``fault-storm`` (75% retryable accelerator faults) and
  ``brownout`` (every accelerator attempt fails; the breaker opens):
  the two fault shapes where a backup can actually beat a primary that
  is burning retry backoff;
* **budgets**  — ``none`` (no deadline), ``tight`` and ``loose``
  end-to-end :class:`~repro.runtime.Budget` s, expressed in mean
  service times (:data:`BUDGET_FACTORS`).  Budgets charge queue wait,
  retry backoff, and watchdog burn; a request whose projected wait
  alone would drain its budget is shed at the door (``expired``).

Per cell the grid reports the hedge-rate, win-rate, duplicated-work
fraction, the chaos-affected p99 completion latency of both arms, and
both arms' expiry counts.  Gates (:meth:`HedgeResult.failures`, the one
verdict behind :attr:`HedgeCell.ok`, the CLI and
``benchmarks/bench_hedge.py``): every cell
arms at least one backup and stays under
:data:`~.replay.MAX_HEDGE_EXTRA_FRACTION` duplicated work; the
unbudgeted cells must win at least once and strictly cut the
chaos-affected p99 vs their unhedged twin.  Budgeted cells gate only on
the overhead bound — expiry reshapes the tail on both arms, so the p99
delta is reported, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machines import PLATFORM_P9_V100, Platform
from ..replay import (
    ChaosSchedule,
    ChaosWindow,
    MemoizedPolicy,
    ReplayConfig,
    ReplayEngine,
    ReplayScore,
    WorkloadConfig,
    generate_requests,
    score_run,
)
from ..runtime import ExecutionMemo
from ..util import render_table
from .replay import MAX_HEDGE_EXTRA_FRACTION, _probe_mean_service

__all__ = [
    "BUDGET_FACTORS",
    "HEDGE_FLAVOURS",
    "HedgeCell",
    "HedgeResult",
    "run_hedge",
]

#: chaos flavours swept by the grid (window kinds of :mod:`repro.replay`)
HEDGE_FLAVOURS = ("fault-storm", "brownout")

#: budget sweep: per-request deadline in mean service times (None = no
#: deadline).  "tight" sits inside the burst-peak queueing delay so the
#: admission door visibly sheds; "loose" clears it so expiry is rare.
BUDGET_FACTORS: dict[str, float | None] = {
    "none": None,
    "tight": 50.0,
    "loose": 250.0,
}


@dataclass(frozen=True)
class HedgeCell:
    """One (flavour, budget) cell: hedged arm vs its unhedged twin."""

    flavour: str
    budget_label: str
    budget_s: float | None
    hedged: ReplayScore
    unhedged: ReplayScore

    @property
    def p99_improvement_s(self) -> float:
        """Chaos-affected p99 completion saved by hedging (+ = faster)."""
        return (
            self.unhedged.chaos_completion_p99_s
            - self.hedged.chaos_completion_p99_s
        )

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """Every gate this cell violates, one readable line each."""
        h = self.hedged
        name = f"{self.flavour}/{self.budget_label}"
        out: list[str] = []
        if h.overhead_nonfinite or not math.isfinite(h.overhead_p99_s):
            out.append(f"{name}: nonfinite dispatch overhead")
        # a hedge that never arms measures nothing; one that duplicates
        # more than the ceiling is a cost bug in any cell
        if h.hedged == 0:
            out.append(f"{name}: no backups armed")
        if h.hedge_extra_fraction > MAX_HEDGE_EXTRA_FRACTION:
            out.append(
                f"{name}: duplicated-work fraction "
                f"{h.hedge_extra_fraction:.4f} > {MAX_HEDGE_EXTRA_FRACTION}"
            )
        # unbudgeted: the causal comparison must show a strict win
        if self.budget_s is None and h.hedged and (
            h.hedge_wins == 0 or self.p99_improvement_s <= 0.0
        ):
            out.append(
                f"{name}: {h.hedge_wins} wins, chaos p99 saved "
                f"{self.p99_improvement_s * 1e3:.3f} ms (need a strict win)"
            )
        return out


@dataclass(frozen=True)
class HedgeResult:
    """The full budget x flavour grid of one hedged replay run."""

    cells: tuple[HedgeCell, ...]
    launches: int
    seed: int
    platform_name: str
    mean_service_s: float
    utilization: float

    def get(self, flavour: str, budget_label: str) -> HedgeCell:
        for cell in self.cells:
            if cell.flavour == flavour and cell.budget_label == budget_label:
                return cell
        raise KeyError((flavour, budget_label))

    def failures(self) -> list[str]:
        return [f for cell in self.cells for f in cell.failures()]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def render(self) -> str:
        def ms(x: float) -> str:
            return f"{x * 1e3:.3f}"

        body = [
            [
                c.flavour,
                c.budget_label,
                "-" if c.budget_s is None else ms(c.budget_s),
                c.hedged.hedged,
                c.hedged.hedge_wins,
                f"{c.hedged.hedge_extra_fraction * 100:.2f}%",
                ms(c.hedged.chaos_completion_p99_s),
                ms(c.unhedged.chaos_completion_p99_s),
                ms(c.p99_improvement_s),
                f"{c.hedged.expired}/{c.unhedged.expired}",
                "ok" if c.ok else "FAIL",
            ]
            for c in self.cells
        ]
        return render_table(
            [
                "chaos",
                "budget",
                "budget (ms)",
                "hedged",
                "wins",
                "extra",
                "p99 hedged",
                "p99 plain",
                "saved (ms)",
                "expired h/u",
                "",
            ],
            body,
            title=(
                f"Hedged dispatch on {self.platform_name}: {self.launches} "
                f"requests/arm, util {self.utilization:g}, chaos-window p99 "
                f"completion in ms (seed {self.seed})"
            ),
        )

    def to_payload(self) -> dict:
        """Deterministic JSON-safe dump (byte-identical across reruns)."""
        return {
            "launches": self.launches,
            "seed": self.seed,
            "platform": self.platform_name,
            "mean_service_s": self.mean_service_s,
            "utilization": self.utilization,
            "max_hedge_extra_fraction": MAX_HEDGE_EXTRA_FRACTION,
            "passed": self.passed,
            "cells": [
                {
                    "flavour": c.flavour,
                    "budget": c.budget_label,
                    "budget_s": c.budget_s,
                    "ok": c.ok,
                    "p99_improvement_s": c.p99_improvement_s,
                    "hedged": c.hedged.to_payload(),
                    "unhedged": c.unhedged.to_payload(),
                }
                for c in self.cells
            ],
        }


def run_hedge(
    *,
    launches: int = 20_000,
    seed: int = 0,
    platform: Platform = PLATFORM_P9_V100,
    utilization: float = 0.6,
    flavours: tuple[str, ...] = HEDGE_FLAVOURS,
    budget_factors: dict[str, float | None] | None = None,
) -> HedgeResult:
    """Run the hedged-vs-unhedged grid over one calibrated trace."""
    factors = BUDGET_FACTORS if budget_factors is None else budget_factors
    memo = ExecutionMemo()
    policy = MemoizedPolicy()
    probe_launches = max(min(launches, 2_000), 200)
    mean_service = _probe_mean_service(
        platform, seed, probe_launches, policy, memo
    )

    workload = WorkloadConfig(
        launches=launches,
        seed=seed,
        mean_interarrival_s=mean_service / utilization,
    )
    requests = generate_requests(workload)
    # the same mid-trace window carve as the replay scenario grid
    w_start = requests[int(0.45 * launches)].arrival_s
    w_stop = requests[int(0.55 * launches)].arrival_s
    margin = w_stop - w_start

    def chaos_for(kind: str) -> ChaosSchedule:
        window = ChaosWindow(
            name=kind,
            kind=kind,
            start_s=w_start,
            stop_s=w_stop,
            probability=0.75 if kind == "fault-storm" else 0.35,
        )
        return ChaosSchedule(windows=(window,), seed=seed)

    cells: list[HedgeCell] = []
    for flavour in flavours:
        for label, factor in factors.items():
            budget_s = None if factor is None else factor * mean_service
            scores: list[ReplayScore] = []
            for hedge in (True, False):
                cfg = ReplayConfig(
                    platform=platform,
                    workload=workload,
                    chaos=chaos_for(flavour),
                    budget_s=budget_s,
                    hedge=hedge,
                )
                run = ReplayEngine(cfg, policy=policy, memo=memo).run(
                    requests=requests
                )
                scores.append(score_run(run, recovery_margin_s=margin))
            cells.append(
                HedgeCell(
                    flavour=flavour,
                    budget_label=label,
                    budget_s=budget_s,
                    hedged=scores[0],
                    unhedged=scores[1],
                )
            )

    return HedgeResult(
        cells=tuple(cells),
        launches=launches,
        seed=seed,
        platform_name=platform.name,
        mean_service_s=mean_service,
        utilization=utilization,
    )
