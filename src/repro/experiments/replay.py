"""Traffic-scale chaos replay: the production-robustness experiment.

Not a paper artefact — the capstone robustness experiment
(docs/ROBUSTNESS.md).  One seeded, Zipf-popularity, bursty trace is
generated per run (:mod:`repro.replay`), its arrival rate calibrated
from a chaos-free probe so the steady scenario sits at a stated
utilization, and then replayed through the full resilient runtime under
a scenario grid:

* **steady**          — no chaos, unbounded queue: the accuracy and
  overhead baseline every other scenario is gated against;
* **fault-storm**     — 75% of accelerator attempts fault (retryably)
  over a mid-trace window;
* **brownout**        — every accelerator attempt fails over the window
  (the card fell over); the breaker must open and later re-close;
* **link-degraded**   — 35% transfer faults over the window (flaky
  interconnect, mostly absorbed by the retry budget);
* **hw-drift**        — the device *actually* runs 6x slower over the
  window (``time_dilation``): the drift sentinel must detect from the
  residuals and re-calibrate after;
* **overload-reject / -degrade / -defer** — the trace is compressed to
  ~3x offered load against a bounded admission queue, one row per
  load-shedding policy;
* **hedged-chaos**    — the fault-storm chaos replayed twice: once with
  speculative host backups armed (tail-at-scale hedging: a backup
  starts once the primary outlives its case's p95), once without.  The
  hedged arm must actually fire and win, cut the chaos-affected p99
  completion latency vs its unhedged twin, and duplicate at most
  :data:`MAX_HEDGE_EXTRA_FRACTION` of the served seconds.

Gates (:meth:`ReplayResult.failures`, the one verdict ``ReplayRow.ok``,
``ReplayResult.passed``, the CLI and ``benchmarks/bench_replay.py`` all
read): the chaos-free baseline never faults or sheds; chaos scenarios
keep steady-state selection accuracy within :data:`MAX_ACCURACY_DROP` of
the baseline, detect every window within :data:`MAX_TTD_FRACTION` of its
duration and recover within :data:`MAX_TTR_S`; every scenario's
dispatch-overhead p99 is finite; overload scenarios keep the queue depth
bounded by its capacity while shedding/degrading/deferring a nonzero
fraction (and only by their own policy).  The bench runs the grid at the
10⁵-launch scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machines import PLATFORM_P9_V100, Platform
from ..parallel import SweepEngine
from ..replay import (
    AdmissionConfig,
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
from .common import _resolve_platform

__all__ = [
    "MAX_ACCURACY_DROP",
    "MAX_TTD_FRACTION",
    "MAX_TTR_S",
    "MIN_HEDGE_WINS",
    "MAX_HEDGE_EXTRA_FRACTION",
    "REPLAY_SCENARIOS",
    "ReplayRow",
    "ReplayResult",
    "run_replay",
]

#: Self-check thresholds: the one copy (benchmarks/bench_replay.py and
#: the CLI both gate on :meth:`ReplayResult.failures`).
MAX_ACCURACY_DROP = 0.01  # steady-state accuracy loss vs the no-chaos baseline
MAX_TTD_FRACTION = 0.25  # detection within this fraction of the window
MAX_TTR_S = 2.0  # simulated seconds from window close to clean recovery
MIN_HEDGE_WINS = 1  # backup races the hedged arm must win
MAX_HEDGE_EXTRA_FRACTION = 0.15  # duplicated work hedging may burn

REPLAY_SCENARIOS = (
    "steady",
    "fault-storm",
    "brownout",
    "link-degraded",
    "hw-drift",
    "overload-reject",
    "overload-degrade",
    "overload-defer",
    "hedged-chaos",
)

_OVERLOAD_POLICIES = {
    "overload-reject": "reject",
    "overload-degrade": "degrade",
    "overload-defer": "defer",
}


@dataclass(frozen=True)
class ReplayRow:
    """One scenario's score plus its gate verdict inputs."""

    scenario: str
    flavour: str  # "baseline" | "chaos" | "overload" | "hedged"
    score: ReplayScore
    baseline_steady_accuracy: float
    capacity: int | None  # admission bound (overload rows)
    outcome_counts: dict
    #: the unhedged twin's score (hedged rows only): same trace, same
    #: chaos, same budget — the only delta is the HedgePolicy
    unhedged: ReplayScore | None = None

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_steady_accuracy - self.score.steady_accuracy

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """Every gate this scenario violates, one readable line each."""
        s = self.score
        name = self.scenario
        out: list[str] = []
        if s.overhead_nonfinite:
            out.append(
                f"{name}: {s.overhead_nonfinite} nonfinite "
                "dispatch-overhead observations"
            )
        if not math.isfinite(s.overhead_p99_s):
            out.append(f"{name}: dispatch-overhead p99 not finite")
        if self.flavour == "baseline":
            if s.fault_events or s.fallbacks:
                out.append(f"{name}: chaos-free baseline faulted")
            if s.shed_fraction or s.degraded_fraction:
                out.append(f"{name}: chaos-free baseline shed traffic")
        elif self.flavour == "chaos":
            if self.accuracy_drop > MAX_ACCURACY_DROP:
                out.append(
                    f"{name}: steady accuracy dropped "
                    f"{self.accuracy_drop:.4f} > {MAX_ACCURACY_DROP} vs baseline"
                )
            for w in s.windows:
                duration = w.stop_s - w.start_s
                if not w.detected:
                    out.append(f"{name}: window never detected")
                elif w.ttd_s > MAX_TTD_FRACTION * duration:
                    out.append(
                        f"{name}: ttd {w.ttd_s:.3f}s > "
                        f"{MAX_TTD_FRACTION:g} x {duration:.3f}s window"
                    )
                if not w.recovered:
                    out.append(f"{name}: never recovered")
                elif w.ttr_s > MAX_TTR_S:
                    out.append(f"{name}: ttr {w.ttr_s:.3f}s > {MAX_TTR_S}s")
        elif self.flavour == "hedged":
            # hedging must actually fire, win, cut the chaos-affected p99
            # completion latency vs the unhedged twin (the trace-wide p99
            # is pinned by steady-state burst peaks no backup can touch),
            # and stay under the duplicated-work ceiling — a hedge that
            # only burns is a bug
            u = self.unhedged
            if u is None or s.hedged == 0:
                out.append(f"{name}: no backups armed")
            elif s.hedge_wins < MIN_HEDGE_WINS:
                out.append(
                    f"{name}: {s.hedge_wins} hedge wins < {MIN_HEDGE_WINS}"
                )
            elif s.chaos_completion_p99_s >= u.chaos_completion_p99_s:
                out.append(
                    f"{name}: chaos p99 {s.chaos_completion_p99_s:.6f}s "
                    f"not below unhedged {u.chaos_completion_p99_s:.6f}s"
                )
            if s.hedge_extra_fraction > MAX_HEDGE_EXTRA_FRACTION:
                out.append(
                    f"{name}: duplicated-work fraction "
                    f"{s.hedge_extra_fraction:.4f} > {MAX_HEDGE_EXTRA_FRACTION}"
                )
        else:  # overload: the bound must hold and the policy visibly shed
            if self.capacity is not None and s.max_queue_depth > self.capacity:
                out.append(
                    f"{name}: queue depth {s.max_queue_depth} "
                    f"exceeded capacity {self.capacity}"
                )
            shed, degraded = s.shed_fraction, s.degraded_fraction
            if name == "overload-reject" and (shed == 0.0 or degraded != 0.0):
                out.append(
                    f"{name}: shed {shed:.4f}, degraded {degraded:.4f} "
                    "(the reject policy must shed and only shed)"
                )
            elif name == "overload-degrade" and (degraded == 0.0 or shed != 0.0):
                out.append(
                    f"{name}: degraded {degraded:.4f}, shed {shed:.4f} "
                    "(the degrade policy must degrade and only degrade)"
                )
            elif name == "overload-defer" and (s.deferred == 0 or s.resumed == 0):
                out.append(f"{name}: nothing deferred and resumed")
        return out


@dataclass(frozen=True)
class ReplayResult:
    """The full scenario grid of one traffic replay run."""

    rows: tuple[ReplayRow, ...]
    launches: int
    seed: int
    platform_name: str
    mean_service_s: float
    mean_interarrival_s: float
    utilization: float
    overload_utilization: float

    def get(self, scenario: str) -> ReplayRow:
        for row in self.rows:
            if row.scenario == scenario:
                return row
        raise KeyError(scenario)

    def failures(self) -> list[str]:
        return [f for row in self.rows for f in row.failures()]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def render(self) -> str:
        def pct(x: float) -> str:
            return "-" if not math.isfinite(x) else f"{x * 100:.2f}%"

        def lat(w_attr: str, row: ReplayRow) -> str:
            vals = [getattr(w, w_attr) for w in row.score.windows]
            if not vals:
                return "-"
            return "/".join("inf" if v is None else f"{v:.3f}" for v in vals)

        body = [
            [
                row.scenario,
                row.score.launches,
                pct(row.score.steady_accuracy),
                pct(row.score.overall_accuracy),
                f"{row.score.overhead_p99_s * 1e3:.3f}",
                lat("ttd_s", row),
                lat("ttr_s", row),
                pct(row.score.shed_fraction),
                pct(row.score.degraded_fraction),
                row.score.max_queue_depth,
                "ok" if row.ok else "FAIL",
            ]
            for row in self.rows
        ]
        return render_table(
            [
                "scenario",
                "launches",
                "steady acc",
                "overall acc",
                "p99 ovh (ms)",
                "ttd (s)",
                "ttr (s)",
                "shed",
                "degraded",
                "depth",
                "",
            ],
            body,
            title=(
                f"Traffic replay on {self.platform_name}: {self.launches} "
                f"requests/scenario, util {self.utilization:g} steady / "
                f"{self.overload_utilization:g} overload "
                f"(seed {self.seed})"
            ),
        )

    def to_payload(self) -> dict:
        """Deterministic JSON-safe dump (byte-identical across reruns)."""
        return {
            "launches": self.launches,
            "seed": self.seed,
            "platform": self.platform_name,
            "mean_service_s": self.mean_service_s,
            "mean_interarrival_s": self.mean_interarrival_s,
            "utilization": self.utilization,
            "overload_utilization": self.overload_utilization,
            "passed": self.passed,
            "rows": [
                {
                    "scenario": row.scenario,
                    "flavour": row.flavour,
                    "ok": row.ok,
                    "capacity": row.capacity,
                    "baseline_steady_accuracy": row.baseline_steady_accuracy,
                    "outcome_counts": row.outcome_counts,
                    **(
                        {
                            "unhedged_completion_p99_s": (
                                row.unhedged.completion_p99_s
                            ),
                            "unhedged_chaos_completion_p99_s": (
                                row.unhedged.chaos_completion_p99_s
                            ),
                            "unhedged_chaos_completion_p50_s": (
                                row.unhedged.chaos_completion_p50_s
                            ),
                        }
                        if row.unhedged is not None
                        else {}
                    ),
                    **row.score.to_payload(),
                }
                for row in self.rows
            ],
        }


def _probe_mean_service(
    platform: Platform,
    seed: int,
    launches: int,
    policy: MemoizedPolicy,
    memo: ExecutionMemo,
) -> float:
    """Chaos-free mean service time of the workload mix (deterministic)."""
    cfg = ReplayConfig(
        platform=platform,
        workload=WorkloadConfig(launches=launches, seed=seed),
    )
    run = ReplayEngine(cfg, policy=policy, memo=memo).run()
    records = run.records
    return sum(r.executed_seconds for r in records) / len(records)


def _scenario_outcome(
    name: str,
    *,
    platform: Platform,
    seed: int,
    workload: WorkloadConfig,
    overload_workload: WorkloadConfig,
    requests,
    w_start: float,
    w_stop: float,
    margin: float,
    capacity: int,
    policy: MemoizedPolicy,
    memo: ExecutionMemo,
) -> tuple[str, ReplayScore, dict, "ReplayScore | None"]:
    """One scenario's (flavour, score, outcome_counts, unhedged twin).

    The single scenario body shared by the sequential loop (which passes
    the run-wide memo/policy/requests) and by the parallel worker task
    (which rebuilds the same inputs deterministically from scalars), so
    the two paths cannot drift.
    """

    def chaos_for(kind: str) -> ChaosSchedule:
        # the chaos scenario names coincide with the window kinds
        window = ChaosWindow(
            name=kind,
            kind=kind,
            start_s=w_start,
            stop_s=w_stop,
            probability=0.75 if kind == "fault-storm" else 0.35,
            gpu_scale=6.0 if kind == "hw-drift" else 1.0,
        )
        return ChaosSchedule(windows=(window,), seed=seed)

    unhedged = None
    if name == "hedged-chaos":
        # the hedged arm and its unhedged twin share the trace and
        # the fault-storm chaos; the *only* delta is the HedgePolicy,
        # so the chaos-tail p99 comparison is causal
        flavour = "hedged"
        run = ReplayEngine(
            ReplayConfig(
                platform=platform,
                workload=workload,
                chaos=chaos_for("fault-storm"),
                hedge=True,
            ),
            policy=policy,
            memo=memo,
        ).run(requests=requests)
        score = score_run(run, recovery_margin_s=margin)
        plain = ReplayEngine(
            ReplayConfig(
                platform=platform,
                workload=workload,
                chaos=chaos_for("fault-storm"),
            ),
            policy=policy,
            memo=memo,
        ).run(requests=requests)
        unhedged = score_run(plain, recovery_margin_s=margin)
    elif name in _OVERLOAD_POLICIES:
        flavour = "overload"
        cfg = ReplayConfig(
            platform=platform,
            workload=overload_workload,
            admission=AdmissionConfig(
                capacity=capacity,
                policy=_OVERLOAD_POLICIES[name],
                defer_capacity=max(capacity * 8, 64),
            ),
        )
        run = ReplayEngine(cfg, policy=policy, memo=memo).run()
        score = score_run(run)
    else:
        flavour = "baseline" if name == "steady" else "chaos"
        cfg = ReplayConfig(
            platform=platform,
            workload=workload,
            chaos=(ChaosSchedule() if name == "steady" else chaos_for(name)),
        )
        run = ReplayEngine(cfg, policy=policy, memo=memo).run(
            requests=requests
        )
        score = score_run(run, recovery_margin_s=margin)
    return flavour, score, run.outcome_counts(), unhedged


def _replay_scenario_task(
    task: tuple,
) -> tuple[str, ReplayScore, dict, "ReplayScore | None"]:
    """Worker task: one replay scenario, rebuilt from shipped scalars.

    Only the platform *name* and a handful of floats/ints travel with
    the chunk; the worker regenerates the identical seeded trace and
    chaos windows (``generate_requests`` is deterministic in the
    workload config) with its own fresh memo/policy, so scores are
    bit-identical to the sequential loop's.
    """
    (
        plat_name,
        name,
        launches,
        seed,
        utilization,
        overload_utilization,
        capacity,
        mean_service,
    ) = task
    platform = _resolve_platform(plat_name)
    workload = WorkloadConfig(
        launches=launches,
        seed=seed,
        mean_interarrival_s=mean_service / utilization,
    )
    requests = generate_requests(workload)
    w_start = requests[int(0.45 * launches)].arrival_s
    w_stop = requests[int(0.55 * launches)].arrival_s
    overload_workload = WorkloadConfig(
        launches=launches,
        seed=seed,
        mean_interarrival_s=mean_service / overload_utilization,
    )
    return _scenario_outcome(
        name,
        platform=platform,
        seed=seed,
        workload=workload,
        overload_workload=overload_workload,
        requests=requests,
        w_start=w_start,
        w_stop=w_stop,
        margin=w_stop - w_start,
        capacity=capacity,
        policy=MemoizedPolicy(),
        memo=ExecutionMemo(),
    )


def run_replay(
    *,
    launches: int = 20_000,
    seed: int = 0,
    platform: Platform = PLATFORM_P9_V100,
    utilization: float = 0.6,
    overload_utilization: float = 3.0,
    capacity: int = 32,
    scenarios: tuple[str, ...] = REPLAY_SCENARIOS,
    jobs: int | None = None,
    chunk: int | None = None,
) -> ReplayResult:
    """Run the scenario grid over one calibrated trace.

    ``jobs``/``chunk`` fan whole scenarios over the persistent
    warm-worker pool; rows come back in scenario-declaration order with
    payloads identical to the sequential loop (each worker regenerates
    the same seeded trace from the shipped scalars).
    """
    unknown = set(scenarios) - set(REPLAY_SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenarios {sorted(unknown)}")
    if "steady" not in scenarios:
        raise ValueError("the steady baseline scenario is required")

    memo = ExecutionMemo()
    policy = MemoizedPolicy()
    probe_launches = max(min(launches, 2_000), 200)
    mean_service = _probe_mean_service(
        platform, seed, probe_launches, policy, memo
    )
    mean_interarrival = mean_service / utilization

    workload = WorkloadConfig(
        launches=launches, seed=seed, mean_interarrival_s=mean_interarrival
    )
    requests = generate_requests(workload)
    # chaos occupies the middle tenth of the trace, in *actual* arrival
    # time (windows carve the exact same request prefix for every seed)
    w_start = requests[int(0.45 * launches)].arrival_s
    w_stop = requests[int(0.55 * launches)].arrival_s
    margin = w_stop - w_start  # recovery margin: one window length

    overload_workload = WorkloadConfig(
        launches=launches,
        seed=seed,
        mean_interarrival_s=mean_service / overload_utilization,
    )

    engine = SweepEngine(jobs, chunk=chunk)
    if engine.parallel:
        outcomes = engine.map(
            _replay_scenario_task,
            [
                (
                    platform.name,
                    name,
                    launches,
                    seed,
                    utilization,
                    overload_utilization,
                    capacity,
                    mean_service,
                )
                for name in scenarios
            ],
            labels=list(scenarios),
        )
    else:
        outcomes = [
            _scenario_outcome(
                name,
                platform=platform,
                seed=seed,
                workload=workload,
                overload_workload=overload_workload,
                requests=requests,
                w_start=w_start,
                w_stop=w_stop,
                margin=margin,
                capacity=capacity,
                policy=policy,
                memo=memo,
            )
            for name in scenarios
        ]

    rows: list[ReplayRow] = []
    baseline_steady = math.nan
    for name, (flavour, score, counts, unhedged) in zip(scenarios, outcomes):
        if name == "steady":
            baseline_steady = score.steady_accuracy
        rows.append(
            ReplayRow(
                scenario=name,
                flavour=flavour,
                score=score,
                baseline_steady_accuracy=baseline_steady,
                capacity=capacity if flavour == "overload" else None,
                outcome_counts=counts,
                unhedged=unhedged,
            )
        )

    return ReplayResult(
        rows=tuple(rows),
        launches=launches,
        seed=seed,
        platform_name=platform.name,
        mean_service_s=mean_service,
        mean_interarrival_s=mean_interarrival,
        utilization=utilization,
        overload_utilization=overload_utilization,
    )
