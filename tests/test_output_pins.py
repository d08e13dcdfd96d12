"""Byte-level output pins for three small replay traces.

Each digest is SHA-256 over everything a replay run reports: the
outcomes (with their launch records, start and finish times), the
metrics registry's ``snapshot()`` serialized in its own key order, and
the drift sentinel's transition log.  The values were recorded before
the warm launch path was optimized; any change to the per-launch
bookkeeping that moves a single float, metric key or transition fails
here.  The three traces cover the paths the optimization touches:

* ``legacy-steady`` — the single-accelerator runtime behind the legacy
  FIFO, calm traffic (the memo/context/metrics fast path);
* ``service-storm`` — the offload service with a fault storm, bounded
  degrade admission, deadline budgets and hedged host backups;
* ``multi-drift`` — the multi-device runtime under a GPU hardware-drift
  window (drift transitions, corrections and time dilation).

Run this file directly to print the digests of the current tree.
"""

import hashlib
import json

import pytest

from repro.machines import (
    NVLINK2,
    PCIE3_X16,
    PLATFORM_P9_V100,
    POWER9,
    TESLA_K80,
    TESLA_V100,
    AcceleratorSlot,
    Platform,
)
from repro.replay import (
    AdmissionConfig,
    ChaosSchedule,
    ChaosWindow,
    ReplayConfig,
    ReplayEngine,
    WorkloadConfig,
    generate_requests,
)

PINNED = {
    "legacy-steady": "608dcb4994f1f8c6dd559819b21ccfcac5e687a84d0288b0556e21510922f064",
    "multi-drift": "1f4295ad16098debe94e94b068e44947a59d116f7147a9b64b620bd82f81ceea",
    "service-storm": "9a4f855fcb12090c0a219de648cb608bd6d3cba26dabf1915664956c9383eb63",
}


def _window(requests, kind, **kwargs) -> ChaosSchedule:
    """One chaos window over the middle fifth of the trace."""
    n = len(requests)
    return ChaosSchedule(
        windows=(
            ChaosWindow(
                name=kind,
                kind=kind,
                start_s=requests[int(0.4 * n)].arrival_s,
                stop_s=requests[int(0.6 * n)].arrival_s,
                **kwargs,
            ),
        ),
        seed=5,
    )


def _legacy_steady() -> tuple[ReplayConfig, list]:
    workload = WorkloadConfig(launches=300, seed=7)
    cfg = ReplayConfig(platform=PLATFORM_P9_V100, workload=workload)
    return cfg, generate_requests(workload)


def _service_storm() -> tuple[ReplayConfig, list]:
    workload = WorkloadConfig(
        launches=300, seed=11, tenants=3, mean_interarrival_s=4e-4
    )
    requests = generate_requests(workload)
    cfg = ReplayConfig(
        platform=PLATFORM_P9_V100,
        workload=workload,
        chaos=_window(requests, "fault-storm", probability=0.75),
        admission=AdmissionConfig(capacity=8, policy="degrade"),
        budget_s=1e-3,
        hedge=True,
        service=True,
    )
    return cfg, requests


def _multi_drift() -> tuple[ReplayConfig, list]:
    platform = Platform(
        "P9 + V100/NVLink + K80/PCIe",
        POWER9,
        (
            AcceleratorSlot(TESLA_V100, NVLINK2),
            AcceleratorSlot(TESLA_K80, PCIE3_X16),
        ),
    )
    workload = WorkloadConfig(launches=150, seed=3)
    requests = generate_requests(workload)
    cfg = ReplayConfig(
        platform=platform,
        workload=workload,
        chaos=_window(requests, "hw-drift", gpu_scale=6.0),
        multi_device=True,
    )
    return cfg, requests


TRACES = {
    "legacy-steady": _legacy_steady,
    "service-storm": _service_storm,
    "multi-drift": _multi_drift,
}


def run_digest(name: str) -> tuple[str, object]:
    """(SHA-256 of the run's outputs, the run) for one pinned trace."""
    cfg, requests = TRACES[name]()
    run = ReplayEngine(cfg).run(requests=requests)
    h = hashlib.sha256()
    h.update(repr(run.outcomes).encode())
    h.update(repr(run.horizon_s).encode())
    h.update(json.dumps(run.metrics.snapshot()).encode())
    h.update(repr(run.sentinel.transitions).encode())
    return h.hexdigest(), run


@pytest.mark.parametrize("name", sorted(TRACES))
def test_outputs_match_the_pinned_digest(name):
    digest, _ = run_digest(name)
    assert digest == PINNED[name]


def test_pinned_traces_exercise_their_paths():
    _, storm = run_digest("service-storm")
    counts = storm.outcome_counts()
    assert counts.get("degraded", 0) > 0 and counts.get("expired", 0) > 0
    assert any(r.fault_events for r in storm.records)
    assert any(r.hedge is not None for r in storm.records)
    gauges = storm.metrics.snapshot()["gauges"]
    assert any(
        value
        for key, value in gauges.items()
        if key.startswith("breaker_open_transitions")
    )
    _, drift = run_digest("multi-drift")
    assert drift.sentinel.transitions


if __name__ == "__main__":
    for trace in sorted(TRACES):
        print(f'    "{trace}": "{run_digest(trace)[0]}",')
