"""Per-(region, env) memoization of the deterministic launch inputs.

Every quantity the dispatch path derives from ``(region, env)`` alone is
a pure function in this repository: the simulated host/device times, the
runtime attribute binding, and the device footprint.  A traffic-scale
replay re-launches the same few dozen (kernel, dataset) cases 10⁵+
times, so recomputing them per launch (~15 ms) is the entire cost of a
run.  :class:`ExecutionMemo` caches them once per case, cutting a warm
launch to microseconds while returning the *identical* values — records
stay bit-identical to an unmemoized runtime, which the replay
differential tests pin.

The memo is safe to share across runtimes (and across replay scenarios)
as long as they run the same platform and host team size: keys include
the executing device names, so a memo accidentally shared across
platforms misses rather than lies.

Each runtime's dispatch core interns what it read from the memo in one
:class:`~repro.runtime.CaseContext` per case, so a warm launch costs one
dict lookup instead of a memo lookup (and an ``env`` sort) per value.
"""

from __future__ import annotations

from typing import Mapping

from ..analysis import BoundAttributes, RegionAttributes
from .device import Device, ExecutionRecord

__all__ = ["ExecutionMemo"]


def _env_key(env: Mapping[str, int]) -> tuple:
    return tuple(sorted(env.items()))


class ExecutionMemo:
    """Cache of deterministic per-(region, env) dispatch inputs."""

    def __init__(self):
        self._bound: dict[tuple, BoundAttributes] = {}
        self._executions: dict[tuple, ExecutionRecord] = {}
        self._footprints: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0

    def bound(self, attrs: RegionAttributes, env: Mapping[str, int]) -> BoundAttributes:
        """``attrs.bind(env)``, computed once per (region, env)."""
        key = (attrs.region.name, _env_key(env))
        hit = self._bound.get(key)
        if hit is None:
            self.misses += 1
            hit = self._bound[key] = attrs.bind(env)
        else:
            self.hits += 1
        return hit

    def execution(
        self, device: Device, attrs: RegionAttributes, env: Mapping[str, int]
    ) -> ExecutionRecord:
        """``device.execute(region, env)``, computed once per device/case."""
        key = (device.name, attrs.region.name, _env_key(env))
        hit = self._executions.get(key)
        if hit is None:
            self.misses += 1
            hit = self._executions[key] = device.execute(attrs.region, env)
        else:
            self.hits += 1
        return hit

    def footprint(
        self, attrs: RegionAttributes, env: Mapping[str, int], compute
    ) -> int:
        """Device-resident bytes for the launch, computed once per case."""
        key = (attrs.region.name, _env_key(env))
        hit = self._footprints.get(key)
        if hit is None:
            self.misses += 1
            hit = self._footprints[key] = compute(attrs.region, env)
        else:
            self.hits += 1
        return hit

    def __len__(self) -> int:
        return len(self._bound) + len(self._executions) + len(self._footprints)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionMemo({len(self)} entries, "
            f"{self.hits} hits / {self.misses} misses)"
        )
