"""EPCC-style OpenMP overhead microbenchmarks (Table II methodology).

EPCC measures construct overheads by timing a parallel construct whose
body does negligible work.  We do the same against the CPU simulator: an
(almost) empty parallel loop with one iteration per thread isolates
fork + schedule + barrier cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import RegionAttributes, compile_attributes
from ..machines import CPUDescriptor
from ..sim import simulate_cpu
from .kernels import build_empty_body

__all__ = ["ParallelOverhead", "measure_parallel_overhead", "overhead_curve"]


@dataclass(frozen=True)
class ParallelOverhead:
    """Measured overhead of one parallel-for at a given team size."""

    cpu_name: str
    num_threads: int
    overhead_cycles: float
    overhead_us: float


def measure_parallel_overhead(
    cpu: CPUDescriptor, num_threads: int
) -> ParallelOverhead:
    """Time an empty ``parallel for`` (one iteration per thread).

    The kernel body is a single store, so virtually all measured time is
    fork + schedule + join — the quantities Table II carries.
    """
    return _measure(compile_attributes(build_empty_body()), cpu, num_threads)


def _measure(
    attrs: RegionAttributes, cpu: CPUDescriptor, num_threads: int
) -> ParallelOverhead:
    res = simulate_cpu(attrs, cpu, {"n": num_threads}, num_threads=num_threads)
    cycles = res.seconds * cpu.frequency_ghz * 1e9
    return ParallelOverhead(
        cpu_name=cpu.name,
        num_threads=num_threads,
        overhead_cycles=cycles,
        overhead_us=res.seconds * 1e6,
    )


def overhead_curve(
    cpu: CPUDescriptor, team_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 160)
) -> list[ParallelOverhead]:
    """EPCC overhead as a function of team size (fork/barrier scaling)."""
    sizes = tuple(t for t in team_sizes if t <= cpu.hw_threads)
    attrs = compile_attributes(build_empty_body())
    return [_measure(attrs, cpu, t) for t in sizes]
