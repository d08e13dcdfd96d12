"""The MCA scoreboard scheduler.

Emulates the dispatch/issue behaviour LLVM-MCA derives from a target's
scheduling model: in-order dispatch of ``dispatch_width`` ops per cycle,
dataflow-ordered issue constrained by per-port unit availability, fixed
op-class latencies, and unpipelined division/sqrt units.

The central entry point, :func:`steady_state_cycles`, measures the
asymptotic cycles-per-iteration of a loop body by scheduling several renamed
copies (virtually unrolled iterations) and differencing completion times —
this captures loop-carried dependency chains (e.g. a scalar reduction
accumulator serialising on FMA latency) that a naive latency sum misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace
from typing import Callable, Mapping, Sequence

from ..machines import CPUDescriptor
from ..obs.tracer import current_tracer
from ..parallel.cache import current_cache
from .ops import UNPIPELINED, MachineOp

__all__ = ["ScheduleResult", "schedule_ops", "steady_state_cycles"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a straight-line op sequence."""

    total_cycles: float
    ipc: float
    port_cycles: Mapping[str, float]  # busy-cycles consumed per port class
    issue_cycle: tuple[float, ...]  # per-op issue times (for diagnostics)

    def pressure(self, cpu: CPUDescriptor) -> dict[str, float]:
        """Per-port utilization fraction over the schedule length.

        A port runs as many units as :func:`schedule_ops` gave it: at
        least one, also when the descriptor lists zero or omits the port.
        """
        if self.total_cycles <= 0:
            return {p: 0.0 for p in self.port_cycles}
        out = {}
        for port, busy in self.port_cycles.items():
            units = max(1, cpu.ports.get(port, 1))
            out[port] = busy / (self.total_cycles * units)
        return out

    def bottleneck(self, cpu: CPUDescriptor) -> str:
        """The most contended port class (diagnostic, MCA-report style)."""
        pres = self.pressure(cpu)
        if not pres:
            return "none"
        return max(pres, key=pres.get)


def schedule_ops(
    ops: Sequence[MachineOp],
    cpu: CPUDescriptor,
    *,
    latency_of: Callable[[MachineOp], float] | None = None,
) -> ScheduleResult:
    """Schedule a straight-line sequence of machine ops.

    ``latency_of`` overrides per-op latency — the CPU timing simulator uses
    it to inject cache-aware load latencies while the analytical path keeps
    the descriptor's L1-hit numbers (the paper's no-cache-model abstraction).

    The model: ops dispatch in program order, at most ``dispatch_width`` per
    cycle; an op issues at the earliest cycle ≥ its dispatch cycle when all
    source vregs are ready and a unit of its port has a free slot;
    pipelined units accept one op per cycle per unit, unpipelined ones are
    busy for the op's full latency.
    """
    if latency_of is None:
        latency_of = lambda op: float(cpu.latency(op.opcode))  # noqa: E731

    ready: dict[int, float] = {}  # vreg -> cycle its value is available
    # port -> list of next-free cycles, one entry per unit
    unit_free: dict[str, list[float]] = {
        port: [0.0] * max(1, count) for port, count in cpu.ports.items()
    }
    port_busy: dict[str, float] = {}
    issue_times: list[float] = []
    finish = 0.0

    for idx, op in enumerate(ops):
        dispatch = idx // max(1, cpu.dispatch_width)
        operands = max(
            (ready.get(s, 0.0) for s in op.srcs), default=0.0
        )
        earliest = max(dispatch, operands)
        units = unit_free.setdefault(op.port, [0.0])
        # pick the unit that frees first
        unit_idx = min(range(len(units)), key=units.__getitem__)
        issue = max(earliest, units[unit_idx])
        lat = latency_of(op)
        occupancy = lat if op.opcode in UNPIPELINED else 1.0
        units[unit_idx] = issue + occupancy
        port_busy[op.port] = port_busy.get(op.port, 0.0) + occupancy
        if op.dest >= 0:
            ready[op.dest] = issue + lat
        issue_times.append(issue)
        finish = max(finish, issue + lat)

    total = max(finish, 1.0) if ops else 0.0
    ipc = len(ops) / total if total > 0 else 0.0
    return ScheduleResult(
        total_cycles=total,
        ipc=ipc,
        port_cycles=dict(port_busy),
        issue_cycle=tuple(issue_times),
    )


def unroll(
    body: Sequence[MachineOp],
    copies: int,
    carried_regs: frozenset[int] = frozenset(),
) -> list[MachineOp]:
    """Concatenate ``copies`` renamed instances of ``body``.

    Registers in ``carried_regs`` are loop-carried: a copy's reads of such a
    register see the previous copy's (renamed) write, creating the serial
    dependency chain of, e.g., a scalar reduction.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    max_reg = max((op.dest for op in body), default=-1)
    max_src = max((max(op.srcs, default=-1) for op in body), default=-1)
    base = max(max_reg, max_src) + 1

    out: list[MachineOp] = []
    # carried register id -> vreg currently holding its live value
    live: dict[int, int] = {r: r for r in carried_regs}
    for c in range(copies):
        offset = base * (c + 1)
        local_map: dict[int, int] = {}

        def rename_src(s: int) -> int:
            if s in local_map:
                return local_map[s]
            if s in carried_regs:
                return live[s]
            return s if c == 0 else s + offset - base  # region-invariant reg
        for op in body:
            srcs = tuple(rename_src(s) for s in op.srcs)
            dest = op.dest
            if dest >= 0:
                new_dest = dest if c == 0 else dest + offset
                local_map[dest] = new_dest
                if dest in carried_regs:
                    live[dest] = new_dest
                dest = new_dest
            out.append(MachineOp(op.opcode, dest, srcs, op.tag))
    return out


def steady_state_cycles(
    body: Sequence[MachineOp],
    cpu: CPUDescriptor,
    *,
    carried_regs: frozenset[int] = frozenset(),
    warmup: int = 4,
    measure: int = 16,
    latency_of: Callable[[MachineOp], float] | None = None,
) -> float:
    """Asymptotic cycles per iteration of ``body`` under the scoreboard.

    Schedules ``warmup + measure`` renamed copies and differences the
    schedule length after ``warmup`` copies from the full length,
    eliminating pipeline fill effects.  Raises :class:`ValueError` when
    ``warmup`` or ``measure`` is below 1.
    """
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    if measure < 1:
        raise ValueError(f"measure must be >= 1, got {measure}")
    if not body:
        return 0.0
    tracer = current_tracer()
    if not tracer.enabled:
        return _cached_steady_state(
            body, cpu, carried_regs, warmup, measure, latency_of
        )
    with tracer.span("mca.steady_state", ops=len(body), cpu=cpu.name) as sp:
        cycles = _cached_steady_state(
            body, cpu, carried_regs, warmup, measure, latency_of
        )
        sp.set("cycles_per_iter", cycles)
        return cycles


def _cached_steady_state(
    body: Sequence[MachineOp],
    cpu: CPUDescriptor,
    carried_regs: frozenset[int],
    warmup: int,
    measure: int,
    latency_of: Callable[[MachineOp], float] | None,
) -> float:
    """Consult the analysis cache, then the in-process memo, then compute.

    The persistent key covers the full op listing (opcode, registers,
    tag), the unroll parameters and the CPU descriptor.  A ``latency_of``
    override is folded in by *evaluating it over the body ops*: both
    in-tree overrides are pure functions of ``(opcode, tag)``, which the
    renamed unrolled copies preserve, so the evaluated latencies
    determine the schedule exactly — and the override is called once per
    body op, never per unrolled copy.
    """
    if latency_of is None:
        lats = tuple(float(cpu.latency(op.opcode)) for op in body)
    else:
        lats = tuple(float(latency_of(op)) for op in body)
    carried = frozenset(carried_regs)
    cache = current_cache()
    if not cache.enabled:
        return _memoized_steady_state(body, cpu, carried, warmup, measure, lats)
    payload = {
        "ops": [[op.opcode, op.dest, list(op.srcs), op.tag] for op in body],
        "carried": sorted(carried),
        "warmup": warmup,
        "measure": measure,
        "latencies": None if latency_of is None else list(lats),
    }
    return cache.get_or_compute(
        "mca.steady_state",
        payload,
        cpu,
        lambda: _memoized_steady_state(body, cpu, carried, warmup, measure, lats),
        validate=lambda v: isinstance(v, (int, float)),
    )


#: In-process memo of :func:`_fused_steady_state`, keyed on exactly what
#: the scoreboard reads — never on the descriptor's identity, so CPU
#: variants that differ only in fields the scheduler ignores share
#: entries.  It sits behind the persistent cache (as its compute
#: callback), so cache accounting is unaffected.
_STEADY_STATE_MEMO: dict[tuple, float] = {}


def clear_steady_state_memo() -> None:
    """Empty the in-process steady-state memo."""
    _STEADY_STATE_MEMO.clear()


def _memoized_steady_state(
    body: Sequence[MachineOp],
    cpu: CPUDescriptor,
    carried: frozenset[int],
    warmup: int,
    measure: int,
    lats: tuple[float, ...],
) -> float:
    key = (
        tuple((op.opcode, op.dest, tuple(op.srcs)) for op in body),
        lats,
        carried,
        warmup,
        measure,
        cpu.dispatch_width,
        tuple(sorted(cpu.ports.items())),
    )
    cycles = _STEADY_STATE_MEMO.get(key)
    if cycles is None:
        cycles = _fused_steady_state(
            body, lats, carried, warmup, measure, cpu.dispatch_width, cpu.ports
        )
        _STEADY_STATE_MEMO[key] = cycles
    return cycles


def _fused_steady_state(
    body: Sequence[MachineOp],
    lats: Sequence[float],
    carried: frozenset[int],
    warmup: int,
    measure: int,
    dispatch_width: int,
    ports: Mapping[str, int],
) -> float:
    """``schedule_ops`` over ``unroll(body, warmup + measure)`` in one pass.

    Equal, bit for bit, to ``(long - short) / measure`` with ``short`` and
    ``long`` the ``total_cycles`` of scheduling ``warmup`` and
    ``warmup + measure`` unrolled copies (floored at 0.05).  Scheduling
    is a forward greedy pass, so the short schedule is a prefix of the
    long one: its length is the running finish at the ``warmup`` copy
    mark.  No op objects are built — renamed registers become distances
    back to the producing op (:func:`_producer_offsets`) — and each
    port's units are kept as a min-heap of next-free cycles, which holds
    the same multiset of free times as ``schedule_ops``' pick-the-first-
    free-unit list.
    """
    n = len(body)
    offsets = _producer_offsets(body, carried)
    width = max(1, dispatch_width)
    units_by_port = {port: [0.0] * max(1, count) for port, count in ports.items()}
    units_of = [units_by_port.setdefault(op.port, [0.0]) for op in body]
    occupancy = [
        lat if op.opcode in UNPIPELINED else 1.0 for op, lat in zip(body, lats)
    ]
    ready = [0.0] * (n * (warmup + measure))
    finish = short = 0.0
    g = 0  # position in the unrolled sequence
    for copy in range(warmup + measure):
        if copy == warmup:
            short = finish
        srcs_back = offsets[min(copy, 2)]
        for i in range(n):
            earliest = g // width  # in-order dispatch cycle
            for back in srcs_back[i]:
                if ready[g - back] > earliest:
                    earliest = ready[g - back]
            units = units_of[i]
            issue = earliest if earliest > units[0] else units[0]
            heapreplace(units, issue + occupancy[i])
            done = ready[g] = issue + lats[i]
            if done > finish:
                finish = done
            g += 1
    return max((max(finish, 1.0) - max(short, 1.0)) / measure, 0.05)


def _producer_offsets(
    body: Sequence[MachineOp], carried: frozenset[int]
) -> tuple[list[tuple[int, ...]], ...]:
    """Per body op, how far back in the unrolled sequence each source's
    producer sits — for copy 0, copy 1 and copies 2 onwards.

    This is :func:`unroll`'s renaming resolved ahead of time.  A source
    written earlier in the same copy reads that (last) write.  Otherwise
    a carried register reads the previous copy's last write from copy 1
    on.  An uncarried register the body writes only later maps, in copy
    ``c``, to the name copy ``c - 1`` gave its write when ``c - 1 >= 1``,
    so it reads the previous copy from copy 2 on.  Everything else reads
    a register no copy writes: ready at cycle 0, so it has no producer.
    """
    n = len(body)
    last_writer = {op.dest: i for i, op in enumerate(body) if op.dest >= 0}
    written: dict[int, int] = {}  # reg -> last writer so far in this copy
    first: list[tuple[int, ...]] = []
    second: list[tuple[int, ...]] = []
    later: list[tuple[int, ...]] = []
    for i, op in enumerate(body):
        local, from_copy1, from_copy2 = set(), set(), set()
        for s in op.srcs:
            if s in written:
                local.add(i - written[s])
            elif s in last_writer:
                back = n + i - last_writer[s]
                (from_copy1 if s in carried else from_copy2).add(back)
        first.append(tuple(local))
        second.append(tuple(local | from_copy1))
        later.append(tuple(local | from_copy1 | from_copy2))
        if op.dest >= 0:
            written[op.dest] = i
    return first, second, later
