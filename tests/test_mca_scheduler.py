"""Unit tests for the MCA scoreboard scheduler."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import clear_caches, measure_suite, predict_suite
from repro.machines import POWER8, POWER9
from repro.mca import (
    OPCODE_PORT,
    MachineOp,
    schedule_ops,
    steady_state_cycles,
    unroll,
)
from repro.mca import lowering, scheduler
from repro.parallel import AnalysisCache


def op(opcode, dest=-1, srcs=()):
    return MachineOp(opcode, dest, tuple(srcs))


class TestScheduleOps:
    def test_empty_sequence(self):
        res = schedule_ops([], POWER9)
        assert res.total_cycles == 0.0
        assert res.ipc == 0.0

    def test_single_op_latency(self):
        res = schedule_ops([op("fadd", 0)], POWER9)
        assert res.total_cycles == POWER9.latency("fadd")

    def test_dependency_chain_serializes(self):
        # fadd chain of length 4: 4 * latency
        ops = [op("fadd", 0)]
        for i in range(1, 4):
            ops.append(op("fadd", i, (i - 1,)))
        res = schedule_ops(ops, POWER9)
        assert res.total_cycles == 4 * POWER9.latency("fadd")

    def test_independent_ops_overlap(self):
        ops = [op("fadd", i) for i in range(8)]
        res = schedule_ops(ops, POWER9)
        # 2 FP pipes: 8 ops need 4 issue slots, finish = 3 + latency
        assert res.total_cycles < 8 * POWER9.latency("fadd")

    def test_port_contention(self):
        # POWER9 has 2 LS units: 6 independent loads issue over 3 cycles
        ops = [op("load", i) for i in range(6)]
        res = schedule_ops(ops, POWER9)
        assert res.total_cycles == 2 + POWER9.latency("load")

    def test_unpipelined_divides_serialize_on_unit(self):
        # 4 independent fdivs on 2 FP pipes, each occupying latency cycles
        ops = [op("fdiv", i) for i in range(4)]
        res = schedule_ops(ops, POWER9)
        lat = POWER9.latency("fdiv")
        assert res.total_cycles >= 2 * lat  # two rounds per pipe

    def test_dispatch_width_limits_start(self):
        # 32 1-cycle iadds on 3 FX units, 8-wide dispatch
        ops = [op("iadd", i) for i in range(33)]
        res = schedule_ops(ops, POWER9)
        assert res.total_cycles >= 33 / 8  # dispatch-bound lower bound
        assert res.total_cycles >= 33 / 3  # port-bound lower bound

    def test_port_cycles_accounted(self):
        ops = [op("load", 0), op("fadd", 1, (0,)), op("store", -1, (1,))]
        res = schedule_ops(ops, POWER9)
        assert res.port_cycles["LS"] == 2.0
        assert res.port_cycles["FP"] == 1.0

    def test_pressure_in_unit_interval(self):
        ops = [op("fma", i) for i in range(16)]
        res = schedule_ops(ops, POWER9)
        for frac in res.pressure(POWER9).values():
            assert 0.0 <= frac <= 1.0

    def test_bottleneck_names_hot_port(self):
        ops = [op("load", i) for i in range(12)]
        res = schedule_ops(ops, POWER9)
        assert res.bottleneck(POWER9) == "LS"

    def test_pressure_of_zero_unit_port_uses_one_unit(self):
        # the scheduler runs max(1, count) units; pressure must agree
        cpu = dataclasses.replace(POWER9, ports={**POWER9.ports, "FP": 0})
        res = schedule_ops([op("fadd", 0)], cpu)
        assert res.pressure(cpu)["FP"] == 1.0 / res.total_cycles
        assert res.bottleneck(cpu) == "FP"

    def test_latency_override(self):
        ops = [op("load", 0), op("fadd", 1, (0,))]
        base = schedule_ops(ops, POWER9).total_cycles
        slow = schedule_ops(
            ops, POWER9, latency_of=lambda o: 300.0 if o.opcode == "load" else 6.0
        ).total_cycles
        assert slow > base + 200


class TestUnroll:
    def test_copies_multiply_ops(self):
        body = [op("fadd", 0), op("fmul", 1, (0,))]
        assert len(unroll(body, 5)) == 10

    def test_carried_register_creates_chain(self):
        # acc = acc + x : carried on reg 0
        body = [op("fadd", 0, (0,))]
        chain = unroll(body, 8, frozenset({0}))
        res = schedule_ops(chain, POWER9)
        assert res.total_cycles == 8 * POWER9.latency("fadd")

    def test_uncarried_copies_overlap(self):
        body = [op("fadd", 0, (1,))]
        flat = unroll(body, 8)
        res = schedule_ops(flat, POWER9)
        assert res.total_cycles < 8 * POWER9.latency("fadd")

    def test_invalid_copy_count(self):
        with pytest.raises(ValueError):
            unroll([op("fadd", 0)], 0)


class TestSteadyState:
    def test_carried_chain_is_latency_bound(self):
        body = [op("fadd", 0, (0,))]
        cyc = steady_state_cycles(body, POWER9)
        assert cyc == pytest.approx(POWER9.latency("fadd"), rel=0.01)

    def test_independent_body_is_throughput_bound(self):
        # 2 independent fmas per iteration on 2 FP pipes -> ~1 cycle/iter
        body = [op("fma", 0), op("fma", 1)]
        cyc = steady_state_cycles(body, POWER9)
        assert cyc == pytest.approx(1.0, abs=0.3)

    def test_empty_body(self):
        assert steady_state_cycles([], POWER9) == 0.0

    def test_power9_vector_throughput_beats_power8(self):
        # POWER9 has 4 VSX pipes vs POWER8's 2
        body = [op("vfma", i) for i in range(8)]
        p8 = steady_state_cycles(body, POWER8)
        p9 = steady_state_cycles(body, POWER9)
        assert p9 < p8

    @given(n=st.integers(1, 12))
    def test_steady_state_scales_linearly_with_body_size(self, n):
        body = [op("fma", i) for i in range(n)]
        cyc = steady_state_cycles(body, POWER9)
        # 2 FP pipes: n ops take at least n/2 and at most n cycles + slack
        assert n / 2 - 0.6 <= cyc <= n + 1

    @pytest.mark.parametrize("arg", ["warmup", "measure"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_copy_counts_below_one_rejected(self, arg, value):
        for body in ([op("fadd", 0, (0,))], []):
            with pytest.raises(ValueError, match=arg):
                steady_state_cycles(body, POWER9, **{arg: value})


# ---------------------------------------------------------------------------
# Differential: the fused single-pass kernel against the two-schedule floor
# ---------------------------------------------------------------------------


def reference_steady_state(body, cpu, carried, warmup, measure, latency_of):
    """The definition: difference of two independent unrolled schedules."""
    short = schedule_ops(
        unroll(body, warmup, carried), cpu, latency_of=latency_of
    ).total_cycles
    long = schedule_ops(
        unroll(body, warmup + measure, carried), cpu, latency_of=latency_of
    ).total_cycles
    return max((long - short) / measure, 0.05)


def fused(body, cpu, carried, warmup, measure, latency_of):
    scheduler.clear_steady_state_memo()  # compute, never replay
    return steady_state_cycles(
        body,
        cpu,
        carried_regs=carried,
        warmup=warmup,
        measure=measure,
        latency_of=latency_of,
    )


_REGS = 6


@st.composite
def scoreboard_inputs(draw):
    # a small register file makes reads of registers written later in the
    # body, rewrites and loop-carried chains common
    n = draw(st.integers(1, 8))
    body = [
        MachineOp(
            draw(st.sampled_from(sorted(OPCODE_PORT))),
            draw(st.integers(-1, _REGS - 1)),
            tuple(draw(st.lists(st.integers(0, _REGS - 1), max_size=3))),
        )
        for _ in range(n)
    ]
    carried = frozenset(draw(st.sets(st.integers(0, _REGS - 1))))
    # drop some ports (the scheduler then runs one unit) and zero others
    ports = {
        port: count
        for port, count in POWER9.ports.items()
        if draw(st.booleans()) or port == "FP"
    }
    ports = {p: draw(st.sampled_from([c, 0, 1, 3])) for p, c in ports.items()}
    cpu = dataclasses.replace(
        POWER9, dispatch_width=draw(st.sampled_from([0, 1, 2, 3, 8])), ports=ports
    )
    override = draw(
        st.none()
        | st.dictionaries(
            st.sampled_from(sorted(OPCODE_PORT)),
            st.sampled_from([0.5, 1.25, 2.75, 7.0, 13.5, 41.3]),
        )
    )
    latency_of = (
        None
        if override is None
        else lambda o: override.get(o.opcode, float(cpu.latency(o.opcode)))
    )
    warmup = draw(st.integers(1, 5))
    measure = draw(st.integers(1, 8))
    return body, cpu, carried, warmup, measure, latency_of


class TestFusedKernelDifferential:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(args=scoreboard_inputs())
    def test_matches_two_schedule_reference(self, args):
        assert fused(*args) == reference_steady_state(*args)

    def test_every_suite_leaf_body_matches(self, monkeypatch):
        """Every leaf body the test-mode suite schedules, on POWER8 and
        POWER9, under the simulator's and the model's latency overrides
        and under none."""
        seen = []
        real = lowering.steady_state_cycles

        def record(body, cpu, *, carried_regs, latency_of=None):
            seen.append((list(body), cpu, carried_regs, latency_of))
            return real(body, cpu, carried_regs=carried_regs, latency_of=latency_of)

        monkeypatch.setattr(lowering, "steady_state_cycles", record)
        clear_caches()
        for platform in ("p9-v100", "p8-k80"):
            measure_suite(platform, "test")  # sim/cpu_sim.py override
            predict_suite(platform, "test")  # models/cpu_model.py override
        clear_caches()
        assert {cpu.name for _, cpu, _, _ in seen} == {"POWER8", "POWER9"}
        assert all(lat is not None for *_, lat in seen)

        checked = set()
        for body, cpu, carried, latency_of in seen:
            for lat in (latency_of, None):
                lats = tuple(
                    float(lat(o) if lat else cpu.latency(o.opcode)) for o in body
                )
                key = (tuple(body), cpu.name, carried, lats)
                if key in checked:
                    continue
                checked.add(key)
                args = (body, cpu, carried, 4, 16, lat)
                assert fused(*args) == reference_steady_state(*args), body
        assert len(checked) > 50


# ---------------------------------------------------------------------------
# The in-process memo behind the persistent analysis cache
# ---------------------------------------------------------------------------


_BODY = [
    MachineOp("load", 0, (), "load A[i]"),
    MachineOp("fma", 1, (0, 1), "acc"),
]


class TestSteadyStateMemo:
    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        clear_caches()
        yield
        clear_caches()

    @pytest.mark.parametrize("persistent", [True, False])
    def test_clear_caches_empties_memo(self, persistent):
        steady_state_cycles(_BODY, POWER9, carried_regs=frozenset({1}))
        assert len(scheduler._STEADY_STATE_MEMO) == 1
        clear_caches(persistent=persistent)
        assert scheduler._STEADY_STATE_MEMO == {}

    def test_memo_never_short_circuits_the_analysis_cache(self, tmp_path):
        expected = steady_state_cycles(_BODY, POWER9)  # memo now warm
        cold = AnalysisCache(str(tmp_path))
        with cold.activate():
            assert steady_state_cycles(_BODY, POWER9) == expected
            assert (cold.hits, cold.misses, cold.writes) == (0, 1, 1)
            assert steady_state_cycles(_BODY, POWER9) == expected
            assert (cold.hits, cold.misses) == (1, 1)
        warm = AnalysisCache(str(tmp_path))
        with warm.activate():
            assert steady_state_cycles(_BODY, POWER9) == expected
        assert (warm.hits, warm.misses) == (1, 0)

    def test_descriptors_differing_outside_the_scoreboard_share_an_entry(self):
        variant = dataclasses.replace(
            POWER9, name="POWER9-variant", frequency_ghz=2.0, l1_kib=64, cores=4
        )
        assert steady_state_cycles(_BODY, POWER9) == steady_state_cycles(
            _BODY, variant
        )
        assert len(scheduler._STEADY_STATE_MEMO) == 1

    def test_scoreboard_fields_are_part_of_the_key(self):
        steady_state_cycles(_BODY, POWER9)
        steady_state_cycles(
            _BODY, dataclasses.replace(POWER9, dispatch_width=1)
        )
        steady_state_cycles(
            _BODY, dataclasses.replace(POWER9, ports={**POWER9.ports, "LS": 1})
        )
        steady_state_cycles(
            _BODY, POWER9, latency_of=lambda o: 9.5 if o.is_memory else 6.0
        )
        steady_state_cycles(_BODY, POWER9, carried_regs=frozenset({1}))
        steady_state_cycles(_BODY, POWER9, warmup=2)
        steady_state_cycles(_BODY, POWER9, measure=8)
        assert len(scheduler._STEADY_STATE_MEMO) == 7
