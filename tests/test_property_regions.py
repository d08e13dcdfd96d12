"""Property tests over randomly generated regions.

A hypothesis strategy builds small random-but-valid kernels; every
generated region must validate, print/parse round-trip, survive all the
static analyses, and produce finite positive times in both simulators and
both models.  This is the fuzzing layer over the whole pipeline.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import ProgramAttributeDatabase
from repro.ipda import analyze_region
from repro.ir import (
    Region,
    parse_region,
    region_to_text,
    validate_region,
)
from repro.machines import PLATFORM_P9_V100, POWER9, TESLA_V100
from repro.models import predict_both
from repro.sim import simulate_cpu, simulate_gpu_kernel

_COUNTER = {"n": 0}


@st.composite
def regions(draw) -> Region:
    """A random small kernel: 1-2D band, optional inner loop, 1-3 accesses."""
    _COUNTER["n"] += 1
    r = Region(f"fuzz{_COUNTER['n']}")
    n = r.param("n")
    m = r.param("m")

    rank2 = draw(st.booleans())
    has_inner = draw(st.booleans())
    collapse = rank2 and draw(st.booleans())

    if rank2:
        A = r.array("A", (n, m))
        B = r.array("B", (n, m), output=True)
    else:
        A = r.array("A", (n,))
        B = r.array("B", (n,), output=True)
    c = r.scalar("c")

    stride_kind = draw(st.sampled_from(["unit", "row", "offset"]))

    def load(i, j=None):
        if not rank2:
            if stride_kind == "offset":
                return A[i + 1]
            return A[i]
        if stride_kind == "row":
            return A[j if j is not None else 0, i]  # transposed walk
        if stride_kind == "offset":
            return A[i, (j if j is not None else 0) + 1]
        return A[i, j if j is not None else 0]

    with r.parallel_loop("i", n - 2, start=0) as i:
        if collapse:
            with r.parallel_loop("j", m - 2) as j:
                r.store(B[i, j], load(i, j) * c + 1.0)
        elif rank2:
            if has_inner:
                acc = r.local("acc", 0.0)
                with r.loop("j", m - 2) as j:
                    r.assign(acc, acc + load(i, j) * c)
                r.store(B[i, 0], acc)
            else:
                r.store(B[i, 0], load(i, 1) + c)
        else:
            r.store(B[i], load(i) * c)
    return r


ENV = {"n": 64, "m": 64}


@given(region=regions())
@settings(max_examples=25, deadline=None)
def test_generated_regions_validate(region):
    validate_region(region)


@given(region=regions())
@settings(max_examples=25, deadline=None)
def test_generated_regions_roundtrip(region):
    text = region_to_text(region)
    parsed = parse_region(text)
    validate_region(parsed)
    assert region_to_text(parsed) == text


@given(region=regions())
@settings(max_examples=20, deadline=None)
def test_generated_regions_analyse(region):
    bound = analyze_region(region).bind(ENV)
    coal, uncoal = bound.counts()
    assert coal + uncoal == len(bound.accesses) >= 2


@given(region=regions())
@settings(max_examples=12, deadline=None)
def test_generated_regions_simulate_and_predict(region):
    db = ProgramAttributeDatabase()
    attrs = db.compile_region(region)
    cpu = simulate_cpu(attrs, POWER9, ENV)
    gpu = simulate_gpu_kernel(attrs, TESLA_V100, ENV)
    assert 0 < cpu.seconds < 10
    assert 0 < gpu.seconds < 10

    bound = attrs.bind(ENV)
    sel = predict_both(bound, PLATFORM_P9_V100)
    assert 0 < sel.cpu.seconds < 100
    assert 0 < sel.gpu.seconds < 100
    assert sel.predicted_speedup > 0
