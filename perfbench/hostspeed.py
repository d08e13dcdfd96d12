"""Host-speed probe: how fast this host runs fixed Python work right now.

On a shared host, other tenants slow every process for seconds to
minutes at a time, by roughly the same factor for the program and for
the work timed here, which mixes interpreter-bound dictionary and
arithmetic traffic with a pointer chase through a megabyte of arrays
(cache misses).  The benchmark times it after every step of a
pass and rescales wall times to the nominal speed.

Imports nothing from the program, so a fresh interpreter can probe its
own speed before and after importing it.
"""

from __future__ import annotations

import random
from array import array
from time import perf_counter

__all__ = ["NOMINAL_CALIBRATION_S", "calibrate"]

#: size of the probe, and its time on an unloaded host: wall times are
#: reported rescaled to that speed
CALIBRATION_ITERATIONS = 25_000
CALIBRATION_CHAIN = 1 << 16
NOMINAL_CALIBRATION_S = 0.007


#: the chase's successor table and payload: flat arrays, so the probe
#: adds no objects for the garbage collector to scan during the program
_NEXT = array("l")
_VALUE = array("d")


def calibrate() -> float:
    """Seconds the fixed probe work takes right now (cache warmed first)."""
    if not _NEXT:
        order = list(range(CALIBRATION_CHAIN))
        random.Random(0).shuffle(order)
        successor = [0] * CALIBRATION_CHAIN
        for a, b in zip(order, order[1:] + order[:1]):
            successor[a] = b
        _NEXT.extend(successor)
        _VALUE.extend(float(i) for i in range(CALIBRATION_CHAIN))
    _work()  # bring the chain back into cache after the step
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def _work() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i / (key + 1.0)
    j = 0
    for _ in range(CALIBRATION_ITERATIONS):
        acc += _VALUE[j]
        table[j & 4095] = acc
        j = _NEXT[j]
    return acc
