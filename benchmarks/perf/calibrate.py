"""Host-speed calibration: what lets a timing be compared across runs.

The hosts this benchmark runs on are shared virtual machines whose
speed drifts by a factor of up to two over minutes — the same
repetition of ``wc_serial`` took 1.25 s and, a minute later, 3.4 s, with
no steal time visible to the guest (README, *Steadiness*).  No statistic
over the repetitions of one run survives that; a reference does.

:func:`kernel` times one fixed piece of interpreter work — integer
arithmetic, string and container allocation, dictionary inserts, a keyed
sort: what the reproduction's own code is made of.  The harness runs it
immediately before and after everything it times and divides the
measured seconds by :func:`slowdown` of those two readings.  Every
timing metric is therefore in **reference-host seconds**: the time the
work would have taken on a host where the kernel takes
:data:`REFERENCE_S`.  The raw seconds are printed and stored beside it.

The kernel is part of the benchmark and is never changed with the code
it measures, so a change to the reproduction cannot move it.
"""

from __future__ import annotations

import gc
import time
from typing import Callable

#: The kernel's time on this class of host in a quiet spell (median of
#: 500 readings: 39.6 ms).  It only fixes the scale: with it,
#: reference-host seconds read like the seconds of a quiet run here.
REFERENCE_S = 0.040

_ARITHMETIC_STEPS = 300_000
#: Small tables, several times over: the kernel runs while the
#: workload's data is live, and must not add to its peak memory.
_TABLES = 8
_TABLE_ENTRIES = 5_000

_clock = time.perf_counter


def kernel() -> float:
    """Seconds this host takes for the fixed calibration work, now.

    The garbage collector is off meanwhile: a collection the kernel's
    allocations trigger costs in proportion to the caller's live heap,
    and the kernel must not depend on the program it calibrates for.
    (It builds no cycles; reference counting frees everything.)
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = _clock()
        total = 0
        for i in range(_ARITHMETIC_STEPS):
            total += i * i % 7
        for _ in range(_TABLES):
            table = {}
            for i in range(_TABLE_ENTRIES):
                table[str(i)] = [i, (i, str(i))]
            sorted(table.items(), key=lambda item: item[1][0] * 7919 % 10007)
        return _clock() - start
    finally:
        if collecting:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """How many times slower than the reference host this host ran
    between two :func:`kernel` readings."""
    return (before + after) / 2.0 / REFERENCE_S


def reference_seconds(work: Callable[[], object]) -> float:
    """Run ``work``; what it took, in reference-host seconds."""
    before = kernel()
    start = _clock()
    work()
    measured = _clock() - start
    return measured / slowdown(before, kernel())
