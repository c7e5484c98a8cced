"""Reference-host seconds: the arithmetic, and the kernel's manners."""

from __future__ import annotations

import gc

import pytest

from benchmarks.perf import calibrate, harness
from benchmarks.perf.calibrate import REFERENCE_S, kernel, reference_seconds, slowdown
from benchmarks.perf.workloads import Outcome, Workload


def test_slowdown_is_the_mean_reading_over_the_reference():
    assert slowdown(REFERENCE_S, REFERENCE_S) == 1.0
    assert slowdown(REFERENCE_S, 3 * REFERENCE_S) == 2.0


def test_kernel_takes_time_and_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert kernel() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_reference_seconds_divides_by_the_host_slowdown(monkeypatch):
    ticks = iter([10.0, 14.0])
    monkeypatch.setattr(calibrate, "_clock", lambda: next(ticks))
    monkeypatch.setattr(calibrate, "kernel", lambda: 2 * REFERENCE_S)
    ran = []
    assert reference_seconds(lambda: ran.append(1)) == pytest.approx(2.0)
    assert ran == [1]


class _Sleeper(Workload):
    name = "sleeper"

    def setup(self):
        return None

    def body(self, ctx, span):
        return None

    def check(self, ctx, raw):
        return Outcome(work=1.0, sim_s=0.0, sim_events=0, attempted=1, failed=0)


def test_a_repetition_on_a_slow_host_reads_as_on_the_reference(monkeypatch):
    """The host runs 4x slow around the set-up and 2x slow around the
    body: measured seconds come back divided by exactly that."""
    readings = iter([4 * REFERENCE_S, 4 * REFERENCE_S, 0.0])
    monkeypatch.setattr(harness, "kernel", lambda: next(readings))
    rep = harness._repeat_once(_Sleeper(seed=1))
    assert rep.setup_slowdown == 4.0 and rep.body_slowdown == 2.0
    assert rep.wall_s == pytest.approx(rep.raw_wall_s / 2.0)
    assert rep.outcome.failed == 0
