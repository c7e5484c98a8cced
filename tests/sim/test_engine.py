"""Event engine: ordering, cancellation, recurring timers, run bounds."""

import random

import pytest

from repro.sim.engine import Simulation


class TestScheduling:
    def test_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == 5.0

    def test_fifo_within_same_time(self):
        sim = Simulation()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_schedule_at_absolute(self):
        sim = Simulation()
        sim.schedule(3.0, lambda: None)
        sim.run()
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert sim.now == 10.0

    def test_cannot_schedule_in_past(self):
        sim = Simulation()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulation()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = Simulation()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        handle.cancel()
        assert sim.pending() == 1


class TestRunUntil:
    def test_stops_at_time(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_with_empty_queue_sets_time(self):
        sim = Simulation()
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_run_for(self):
        sim = Simulation()
        sim.run_for(2.5)
        sim.run_for(2.5)
        assert sim.now == 5.0

    def test_event_exactly_at_boundary_fires(self):
        sim = Simulation()
        fired = []
        sim.schedule(3.0, fired.append, "edge")
        sim.run_until(3.0)
        assert fired == ["edge"]


class TestEvery:
    """Recurrence through the engine's periodic mechanism, the timer wheel."""

    def test_recurring_fires(self):
        sim = Simulation()
        ticks = []
        sim.wheel(1.0).subscribe(lambda: ticks.append(sim.now))
        sim.run_until(5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_cancel_stops_recurrence(self):
        sim = Simulation()
        ticks = []
        cancel = sim.wheel(1.0).subscribe(lambda: ticks.append(sim.now))
        sim.run_until(2.0)
        cancel()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]


class TestRunawayProtection:
    def test_run_raises_on_event_storm(self):
        sim = Simulation()

        def storm():
            sim.schedule(0.0, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(RuntimeError):
            sim.run(max_events=1000)

    def test_events_processed_counter(self):
        sim = Simulation()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestQueueOrder:
    """The heap orders ``(time, seq, event)`` entries: equal times fire
    in schedule order, and cancelled entries never fire, whether they
    are popped at the head or swept by a compaction."""

    def test_equal_times_fire_in_schedule_order_across_interleaving(self):
        sim = Simulation()
        fired = []
        for i in range(30):
            sim.schedule_at(float(i % 3), fired.append, i)
        sim.run()
        assert fired == sorted(range(30), key=lambda i: (i % 3, i))

    def test_cancelled_head_is_skipped_across_compact(self):
        sim = Simulation()
        fired = []
        handles = [sim.schedule_at(1.0, fired.append, i) for i in range(200)]
        for i in range(200, 210):
            sim.schedule_at(1.0, fired.append, i)
        for handle in handles[:150]:  # the head first, enough to compact
            handle.cancel()
        assert len(sim._queue) < 200  # a compaction ran
        assert sim.pending() == 60
        sim.run()
        assert fired == list(range(150, 210))

    def test_cancel_after_compact_still_skips_the_head(self):
        sim = Simulation()
        fired = []
        times = [float(t % 13) for t in range(130)]
        random.Random(5).shuffle(times)  # the heap list is not sorted
        handles = [sim.schedule_at(t, fired.append, i) for i, t in enumerate(times)]
        for handle in handles[1:100:2]:
            handle.cancel()
        sim._compact()
        live = [i for i in range(130) if not (i < 100 and i % 2 == 1)]
        head = min(live, key=lambda i: (times[i], i))
        handles[head].cancel()  # the head, after the sweep
        sim.run()
        live.remove(head)
        assert fired == sorted(live, key=lambda i: (times[i], i))
        assert sim.pending() == 0
