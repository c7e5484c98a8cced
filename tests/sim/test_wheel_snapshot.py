"""Timer wheel, O(1) pending census, and snapshot/restore."""

import pytest

from repro.sim.engine import Simulation
from repro.sim.snapshot import SnapshotError


class TestTimerWheel:
    def test_many_subscribers_one_event_per_tick(self):
        sim = Simulation()
        fired = []
        wheel = sim.wheel(5.0)
        for i in range(100):
            wheel.subscribe(fired.append, i)
        # One wheel event in the queue, not 100 heartbeat chains.
        assert sim.pending() == 1
        sim.run_until(5.0)
        assert fired == list(range(100))
        assert sim.pending() == 1  # re-armed for the next tick

    def test_wheel_cached_per_interval(self):
        sim = Simulation()
        assert sim.wheel(3.0) is sim.wheel(3.0)
        assert sim.wheel(3.0) is not sim.wheel(5.0)

    def test_first_fire_strictly_after_join(self):
        sim = Simulation()
        fired = []
        sim.wheel(10.0).subscribe(lambda: fired.append(sim.now))
        sim.run_until(25.0)
        assert fired == [10.0, 20.0]
        # Joining exactly on a tick boundary must not fire at that tick.
        late = []
        sim.schedule_at(30.0, lambda: sim.wheel(10.0).subscribe(
            lambda: late.append(sim.now)
        ))
        sim.run_until(50.0)
        assert late == [40.0, 50.0]

    def test_cancel_mid_run(self):
        sim = Simulation()
        fired = []
        cancel = sim.wheel(2.0).subscribe(lambda: fired.append(sim.now))
        sim.run_until(4.0)
        cancel()
        sim.run_until(10.0)
        assert fired == [2.0, 4.0]

    def test_cancel_from_inside_callback(self):
        sim = Simulation()
        ticks = []
        holder = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                holder["cancel"]()

        holder["cancel"] = sim.wheel(1.0).subscribe(tick)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.pending() == 0

    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_non_positive_interval_rejected(self, interval):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.wheel(interval)

    def test_subscribers_fire_in_subscription_order(self):
        sim = Simulation()
        order = []
        wheel = sim.wheel(1.0)
        wheel.subscribe(order.append, "a")
        wheel.subscribe(order.append, "b")
        wheel.subscribe(order.append, "c")
        sim.run_until(1.0)
        assert order == ["a", "b", "c"]

    def test_wheel_idles_without_subscribers(self):
        sim = Simulation()
        wheel = sim.wheel(1.0)
        cancel = wheel.subscribe(lambda: None)
        cancel()
        sim.run_until(5.0)
        # The armed tick fires once, finds nobody, and does not re-arm.
        assert sim.pending() == 0


class TestPendingCensus:
    def test_pending_exact_under_cancellation(self):
        sim = Simulation()
        events = [sim.schedule(i + 1.0, lambda: None) for i in range(50)]
        assert sim.pending() == 50
        for event in events[::2]:
            event.cancel()
        assert sim.pending() == 25
        # Double-cancel must not double-count.
        events[0].cancel()
        assert sim.pending() == 25

    def test_compaction_purges_cancelled_events(self):
        sim = Simulation()
        events = [sim.schedule(i + 1.0, lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # Census is exact, and compaction fired once rot dominated the
        # heap (sub-threshold leftovers may legitimately remain).
        assert sim.pending() == 50
        assert len(sim._queue) <= 100

    def test_cancelled_events_do_not_fire_after_compaction(self):
        sim = Simulation()
        fired = []
        keep = [sim.schedule(5.0, fired.append, i) for i in range(10)]
        drop = [sim.schedule(1.0, fired.append, 99) for _ in range(200)]
        for event in drop:
            event.cancel()
        sim.run_until(10.0)
        assert fired == list(range(10))
        assert sim.pending() == 0


class TestSnapshot:
    def _build(self):
        sim = Simulation()
        state = {"ticks": 0, "times": []}

        def tick():
            state["ticks"] += 1
            state["times"].append(sim.now)

        sim.wheel(2.0).subscribe(tick)
        return sim, state

    def test_restore_is_bit_identical(self):
        sim, state = self._build()
        sim.run_until(10.0)
        snapshot = sim.snapshot(state)
        sim.run_until(20.0)
        outcome = (sim.now, sim.events_processed, dict(state))

        rsim, (rstate,) = snapshot.restore()
        rsim.run_until(20.0)
        assert (rsim.now, rsim.events_processed, dict(rstate)) == outcome

    def test_restore_does_not_touch_original(self):
        sim, state = self._build()
        sim.run_until(4.0)
        snapshot = sim.snapshot(state)
        rsim, (rstate,) = snapshot.restore()
        rsim.run_until(20.0)
        assert state["ticks"] == 2  # original unchanged
        assert rstate["ticks"] == 10

    def test_snapshot_is_reusable(self):
        sim, state = self._build()
        sim.run_until(6.0)
        snapshot = sim.snapshot(state)
        first_sim, (first,) = snapshot.restore()
        first_sim.run_until(20.0)
        second_sim, (second,) = snapshot.restore()
        second_sim.run_until(20.0)
        assert dict(first) == dict(second)

    def test_rng_state_travels_with_snapshot(self):
        import random

        sim = Simulation()
        rng = random.Random(7)
        draws = []
        sim.wheel(1.0).subscribe(lambda: draws.append(rng.random()))
        sim.run_until(5.0)
        snapshot = sim.snapshot(rng, draws)
        sim.run_until(10.0)
        rsim, (rrng, rdraws) = snapshot.restore()
        rsim.run_until(10.0)
        assert rdraws == draws

    def test_refuses_in_flight_work(self):
        class BusyJoiner:
            def pending_since(self):
                return 1.0

            def join_all(self):  # pragma: no cover - never called
                pass

        sim = Simulation()
        sim.register_work_joiner(BusyJoiner())
        with pytest.raises(SnapshotError):
            sim.snapshot()
