"""Event bus semantics: prefixes, wildcard, history, unsubscribe."""

from repro.util.events import Event, EventBus


class TestEventBus:
    def test_exact_topic_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a.b", seen.append)
        bus.publish("a.b", 1.0, value=3)
        assert len(seen) == 1
        assert seen[0].topic == "a.b"
        assert seen[0].data["value"] == 3

    def test_prefix_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe("hdfs", seen.append)
        bus.publish("hdfs.block.written", 0.0)
        bus.publish("mr.task", 0.0)
        assert [e.topic for e in seen] == ["hdfs.block.written"]

    def test_prefix_is_segment_aligned(self):
        bus = EventBus()
        seen = []
        bus.subscribe("hdfs", seen.append)
        bus.publish("hdfsx.block", 0.0)
        assert seen == []

    def test_wildcard(self):
        bus = EventBus()
        seen = []
        bus.subscribe("*", seen.append)
        bus.publish("x", 0.0)
        bus.publish("y.z", 0.0)
        assert len(seen) == 2

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsub = bus.subscribe("t", seen.append)
        bus.publish("t", 0.0)
        unsub()
        bus.publish("t", 1.0)
        assert len(seen) == 1

    def test_unsubscribe_twice_is_noop(self):
        bus = EventBus()
        unsub = bus.subscribe("t", lambda e: None)
        unsub()
        unsub()  # must not raise

    def test_history_disabled_by_default(self):
        bus = EventBus()
        bus.publish("t", 0.0)
        assert bus.history() == []

    def test_history_with_prefix_filter(self):
        bus = EventBus()
        bus.record_history = True
        bus.publish("a.b", 0.0)
        bus.publish("a", 1.0)
        bus.publish("c", 2.0)
        assert len(bus.history()) == 3
        assert len(bus.history("a")) == 2

    def test_event_time_carried(self):
        bus = EventBus()
        event = bus.publish("t", 42.5)
        assert isinstance(event, Event)
        assert event.time == 42.5

    def test_listener_added_during_publish_not_called_for_same_event(self):
        bus = EventBus()
        calls = []

        def adder(event):
            bus.subscribe("t", lambda e: calls.append("late"))

        bus.subscribe("t", adder)
        bus.publish("t", 0.0)
        # The late listener sees only future events.
        assert calls == []
        bus.publish("t", 1.0)
        assert calls == ["late"]
