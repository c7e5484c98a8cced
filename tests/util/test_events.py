"""Event bus semantics: prefixes, wildcard, history, unsubscribe."""

import pytest

from repro.util import events
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
        seen = []
        bus.subscribe("t", seen.append)
        bus.publish("t", 42.5)
        [event] = seen
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


class TestHeardCache:
    """The per-topic "does anyone hear this" cache is emptied by every
    subscribe and unsubscribe, so it never hides a listener and never
    makes an unheard topic build an event."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every Event the bus constructs."""
        made = []

        def counting_event(**fields):
            event = Event(**fields)
            made.append(event)
            return event

        monkeypatch.setattr(events, "Event", counting_event)
        return made

    def test_unheard_publish_builds_nothing(self, built):
        bus = EventBus()
        bus.subscribe("hdfs", lambda e: None)
        bus.publish("mr.task.completed", 1.0, task="t")
        bus.publish("hdfsx", 1.0)
        assert built == []

    @pytest.mark.parametrize("topic", ["a.b.c", "a.b", "a", "*"])
    def test_subscribe_after_a_cached_miss_is_heard(self, topic, built):
        bus = EventBus()
        seen = []
        bus.publish("a.b.c", 0.0)
        bus.subscribe(topic, seen.append)
        bus.publish("a.b.c", 1.0)
        assert [e.time for e in seen] == [1.0]
        assert len(built) == 1

    @pytest.mark.parametrize("topic", ["a.b.c", "a", "*"])
    def test_unsubscribe_makes_a_heard_topic_unheard(self, topic, built):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(topic, seen.append)
        bus.publish("a.b.c", 0.0)
        unsubscribe()
        bus.publish("a.b.c", 1.0)
        assert [e.time for e in seen] == [0.0]
        assert len(built) == 1

    def test_one_of_two_listeners_unsubscribed_is_still_heard(self):
        bus = EventBus()
        first, second = [], []
        unsubscribe = bus.subscribe("a", first.append)
        bus.subscribe("a.b", second.append)
        bus.publish("a.b", 0.0)
        unsubscribe()
        bus.publish("a.b", 1.0)
        assert [e.time for e in first] == [0.0]
        assert [e.time for e in second] == [0.0, 1.0]

    def test_subscribe_inside_a_listener_hears_the_next_event(self):
        bus = EventBus()
        late = []
        bus.publish("x.y", 0.0)  # cached as unheard

        def subscriber(event):
            bus.subscribe("x", late.append)

        bus.subscribe("setup", subscriber)
        bus.publish("setup", 0.0)
        bus.publish("x.y", 1.0)
        assert [e.time for e in late] == [1.0]

    def test_unheard_topics_still_reach_history(self, built):
        bus = EventBus()
        bus.record_history = True
        bus.publish("nobody.listens", 2.0, n=1)
        assert [(e.topic, e.time, e.data) for e in bus.history()] == [
            ("nobody.listens", 2.0, {"n": 1})
        ]
