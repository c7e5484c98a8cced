"""A tiny synchronous pub/sub bus used for cross-component observability.

HDFS and MapReduce components publish structured events (block written,
task launched, daemon crashed, ...).  Tests and the classroom simulator
subscribe to observe behaviour without reaching into private state —
the software analogue of the paper's insistence that students *observe*
system behaviour through the web UI and job reports.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Event:
    """A structured occurrence inside the simulated stack."""

    topic: str
    time: float
    data: dict[str, Any] = field(default_factory=dict)


Listener = Callable[[Event], None]


class EventBus:
    """Synchronous topic-based publish/subscribe.

    Topics are dot-separated; a subscription to a prefix receives all
    events under it (subscribing to ``"hdfs"`` sees ``"hdfs.block.written"``).
    """

    def __init__(self) -> None:
        self._listeners: dict[str, list[Listener]] = defaultdict(list)
        self._history: list[Event] = []
        self.record_history = False

    def subscribe(self, topic: str, listener: Listener) -> Callable[[], None]:
        """Register a listener; returns an unsubscribe callable."""
        self._listeners[topic].append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners[topic].remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, topic: str, time: float, **data: Any) -> Event:
        event = Event(topic=topic, time=time, data=data)
        if self.record_history:
            self._history.append(event)
        # Exact-topic listeners plus every dot-prefix listener.
        parts = topic.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            for listener in list(self._listeners.get(prefix, ())):
                listener(event)
        for listener in list(self._listeners.get("*", ())):
            listener(event)
        return event

    def history(self, topic_prefix: str | None = None) -> list[Event]:
        """Recorded events (requires ``record_history = True``)."""
        if topic_prefix is None:
            return list(self._history)
        return [
            e
            for e in self._history
            if e.topic == topic_prefix or e.topic.startswith(topic_prefix + ".")
        ]
