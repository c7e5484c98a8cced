"""A tiny synchronous pub/sub bus used for cross-component observability.

HDFS and MapReduce components publish structured events (block written,
task launched, daemon crashed, ...).  Tests and the classroom simulator
subscribe to observe behaviour without reaching into private state —
the software analogue of the paper's insistence that students *observe*
system behaviour through the web UI and job reports.

A topic nobody hears costs one lookup: the bus remembers, per topic,
whether any listener would receive it, so an unheard publish with
history off builds no :class:`Event` and walks no prefixes.  That is
the prerequisite for carrying per-attempt spans on the bus (ROADMAP
item 3) without taxing runs that do not watch them.
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
        #: topic -> whether an exact, dot-prefix or ``"*"`` listener
        #: exists; emptied by every subscribe and unsubscribe.
        self._heard: dict[str, bool] = {}

    def subscribe(self, topic: str, listener: Listener) -> Callable[[], None]:
        """Register a listener; returns an unsubscribe callable."""
        self._listeners[topic].append(listener)
        self._heard.clear()

        def unsubscribe() -> None:
            self._heard.clear()
            try:
                self._listeners[topic].remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _is_heard(self, topic: str) -> bool:
        if self._listeners.get("*"):
            return True
        parts = topic.split(".")
        return any(
            self._listeners.get(".".join(parts[:i]))
            for i in range(1, len(parts) + 1)
        )

    def publish(self, topic: str, time: float, **data: Any) -> None:
        heard = self._heard.get(topic)
        if heard is None:
            heard = self._heard[topic] = self._is_heard(topic)
        if not heard and not self.record_history:
            return
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

    def history(self, topic_prefix: str | None = None) -> list[Event]:
        """Recorded events (requires ``record_history = True``)."""
        if topic_prefix is None:
            return list(self._history)
        return [
            e
            for e in self._history
            if e.topic == topic_prefix or e.topic.startswith(topic_prefix + ".")
        ]
