"""The simulated clock.

A thin mutable holder so that every component can share one notion of
"now" without holding a reference to the whole simulation engine.
Only the engine advances it.
"""

from __future__ import annotations


class SimClock:
    """Simulated time in seconds since simulation start."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def _advance_to(self, t: float) -> None:
        """Engine-internal: move time forward (never backward)."""
        if t < self._now:
            raise ValueError(f"clock cannot move backward: {t} < {self._now}")
        self._now = t
