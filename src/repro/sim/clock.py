"""The simulated clock.

A thin mutable holder so that every component can share one notion of
"now" without holding a reference to the whole simulation engine.
Only the engine advances it (:meth:`SimClock._advance_to`); everyone
else reads ``now``, a plain slot, so a read is one attribute load.
"""

from __future__ import annotations


class SimClock:
    """Simulated time in seconds since simulation start."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def _advance_to(self, t: float) -> None:
        """Engine-internal: move time forward (never backward)."""
        if t < self.now:
            raise ValueError(f"clock cannot move backward: {t} < {self.now}")
        self.now = t
