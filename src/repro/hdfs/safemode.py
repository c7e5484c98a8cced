"""NameNode safe mode.

On startup (and after a restart) the NameNode refuses namespace
mutations until a configured fraction of its known blocks have been
reported by DataNodes.  This is the mechanism behind the paper's
war story: after the dedicated teaching cluster was restarted "it
typically took at least fifteen minutes for all the Data Nodes to check
for data integrity and report back to the Name Node" — i.e., for safe
mode to clear.
"""

from __future__ import annotations

from repro.util.errors import SafeModeException


class SafeMode:
    """Tracks block-report progress and the manual override."""

    def __init__(self, threshold: float = 0.999, extension: float = 5.0):
        """``threshold`` is dfs.safemode.threshold.pct, the fraction of
        blocks that must be reported before safe mode can end;
        ``extension`` (dfs.safemode.extension) the seconds the NameNode
        lingers after it is met."""
        self.threshold = threshold
        self.extension = extension
        self.active = True
        self.manual = False  # entered via dfsadmin -safemode enter
        self.blocks_total = 0
        self.blocks_safe = 0
        self._extension_deadline: float | None = None

    # ------------------------------------------------------------------
    def set_block_totals(self, total: int, safe: int) -> None:
        self.blocks_total = total
        self.blocks_safe = safe

    @property
    def ratio(self) -> float:
        if self.blocks_total == 0:
            return 1.0
        return self.blocks_safe / self.blocks_total

    def threshold_met(self) -> bool:
        return self.ratio >= self.threshold

    # ------------------------------------------------------------------
    def check(self, operation: str) -> None:
        """Raise if a mutating operation arrives while in safe mode."""
        if self.active:
            raise SafeModeException(
                f"cannot {operation}: NameNode is in safe mode "
                f"({self.blocks_safe}/{self.blocks_total} blocks reported, "
                f"threshold {self.threshold:.3f})"
            )

    def maybe_schedule_exit(self, now: float) -> float | None:
        """If the threshold is newly met, return the exit time (now +
        extension) for the NameNode to schedule; else None."""
        if not self.active or self.manual:
            return None
        if self.threshold_met() and self._extension_deadline is None:
            self._extension_deadline = now + self.extension
            return self._extension_deadline
        return None

    def try_exit(self, now: float) -> bool:
        """Attempt the scheduled exit; re-entry of the danger zone aborts."""
        if self.manual or not self.active:
            return not self.active
        if self.threshold_met() and self._extension_deadline is not None:
            if now >= self._extension_deadline:
                self.active = False
                return True
        self._extension_deadline = None
        return False

    # -- manual control (dfsadmin) --------------------------------------
    def enter_manual(self) -> None:
        self.active = True
        self.manual = True
        self._extension_deadline = None

    def leave_manual(self) -> None:
        self.active = False
        self.manual = False
        self._extension_deadline = None

    def describe(self) -> str:
        state = "ON" if self.active else "OFF"
        return (
            f"Safe mode is {state}. "
            f"{self.blocks_safe} of {self.blocks_total} blocks reported "
            f"({self.ratio:.1%}, threshold {self.threshold:.1%})."
        )
