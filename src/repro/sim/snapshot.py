"""Bit-identical simulation checkpoints.

``Simulation.snapshot(*roots)`` captures the full simulation graph —
event queue, clock, RNG streams, timer wheels, and every component
reachable from the given roots — as one deep copy sharing a single
memo, so cross-references stay consistent.  ``SimSnapshot.restore()``
re-materialises an independent copy; running it produces *exactly* the
trace the original would have produced, event for event.

Two things make this non-trivial:

1.  ``copy.deepcopy`` treats function objects as atomic.  The engine's
    queue is full of closures (wheel subscribers, classroom pollers,
    retry continuations) whose cells capture mutable state; sharing the
    function between original and copy would let the restored run
    mutate the original's state.  ``_copy_function`` rebuilds closures
    with deep-copied cells, registering the copy in the memo *before*
    filling cells so self-referential closures terminate.

2.  Work joiners (the execution backend's process pool) hold OS
    resources that cannot be copied.  They are pre-seeded into the memo
    so both runs share them by reference — safe because a snapshot is
    refused while any joiner has work in flight, and a backend keeps no
    per-job state (a job's placement is copied with its ``RunningJob``).
"""

from __future__ import annotations

import copy
import types
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class SnapshotError(RuntimeError):
    """Raised when the simulation cannot be checkpointed right now."""


def _copy_function(fn: types.FunctionType, memo: dict) -> types.FunctionType:
    """Deep-copy a function, including its closure cells.

    Functions without closures carry no per-instance mutable state we
    care about, so they are shared (and memoised as themselves).
    """
    if fn.__closure__ is None:
        memo[id(fn)] = fn
        return fn
    new_fn = types.FunctionType(
        fn.__code__,
        fn.__globals__,
        fn.__name__,
        fn.__defaults__,
        tuple(types.CellType() for _ in fn.__closure__),
    )
    # Register before filling cells: a closure over itself (or over
    # something that reaches it) must resolve to the copy, not recurse.
    memo[id(fn)] = new_fn
    if fn.__defaults__ is not None:
        new_fn.__defaults__ = copy.deepcopy(fn.__defaults__, memo)
    if fn.__kwdefaults__ is not None:
        new_fn.__kwdefaults__ = copy.deepcopy(fn.__kwdefaults__, memo)
    if fn.__dict__:
        new_fn.__dict__.update(copy.deepcopy(fn.__dict__, memo))
    assert new_fn.__closure__ is not None
    for new_cell, old_cell in zip(new_fn.__closure__, fn.__closure__):
        try:
            contents = old_cell.cell_contents
        except ValueError:  # genuinely empty cell — leave the copy empty
            continue
        new_cell.cell_contents = copy.deepcopy(contents, memo)
    return new_fn


def _graph_copy(obj: Any, shared: tuple[Any, ...]) -> Any:
    """``copy.deepcopy`` with closure-copying functions and by-reference
    sharing of the ``shared`` objects (work-joiner backends)."""
    memo: dict = {id(s): s for s in shared}
    # Keep the shared originals alive for the duration of the copy so
    # their ids cannot be recycled (deepcopy's own keep-alive slot).
    memo[id(memo)] = list(shared)
    dispatch = copy._deepcopy_dispatch  # type: ignore[attr-defined]
    previous = dispatch.get(types.FunctionType)
    dispatch[types.FunctionType] = _copy_function
    try:
        return copy.deepcopy(obj, memo)
    finally:
        if previous is None:
            del dispatch[types.FunctionType]
        else:  # pragma: no cover - nested snapshot, not reachable today
            dispatch[types.FunctionType] = previous


class SimSnapshot:
    """A restorable checkpoint of a simulation and chosen root objects.

    Restoring is non-destructive and repeatable: each ``restore()``
    call re-copies the frozen payload, so one snapshot can seed many
    independent continuations (e.g. replay verification).
    """

    def __init__(self, sim: "Simulation", roots: tuple[Any, ...]):
        for joiner in sim._work_joiners:
            if joiner.pending_since() is not None:
                raise SnapshotError(
                    "cannot snapshot with work in flight; run to a "
                    "barrier (join) first"
                )
        self._shared = tuple(sim._work_joiners)
        self._payload = _graph_copy((sim, roots), self._shared)

    def restore(self) -> tuple["Simulation", tuple[Any, ...]]:
        """Materialise an independent (sim, roots) pair from the
        checkpoint.  Work-joiner backends are shared by reference."""
        sim, roots = _graph_copy(self._payload, self._shared)
        return sim, roots
