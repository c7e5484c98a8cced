"""Worklist dataflow over :mod:`repro.analysis.cfg` graphs.

:func:`solve_forward` is the generic monotone-framework engine.  A
client supplies a transfer function over whole blocks and a join; the
solver iterates to fixpoint.  Block order and join inputs are always
visited in deterministic (index) order, so analysis results — and
therefore lint output — are byte-identical run to run, which the
property suite asserts under varying ``PYTHONHASHSEED``.  Its one
client is the nondeterminism-taint pass in :mod:`repro.analysis.taint`.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.analysis.cfg import CFG, Block

State = TypeVar("State")


def solve_forward(
    cfg: CFG,
    transfer: Callable[[Block, State], State],
    join: Callable[[list[State]], State],
    initial: State,
    bottom: State,
    equal: Callable[[State, State], bool] = lambda a, b: a == b,
    max_iterations: int = 10_000,
) -> dict[int, tuple[State, State]]:
    """Run a forward analysis to fixpoint.

    Returns ``{block index: (state-in, state-out)}``.  ``initial`` seeds
    the entry block; ``bottom`` is the no-information state joined at
    blocks whose predecessors have not been visited yet.
    """
    ins: dict[int, State] = {cfg.entry.index: initial}
    outs: dict[int, State] = {}
    worklist = [block.index for block in cfg.reachable_blocks()]
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - safety valve
            break
        index = worklist.pop(0)
        block = cfg.blocks[index]
        if block.predecessors:
            preds = [
                outs[p] for p in sorted(block.predecessors) if p in outs
            ]
            state_in = join(preds) if preds else bottom
        else:
            state_in = ins.get(index, initial if index == cfg.entry.index else bottom)
        ins[index] = state_in
        state_out = transfer(block, state_in)
        if index in outs and equal(outs[index], state_out):
            continue
        outs[index] = state_out
        for succ in block.successors:
            if succ not in worklist:
                worklist.append(succ)
    return {
        index: (ins.get(index, bottom), outs.get(index, bottom))
        for index in sorted(set(ins) | set(outs))
    }
