"""Reference for the taint pass's statement walk: a basic-block CFG and a
worklist solver.

mrlint used to build a control-flow graph per function and solve the
taint environments over it to fixpoint; the taint pass now walks the
function's statements directly (``taint._FunctionAnalysis._walk``).
This module keeps the graph builder and the solver verbatim in
behaviour, so ``tests/properties/test_taint_walk_oracle.py`` can check
that the walk and the graph agree.  Both drive the product's own
``_statement`` (one statement, or one compound statement's header) and
``_join``, so the only thing compared is the control flow.

Graph shape, as it always was:

- blocks hold whole statements; a compound statement enters its block
  as its header, and an ``except`` clause heads its handler's block;
- any plain statement, ``return`` or ``raise`` in a ``try`` body adds an
  edge from its block to every handler of the innermost ``try``;
- ``break``/``continue``/``return``/``raise`` end their block; code
  after them lands in a block with no predecessors and is never
  analysed;
- ``finally`` is entered from every exit of the body, ``else`` and
  handlers, or, when no live exit reaches it, from the block the
  ``try`` began in.  This one rule is the walk's, not the old graph's
  (see ``build_cfg``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.taint import ModuleTaint, _FunctionAnalysis


@dataclass
class Block:
    index: int
    statements: list[ast.AST] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def add_successor(self, other: "Block") -> None:
        if other.index not in self.successors:
            self.successors.append(other.index)
        if self.index not in other.predecessors:
            other.predecessors.append(self.index)


class CFG:
    def __init__(self):
        self.blocks: list[Block] = []
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self) -> Block:
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        return block

    def reachable_blocks(self) -> list[Block]:
        """Blocks reachable from entry, in breadth-first order."""
        seen = {self.entry.index}
        order = [self.entry]
        frontier = [self.entry]
        while frontier:
            nxt: list[Block] = []
            for block in frontier:
                for succ in block.successors:
                    if succ not in seen:
                        seen.add(succ)
                        order.append(self.blocks[succ])
                        nxt.append(self.blocks[succ])
            frontier = nxt
        return order


class _Builder:
    def __init__(self, cfg: CFG):
        self.cfg = cfg
        #: (continue target, break target) of each enclosing loop.
        self.loops: list[tuple[Block, Block]] = []
        #: Handler-entry blocks of each enclosing try body.
        self.handlers: list[list[Block]] = []
        #: (first block, finally block, exits) of each try with finally.
        self.finals: list[tuple[Block, Block, list[Block]]] = []

    def build(self, body: list[ast.stmt]) -> None:
        tail = self._body(body, self.cfg.entry)
        if tail is not None:
            tail.add_successor(self.cfg.exit)

    def _body(self, body: list[ast.stmt], current: Block | None) -> Block | None:
        for stmt in body:
            if current is None:
                current = self.cfg.new_block()  # unreachable code
            current = self._statement(stmt, current)
        return current

    def _statement(self, stmt: ast.stmt, current: Block) -> Block | None:
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, current)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.statements.append(stmt)
            return self._body(stmt.body, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            current.statements.append(stmt)
            self._edge_to_handlers(current)
            current.add_successor(self.cfg.exit)
            return None
        if isinstance(stmt, ast.Break):
            current.statements.append(stmt)
            if self.loops:
                current.add_successor(self.loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            current.statements.append(stmt)
            if self.loops:
                current.add_successor(self.loops[-1][0])
            return None
        current.statements.append(stmt)
        self._edge_to_handlers(current)
        return current

    def _edge_to_handlers(self, block: Block) -> None:
        if self.handlers:
            for handler_block in self.handlers[-1]:
                block.add_successor(handler_block)

    def _if(self, stmt: ast.If, current: Block) -> Block | None:
        current.statements.append(stmt)
        then_block = self.cfg.new_block()
        current.add_successor(then_block)
        then_tail = self._body(stmt.body, then_block)
        if stmt.orelse:
            else_block = self.cfg.new_block()
            current.add_successor(else_block)
            else_tail = self._body(stmt.orelse, else_block)
        else:
            else_tail = current
        if then_tail is None and else_tail is None:
            return None
        join = self.cfg.new_block()
        if then_tail is not None:
            then_tail.add_successor(join)
        if else_tail is not None:
            else_tail.add_successor(join)
        return join

    def _loop(self, stmt, current: Block) -> Block:
        header = self.cfg.new_block()
        header.statements.append(stmt)
        current.add_successor(header)
        body_block = self.cfg.new_block()
        after = self.cfg.new_block()
        header.add_successor(body_block)
        header.add_successor(after)
        self.loops.append((header, after))
        body_tail = self._body(stmt.body, body_block)
        self.loops.pop()
        if body_tail is not None:
            body_tail.add_successor(header)
        if stmt.orelse:
            else_tail = self._body(stmt.orelse, after)
            if else_tail is not None and else_tail is not after:
                else_tail.add_successor(after)
        return after

    def _try(self, stmt: ast.Try, current: Block) -> Block | None:
        handler_blocks = [self.cfg.new_block() for _ in stmt.handlers]
        self.handlers.append(handler_blocks)
        body_tail = self._body(stmt.body, current)
        self.handlers.pop()
        tails: list[Block] = []
        if stmt.orelse and body_tail is not None:
            body_tail = self._body(stmt.orelse, body_tail)
        if body_tail is not None:
            tails.append(body_tail)
        for handler, block in zip(stmt.handlers, handler_blocks):
            block.statements.append(handler)
            handler_tail = self._body(handler.body, block)
            if handler_tail is not None:
                tails.append(handler_tail)
        if stmt.finalbody:
            final_block = self.cfg.new_block()
            for tail in tails:
                tail.add_successor(final_block)
            self.finals.append((current, final_block, tails))
            return self._body(stmt.finalbody, final_block)
        if not tails:
            return None
        join = self.cfg.new_block()
        for tail in tails:
            tail.add_successor(join)
        return join


def build_cfg(body: list[ast.stmt]) -> CFG:
    cfg = CFG()
    builder = _Builder(cfg)
    builder.build(body)
    # A finally no live exit reaches runs from the try's first block.
    # (The old graph added that edge only when the try had no exit at
    # all, so dead code after a jump, or a handler nothing raised into,
    # left the finally unanalysed.)
    added = True
    while added:
        added = False
        live = {block.index for block in cfg.reachable_blocks()}
        for first, final, tails in builder.finals:
            if first.index not in live or final.index in first.successors:
                continue
            if not any(tail.index in live for tail in tails):
                first.add_successor(final)
                added = True
                break
    return cfg


def solve_forward(cfg: CFG, transfer, join, initial, bottom):
    """Worklist forward analysis to fixpoint:
    ``{block index: (state-in, state-out)}``."""
    ins = {cfg.entry.index: initial}
    outs = {}
    worklist = [block.index for block in cfg.reachable_blocks()]
    while worklist:
        index = worklist.pop(0)
        block = cfg.blocks[index]
        if block.predecessors:
            preds = [outs[p] for p in sorted(block.predecessors) if p in outs]
            state_in = join(preds) if preds else bottom
        else:
            state_in = ins.get(index, initial if index == cfg.entry.index else bottom)
        ins[index] = state_in
        state_out = transfer(block, state_in)
        if index in outs and outs[index] == state_out:
            continue
        outs[index] = state_out
        for succ in block.successors:
            if succ not in worklist:
                worklist.append(succ)
    return {
        index: (ins.get(index, bottom), outs.get(index, bottom))
        for index in sorted(set(ins) | set(outs))
    }


class CfgAnalysis(_FunctionAnalysis):
    """The taint pass with the walk replaced by the CFG + solver."""

    def _walk(self, body, env):
        def transfer(block, state):
            out = dict(state)
            for stmt in block.statements:
                self._statement(stmt, out)
            return out

        cfg = build_cfg(body)
        solution = solve_forward(cfg, transfer, self._join, env, bottom={})
        if self._envs is not None:  # statement_envs(): replay each block
            for block in cfg.reachable_blocks():
                state = dict(solution[block.index][0])
                for stmt in block.statements:
                    self._note(stmt, state)
                    self._statement(stmt, state)


class CfgModuleTaint(ModuleTaint):
    """:class:`ModuleTaint` solved with :class:`CfgAnalysis`."""

    def analysis_for(self, info):
        return CfgAnalysis(self, info)
