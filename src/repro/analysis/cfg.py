"""Control-flow graphs for lint-time dataflow analysis.

mrlint 1.x walked raw ASTs, which made every rule *path-insensitive*:
``random.random()`` after an early ``return`` looked the same as one on
the hot path, and a sanitising ``sorted(...)`` could not "kill" the
hash-order taint it provably removes.  This module builds a classic
basic-block CFG per function so :mod:`repro.analysis.dataflow` can run
the worklist taint analysis over it.

Design notes
============

- One :class:`CFG` per ``FunctionDef``/``AsyncFunctionDef``/``Lambda``.
  Nested functions are *not* inlined — they get their own CFGs and the
  call graph stitches them together.
- Blocks hold whole statements.  Expression-level ordering inside a
  statement is handled by the analyses (Python evaluates left-to-right,
  and our lattices are coarse enough not to care).
- ``try`` is modelled conservatively: the body may jump to any handler
  after *any* of its statements, and ``finally`` dominates every exit.
  That over-approximates flow, which is the safe direction for taint.
- ``break``/``continue``/``return``/``raise`` end their block and wire
  the edge the statement dictates; code after them is unreachable and
  lands in a block with no predecessors (analyses simply never reach
  it, matching runtime truth).

The graphs are tiny (student jobs, engine modules), so no effort is
spent on compaction — empty blocks are pruned at the end and that is
all the optimisation this needs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass
class Block:
    """A straight-line run of statements with single entry/exit."""

    index: int
    statements: list[ast.stmt] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def add_successor(self, other: "Block") -> None:
        if other.index not in self.successors:
            self.successors.append(other.index)
        if self.index not in other.predecessors:
            other.predecessors.append(self.index)


class CFG:
    """The control-flow graph of one function (or lambda)."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: list[Block] = []
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self) -> Block:
        block = Block(index=len(self.blocks))
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------------
    def reachable_blocks(self) -> list[Block]:
        """Blocks reachable from entry, in a deterministic BFS order."""
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

    def statements_in_flow_order(self) -> list[ast.stmt]:
        """Every reachable statement, blocks in BFS order."""
        out: list[ast.stmt] = []
        for block in self.reachable_blocks():
            out.extend(block.statements)
        return out


class _Builder:
    """Recursive statement-list walker producing the block structure."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        #: Stack of (continue-target, break-target) block pairs.
        self.loops: list[tuple[Block, Block]] = []
        #: Innermost enclosing handler-entry blocks (try bodies may jump
        #: there after any statement).
        self.handlers: list[list[Block]] = []

    # ------------------------------------------------------------------
    def build(self, body: list[ast.stmt]) -> None:
        tail = self._body(body, self.cfg.entry)
        if tail is not None:
            tail.add_successor(self.cfg.exit)

    def _body(self, body: list[ast.stmt], current: Block) -> Block | None:
        """Thread ``body`` starting in ``current``; return the block the
        flow falls out of (None when every path left — return/raise/...)."""
        for stmt in body:
            if current is None:
                # Unreachable code after a jump: park it in a fresh
                # predecessor-less block so its statements still exist.
                current = self.cfg.new_block()
            current = self._statement(stmt, current)
        return current

    # ------------------------------------------------------------------
    def _statement(self, stmt: ast.stmt, current: Block) -> Block | None:
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, current)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.statements.append(_HeaderMarker.wrap(stmt))
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
        # Plain statement (also covers nested FunctionDef/ClassDef —
        # callers build a CFG per function body with build_cfg()).
        current.statements.append(stmt)
        self._edge_to_handlers(current)
        return current

    def _edge_to_handlers(self, block: Block) -> None:
        """Inside a try body, any statement may raise into a handler."""
        if self.handlers:
            for handler_block in self.handlers[-1]:
                block.add_successor(handler_block)

    # ------------------------------------------------------------------
    def _if(self, stmt: ast.If, current: Block) -> Block | None:
        current.statements.append(_HeaderMarker.wrap(stmt))
        then_block = self.cfg.new_block()
        current.add_successor(then_block)
        join: Block | None = None
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
        header.statements.append(_HeaderMarker.wrap(stmt))
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
        if stmt.orelse:
            if body_tail is not None:
                body_tail = self._body(stmt.orelse, body_tail)
        if body_tail is not None:
            tails.append(body_tail)
        for handler, block in zip(stmt.handlers, handler_blocks):
            block.statements.append(_HeaderMarker.wrap(handler))
            handler_tail = self._body(handler.body, block)
            if handler_tail is not None:
                tails.append(handler_tail)
        if stmt.finalbody:
            final_block = self.cfg.new_block()
            for tail in tails:
                tail.add_successor(final_block)
            if not tails:
                # Every path raised/returned; finally still runs.
                current.add_successor(final_block)
            return self._body(stmt.finalbody, final_block)
        if not tails:
            return None
        join = self.cfg.new_block()
        for tail in tails:
            tail.add_successor(join)
        return join


class _HeaderMarker:
    """Compound-statement headers enter the CFG as the statement itself.

    Analyses that only look at *expressions* (taint) need
    the header's test/iter expressions in flow order but must not
    descend into the compound body twice.  We record the original node;
    :func:`header_expressions` yields just the header-owned parts.
    """

    @staticmethod
    def wrap(stmt: ast.stmt) -> ast.stmt:
        stmt._mrlint_header = True  # type: ignore[attr-defined]
        return stmt


def is_header(stmt: ast.stmt) -> bool:
    return getattr(stmt, "_mrlint_header", False)


def header_expressions(stmt: ast.AST) -> list[ast.AST]:
    """The expressions a compound-statement header evaluates itself."""
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    return []


def build_cfg(fn: ast.AST, name: str | None = None) -> CFG:
    """Build the CFG of one function, lambda, or module body."""
    if isinstance(fn, ast.Lambda):
        cfg = CFG(name or "<lambda>")
        expr = ast.Expr(value=fn.body)
        ast.copy_location(expr, fn.body)
        _Builder(cfg).build([expr])
        return cfg
    if isinstance(fn, ast.Module):
        cfg = CFG(name or "<module>")
        _Builder(cfg).build(fn.body)
        return cfg
    cfg = CFG(name or fn.name)
    _Builder(cfg).build(fn.body)
    return cfg

