"""Engine rules (MRE1xx): the framework auditing itself.

PR 2 shipped a latent hash-randomization bug: over-replication trimming
in ``NameNode._replication_sweep`` tie-broke equal free-space scores by
*set iteration order*, so ``repro classroom`` diverged run-to-run with
``PYTHONHASHSEED``.  These rules make that bug class (and its cousins)
un-landable:

==========  ==========================================================
``MRE101``  unordered iteration feeding a decision: iterating a
            ``set``/``frozenset`` directly (hash order → divergence,
            *error*), or first-match/keyed selection over a ``dict``
            view (insertion order → arrival-history sensitivity,
            *warning*); includes ``sorted``/``min``/``max`` over a set
            with a key that does not tie-break by the element itself
``MRE102``  wall-clock time (``time.time``/``datetime.now``) inside
            sim-clocked code — simulated time must come from the
            engine, or replays diverge
``MRE103``  bare/blanket ``except`` that swallows everything — it
            would also swallow ``FaultSite`` escalations and cancel
            injected faults silently
``MRE104``  shared-memory/mmap allocation with no guaranteed cleanup
            path — a ``SharedMemory``/``mmap.mmap`` call outside a
            ``with`` item, in a function with no try/finally (or
            handler) releasing it, in a class that does not own a
            ``close``/``release``/``unlink`` — the shuffle-plane
            segment-leak class (PR 6)
``MRE105``  namespace mutation without a journal record: a function
            calls ``<...>.namespace.mkdirs/create_file/delete/rename``
            but contains no ``journal.log_*`` call — the mutation is
            invisible to crash recovery, so a NameNode restart replays
            to a *different* namespace (PR 7's durability contract)
==========  ==========================================================

Set-typedness is inferred syntactically: set literals/comprehensions,
``set()``/``frozenset()`` calls, names or ``self.`` attributes assigned
or annotated as sets, and — module-wide — any attribute whose *name* is
declared as a set in some class of the same module (this is what catches
``meta.locations`` in namenode.py, where ``BlockMeta.locations:
set[str]``).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, Rule
from repro.analysis.taint import (
    KIND_TIME,
    NONDET_CALLS,
    ModuleTaint,
    dotted_name,
)

ENGINE_RULES = {
    "MRE101": Rule(
        id="MRE101",
        family="engine",
        severity="error",
        title="unordered iteration feeds a decision",
        hint="wrap the collection in sorted(...) — and if you sort with a "
        "key, end the key tuple with the element itself so equal scores "
        "tie-break deterministically: key=lambda d: (score(d), d)",
    ),
    "MRE102": Rule(
        id="MRE102",
        family="engine",
        severity="error",
        title="wall clock in sim-clocked code",
        hint="use the simulation's clock (sim.now / event timestamps); "
        "host wall-clock reads make replays and pooled runs diverge",
    ),
    "MRE103": Rule(
        id="MRE103",
        family="engine",
        severity="error",
        title="blanket except swallows fault escalations",
        hint="catch the specific exception you expect, or re-raise: a "
        "blanket handler also eats FaultSite escalations, silently "
        "cancelling injected faults",
    ),
    "MRE104": Rule(
        id="MRE104",
        family="engine",
        severity="error",
        title="shared-memory allocation without a cleanup path",
        hint="guarantee close/unlink on every exit path: allocate inside "
        "a with-statement, or in a try whose finally/except calls "
        "close()/unlink(), or own the handle in a class that defines "
        "close()/release()/unlink()",
    ),
    "MRE105": Rule(
        id="MRE105",
        family="engine",
        severity="error",
        title="namespace mutation without a journal record",
        hint="pair every namespace mutator with the matching "
        "journal.log_*() call in the same function; an unjournaled "
        "mutation is lost on NameNode crash, so recovery replays to a "
        "different namespace",
    ),
}

#: Namespace methods MRE105 treats as durable mutations.  The receiver
#: must be ``namespace`` or ``<...>.namespace`` — replay code that
#: rebuilds a namespace under another local name is deliberately exempt
#: (it *is* the journal being applied).
_NAMESPACE_MUTATORS = {"mkdirs", "create_file", "delete", "rename"}

#: Calls MRE104 treats as shared-memory/arena allocations.
_SHM_ALLOCATORS = ("SharedMemory",)
_SHM_ALLOCATOR_DOTTED = ("mmap.mmap",)

#: Method names that count as releasing an MRE104 allocation when they
#: appear in a finally/except block of the allocating function.
_SHM_CLEANUP_METHODS = {
    "close",
    "unlink",
    "release",
    "rmtree",
    "shutdown",
    "terminate",
}

#: Methods whose presence on the enclosing class marks it as the
#: allocation's owner (lifetime managed by the instance, RAII-style).
_SHM_OWNER_METHODS = {"close", "release", "unlink"}

#: Derived from the taint engine's source table so MRE102 and MRJ001
#: can never drift apart on what "reads the clock" means; process_time
#: is wall-clock-adjacent (host load) and stays flagged here too.
_WALL_CLOCK_SUFFIXES = frozenset(
    name for name, kind in NONDET_CALLS.items() if kind == KIND_TIME
) | {"time.process_time", "time.process_time_ns"}

_DICT_VIEW_METHODS = {"keys", "values", "items"}


def _is_dict_view_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEW_METHODS
        and not node.args
        and not node.keywords
    )


def _key_is_tie_broken(key: ast.expr) -> bool:
    """Does a sort key guarantee injectivity over the elements?

    True only for a lambda that is the identity or whose body is a tuple
    ending in the bare lambda parameter — ``lambda d: (score(d), d)``.
    Anything else (named functions, attrgetter, plain scores) cannot be
    proven injective, so equal keys would tie-break by iteration order.
    """
    if not isinstance(key, ast.Lambda) or len(key.args.args) != 1:
        return False
    param = key.args.args[0].arg
    body = key.body
    if isinstance(body, ast.Name) and body.id == param:
        return True
    if (
        isinstance(body, ast.Tuple)
        and body.elts
        and isinstance(body.elts[-1], ast.Name)
        and body.elts[-1].id == param
    ):
        return True
    return False


def _contains_break(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Break):
                return True
            # A break inside a nested loop belongs to that loop; but a
            # syntactic walk is close enough for an audit rule — nested
            # first-match loops are exactly what we want eyes on.
    return False


class _EngineVisitor:
    def __init__(self, path: str, taint: ModuleTaint):
        self.path = path
        self.tree = taint.tree
        self.types = taint.set_types
        #: generator ``iter`` expressions consumed by order-insensitive
        #: aggregates — provably safe to visit in hash order.
        self.order_sinks = taint.order_sinks
        self.taint = taint
        self.findings: list[Finding] = []
        #: What MRE104/MRE105 decide per owning function, gathered on the
        #: one walk; the scope table says which function owns each node.
        self._mutators: list[ast.Call] = []
        self._journal_calls: list[ast.Call] = []
        self._allocations: list[ast.Call] = []
        self._release_guards: list[ast.Try] = []
        self._with_guarded: set[int] = set()

    def _emit(
        self, rule_id: str, node: ast.AST, message: str, severity: str | None = None
    ) -> None:
        self.findings.append(
            ENGINE_RULES[rule_id].at(self.path, node, message, severity)
        )

    def run(self) -> list[Finding]:
        self._check_sites()
        self._check_journal_coverage()
        self._check_shm_lifecycle()
        return self.findings

    # -- MRE101 / MRE102 --------------------------------------------------
    def _check_sites(self) -> None:
        """Check every node once: inside a def with the local sets of the
        outermost def holding it (they include its nested defs'),
        anywhere else (module or class body) with none."""
        stack: list[ast.AST] = [self.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = self.taint.graph.info_for(node).scope
                local, nodes = self.types.local_sets(scope), ast.walk(node)
            else:
                local, nodes = set(), [node]
                stack.extend(ast.iter_child_nodes(node))
            for sub in nodes:
                self._check_iteration_site(sub, local)
                if isinstance(sub, ast.Call):
                    self._check_wall_clock(sub)
                    self._note_call(sub)
                elif isinstance(sub, ast.ExceptHandler):
                    self._check_except(sub)
                elif isinstance(sub, ast.Try) and _releases(sub):
                    self._release_guards.append(sub)
                elif isinstance(sub, (ast.With, ast.AsyncWith)):
                    for item in sub.items:
                        self._with_guarded.update(
                            map(id, ast.walk(item.context_expr))
                        )

    def _note_call(self, node: ast.Call) -> None:
        if _is_shm_allocation(node):
            self._allocations.append(node)
        if not isinstance(node.func, ast.Attribute):
            return
        receiver = dotted_name(node.func.value)
        if receiver is None:
            return
        if node.func.attr in _NAMESPACE_MUTATORS and (
            receiver == "namespace" or receiver.endswith(".namespace")
        ):
            self._mutators.append(node)
        elif node.func.attr.startswith("log_") and (
            receiver == "journal" or receiver.endswith(".journal")
        ):
            self._journal_calls.append(node)

    def _def_owning(self, node: ast.AST):
        """The ``def`` whose own code holds ``node`` (None for a lambda's
        code or module/class level)."""
        owner = self.taint.graph.enclosing(node)
        if owner is None or isinstance(owner.node, ast.Lambda):
            return None
        return owner

    def _describe(self, node: ast.expr) -> str:
        name = dotted_name(node)
        if name:
            return name
        return type(node).__name__.lower()

    def _check_iteration_site(self, node: ast.AST, local: set[str]) -> None:
        if isinstance(node, ast.For):
            self._check_iterable(node.iter, local, loop=node)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                self._check_iterable(gen.iter, local, loop=None)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname in ("sorted", "min", "max") and node.args:
                self._check_keyed_selection(fname, node, local)
            elif (
                fname == "next"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "iter"
                and node.args[0].args
            ):
                inner = node.args[0].args[0]
                if self.types.is_set_expr(inner, local):
                    self._emit(
                        "MRE101",
                        node,
                        f"next(iter({self._describe(inner)})) picks an "
                        "arbitrary set element (hash order)",
                    )
                elif _is_dict_view_call(inner):
                    self._emit(
                        "MRE101",
                        node,
                        f"next(iter({self._describe(inner.func)}())) picks "
                        "the first-inserted entry — sensitive to "
                        "arrival/registration history",
                        severity="warning",
                    )
            elif fname in ("list", "tuple") and node.args:
                # list(some_set) preserves hash order into an ordered
                # container — same leak, one step removed.
                if self.types.is_set_expr(node.args[0], local):
                    self._emit(
                        "MRE101",
                        node,
                        f"{fname}({self._describe(node.args[0])}) freezes "
                        "set hash order into an ordered sequence",
                    )

    def _check_iterable(
        self, iterable: ast.expr, local: set[str], loop: ast.For | None
    ) -> None:
        if id(iterable) in self.order_sinks:
            # The iteration's consumer is an order-insensitive aggregate
            # (sum/any/all/min/max/len/set/sorted): hash order provably
            # cannot reach the result.  This is what retires the PR 3
            # suppressions on the NameNode's replication arithmetic.
            return
        if self.types.is_set_expr(iterable, local):
            self._emit(
                "MRE101",
                iterable,
                f"iterating {self._describe(iterable)} in hash order; "
                "wrap in sorted(...) so the loop visits elements "
                "deterministically",
            )
        elif (
            loop is not None
            and _is_dict_view_call(iterable)
            and _contains_break(loop.body)
        ):
            self._emit(
                "MRE101",
                iterable,
                f"first-match loop over {self._describe(iterable.func)}() "
                "— dict insertion order is deterministic in-process but "
                "depends on arrival/registration history; audit or sort",
                severity="warning",
            )

    def _check_keyed_selection(
        self, fname: str, node: ast.Call, local: set[str]
    ) -> None:
        target = node.args[0]
        key = next((kw.value for kw in node.keywords if kw.arg == "key"), None)
        over_set = self.types.is_set_expr(target, local)
        over_view = _is_dict_view_call(target)
        if not over_set and not over_view:
            return
        if key is None:
            # sorted(set) totally orders by the elements themselves:
            # deterministic.  min/max likewise.  Dict .keys() too;
            # .values()/.items() may tie but then equal values are
            # interchangeable for min/max and sorted() is stable on
            # insertion order — accept.
            return
        if _key_is_tie_broken(key):
            return
        what = self._describe(target)
        if over_set:
            self._emit(
                "MRE101",
                node,
                f"{fname}({what}, key=...) breaks ties by set hash order "
                "— the PR 2 replication-sweep bug; end the key tuple "
                "with the element itself",
            )
        else:
            self._emit(
                "MRE101",
                node,
                f"{fname}({what}, key=...) breaks ties by insertion "
                "order — sensitive to arrival/registration history",
                severity="warning",
            )

    # -- MRE105 -----------------------------------------------------------
    def _check_journal_coverage(self) -> None:
        """A function mutating ``*.namespace`` must also journal.

        Coverage is per-function and deliberately coarse: any
        ``journal.log_*``/``*.journal.log_*`` call anywhere in the
        function's own code clears all of its mutations (the rule points
        eyes at *unjournaled* mutators, not at argument mismatches).
        """
        if not self._mutators:
            return
        journaled = {self._def_owning(call) for call in self._journal_calls}
        for call in self._mutators:
            owner = self._def_owning(call)
            if owner is None or owner in journaled:
                continue
            self._emit(
                "MRE105",
                call,
                f"{dotted_name(call.func)}(...) mutates the namespace with no "
                "journal.log_*() record in the same function — invisible "
                "to crash recovery",
            )

    # -- MRE104 -----------------------------------------------------------
    def _check_shm_lifecycle(self) -> None:
        """Flag SharedMemory/mmap allocations with no cleanup path.

        An allocation in a function's own code is considered owned (and
        passes) when any of:

        1. it is inside the context expression of a ``with`` item — the
           ``__exit__`` releases it;
        2. the allocating function contains a ``try`` whose ``finally``
           or exception handlers call one of
           :data:`_SHM_CLEANUP_METHODS` — every exit path releases;
        3. the function is defined in a class body that defines one of
           :data:`_SHM_OWNER_METHODS` — the instance owns the handle's
           lifetime (RAII-style, like ``blockio.MappedFile``).
        """
        if not self._allocations:
            return
        guarded = {self._def_owning(node) for node in self._release_guards}
        for call in self._allocations:
            owner = self._def_owning(call)
            if owner is None or owner in guarded:
                continue
            if id(call) in self._with_guarded:
                continue
            if owner.klass and _SHM_OWNER_METHODS & set(
                self.taint.graph.methods_of(owner.klass)
            ):
                continue
            name = dotted_name(call.func) or "SharedMemory"
            self._emit(
                "MRE104",
                call,
                f"{name}(...) allocates a shared-memory/mmap handle with "
                "no guaranteed close/unlink on every exit path",
            )

    # -- MRE102 -----------------------------------------------------------
    def _check_wall_clock(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        for suffix in _WALL_CLOCK_SUFFIXES:
            if name == suffix or name.endswith("." + suffix):
                self._emit(
                    "MRE102",
                    node,
                    f"{name}() reads the host wall clock inside "
                    "sim-clocked code",
                )
                return

    # -- MRE103 -----------------------------------------------------------
    def _check_except(self, handler: ast.ExceptHandler) -> None:
        if handler.type is None:
            self._emit(
                "MRE103",
                handler,
                "bare 'except:' swallows everything, including FaultSite "
                "escalations and KeyboardInterrupt",
            )
            return
        names = []
        types_ = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for t in types_:
            name = dotted_name(t)
            if name:
                names.append(name.rsplit(".", 1)[-1])
        if not any(n in ("Exception", "BaseException") for n in names):
            return
        if self._handler_is_swallowing(handler):
            self._emit(
                "MRE103",
                handler,
                f"'except {'/'.join(names)}' discards the exception "
                "without re-raising or recording it",
            )

    @staticmethod
    def _handler_is_swallowing(handler: ast.ExceptHandler) -> bool:
        """True when the handler neither re-raises nor does real work."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return False
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Return) and (
                stmt.value is None or isinstance(stmt.value, ast.Constant)
            ):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            return False  # assignments, calls, logging: handled, not hidden
        return True


# -- MRE104 helpers ---------------------------------------------------------


def _is_shm_allocation(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1]
    if last in _SHM_ALLOCATORS:
        return True
    return any(
        name == dotted or name.endswith("." + dotted)
        for dotted in _SHM_ALLOCATOR_DOTTED
    )


def _releases(node: ast.Try) -> bool:
    """Does this try's finally or a handler release a handle?"""
    blocks: list[ast.stmt] = list(node.finalbody)
    for handler in node.handlers:
        blocks.extend(handler.body)
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr in _SHM_CLEANUP_METHODS
        for stmt in blocks
        for sub in ast.walk(stmt)
    )


def check_engine_rules(path: str, taint: ModuleTaint) -> list[Finding]:
    """Run all MRE1xx rules over one analysed module."""
    return _EngineVisitor(path, taint).run()
