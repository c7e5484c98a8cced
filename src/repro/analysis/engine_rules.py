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

from repro.analysis.callgraph import walk_own_nodes
from repro.analysis.findings import Finding, Rule
from repro.analysis.taint import (
    KIND_TIME,
    NONDET_CALLS,
    SetTypes,
    dotted_name,
    order_insensitive_generator_iters,
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
    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.types = SetTypes(tree)
        #: generator ``iter`` expressions consumed by order-insensitive
        #: aggregates — provably safe to visit in hash order.
        self.order_sinks = order_insensitive_generator_iters(tree)
        self.findings: list[Finding] = []

    def _emit(
        self, rule_id: str, node: ast.AST, message: str, severity: str | None = None
    ) -> None:
        self.findings.append(
            ENGINE_RULES[rule_id].at(self.path, node, message, severity)
        )

    def run(self) -> list[Finding]:
        # MRE101 needs per-function local inference; MRE102/103 are global.
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)
                self._check_journal_coverage(node)
            elif isinstance(node, ast.ExceptHandler):
                self._check_except(node)
        self._check_module_level_iteration()
        self._check_shm_lifecycle()
        return self.findings

    # -- MRE101 -----------------------------------------------------------
    def _check_function(self, fn: ast.FunctionDef) -> None:
        local = self.types.local_sets(fn)
        for node in ast.walk(fn):
            self._check_iteration_site(node, local)
            if isinstance(node, ast.Call):
                self._check_wall_clock(node)

    def _check_module_level_iteration(self) -> None:
        """Module-level statements (rare, but cheap to cover)."""
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(stmt):
                self._check_iteration_site(node, set())
                if isinstance(node, ast.Call):
                    self._check_wall_clock(node)

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
    def _check_journal_coverage(self, fn: ast.FunctionDef) -> None:
        """A function mutating ``*.namespace`` must also journal.

        Coverage is per-function and deliberately coarse: any
        ``journal.log_*``/``*.journal.log_*`` call anywhere in the
        function clears all of its mutations (the rule points eyes at
        *unjournaled* mutators, not at argument mismatches).
        """
        mutators: list[ast.Call] = []
        journaled = False
        for node in walk_own_nodes(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None:
                continue
            if node.func.attr in _NAMESPACE_MUTATORS and (
                receiver == "namespace" or receiver.endswith(".namespace")
            ):
                mutators.append(node)
            elif node.func.attr.startswith("log_") and (
                receiver == "journal" or receiver.endswith(".journal")
            ):
                journaled = True
        if journaled:
            return
        for call in mutators:
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

        An allocation is considered owned (and passes) when any of:

        1. it is the context expression of a ``with`` item — the
           ``__exit__`` releases it;
        2. the allocating function contains a ``try`` whose ``finally``
           or exception handlers call one of
           :data:`_SHM_CLEANUP_METHODS` — every exit path releases;
        3. the enclosing class defines one of :data:`_SHM_OWNER_METHODS`
           — the instance owns the handle's lifetime (RAII-style, like
           ``blockio.MappedFile``).
        """
        owners: dict[ast.AST, ast.ClassDef] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owners[stmt] = node
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_shm_function(node, owners.get(node))

    def _check_shm_function(
        self, fn: ast.FunctionDef, klass: ast.ClassDef | None
    ) -> None:
        allocations = [
            node
            for node in walk_own_nodes(fn)
            if isinstance(node, ast.Call) and _is_shm_allocation(node)
        ]
        if not allocations:
            return
        if klass is not None and _class_owns_cleanup(klass):
            return
        if _has_cleanup_guard(fn):
            return
        with_guarded = _with_item_nodes(fn)
        for call in allocations:
            if call in with_guarded:
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


def _class_owns_cleanup(klass: ast.ClassDef) -> bool:
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name in _SHM_OWNER_METHODS
        for stmt in klass.body
    )


def _has_cleanup_guard(fn: ast.FunctionDef) -> bool:
    """Does ``fn`` contain a try whose finally/handlers release a handle?"""
    for node in walk_own_nodes(fn):
        if not isinstance(node, ast.Try):
            continue
        blocks: list[ast.stmt] = list(node.finalbody)
        for handler in node.handlers:
            blocks.extend(handler.body)
        for stmt in blocks:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _SHM_CLEANUP_METHODS
                ):
                    return True
    return False


def _with_item_nodes(fn: ast.FunctionDef) -> set[ast.AST]:
    """Every node appearing inside a ``with`` item's context expression."""
    guarded: set[ast.AST] = set()
    for node in walk_own_nodes(fn):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                guarded.update(ast.walk(item.context_expr))
    return guarded


def check_engine_rules(path: str, tree: ast.Module) -> list[Finding]:
    """Run all MRE1xx rules over one parsed module."""
    return _EngineVisitor(path, tree).run()
