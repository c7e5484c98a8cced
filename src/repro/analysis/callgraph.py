"""Intra-module scopes and call graph: what names mean, who calls whom.

mrlint's unit of analysis is one file (student submissions may not even
import), so the graph is deliberately module-local: edges resolve to
functions *defined in the same module* and everything else is an
external call the taint engine classifies by its dotted name.

One scope walk builds the table every rule family reads: a
:class:`Scope` per module, class body, def and lambda, with the names it
binds (and to what value or annotation) and declares ``global`` /
``nonlocal``; a :class:`FunctionInfo` per def and lambda wherever it
sits; and which function's own code holds each node
(:meth:`CallGraph.enclosing`).  Names resolve up the scope chain as
Python resolves them (:meth:`CallGraph.binding_scope`), so
:meth:`CallGraph.lookup` follows ``helper``, ``self.method``,
``cls.method``, ``Class.method`` and ``Class(...)`` (its ``__init__``)
to the def the running code would call, searching same-module bases
(:meth:`CallGraph.bases_of`) for methods.

Nothing is resolved up front: the taint pass asks
:meth:`CallGraph.resolve_call` about each call as its walk reaches it,
and a rule that needs the code a function reaches through its helpers
(MRJ005, MRJ006, MRJ007, MRS203, MRS204) takes it from one walk,
:meth:`CallGraph.walk_reachable`.  What running a function keeps
between calls (MRJ005, MRS202, MRH302) is one filter over that walk,
:meth:`CallGraph.kept_state`; what a function's own code is and
mutates, :func:`walk_own_nodes` and :func:`mutations`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: The scope walk's node kinds: those that open a scope, those that bind
#: or declare a name, and those with no child any rule reads.
_SCOPE_NODES = frozenset({*_FUNCTION_NODES, ast.ClassDef})
_BINDING_NODES = frozenset(
    (ast.Assign, ast.AnnAssign, ast.NamedExpr, ast.AugAssign, ast.Global)
    + (ast.For, ast.AsyncFor, ast.With, ast.AsyncWith, ast.Nonlocal)
    + (ast.Import, ast.ImportFrom, ast.ExceptHandler)
)
_LEAVES = frozenset({ast.Name, ast.Constant, ast.Load, ast.Store, ast.Del})


def walk_own_nodes(fn: ast.AST):
    """Walk a function's own nodes.  A nested def or lambda is yielded
    but not entered: its body is its own graph node's code."""
    roots = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        yield node
        # A nested def can sit anywhere, including directly in the body
        # (as a root): never descend into one.
        if not isinstance(node, _FUNCTION_NODES):
            stack.extend(ast.iter_child_nodes(node))


#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "setdefault",
        "sort",
        "reverse",
    }
)


def root_symbol(node: ast.expr) -> tuple[str, ...] | None:
    """The base symbol of an expression: ``("x",)`` or ``("self", "attr")``.

    Walks down attribute/subscript chains: ``self.acc[k].field`` roots at
    ``("self", "acc")``; ``values[0]`` roots at ``("values",)``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return ("self", node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return (node.id,)
    return None


def mutations(nodes):
    """``(site, root symbol)`` for every in-place mutation among ``nodes``.

    A mutation is an assignment or ``del`` through a subscript/attribute
    (one pair per target), an augmented assignment to one, or a
    mutator-method call (``.append``/``.update``/...).  Rebinding a bare
    name is NOT a mutation — it cannot affect an aliased object.
    """
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            if isinstance(node, ast.Call) or isinstance(
                target, (ast.Subscript, ast.Attribute)
            ):
                root = root_symbol(target)
                if root is not None:
                    yield node, root


def binding_names(target: ast.expr) -> set[str]:
    """Names a target expression *binds* — a subscript/attribute target
    mutates an existing object, it does not bind its root name."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return binding_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for elt in target.elts:
            out |= binding_names(elt)
        return out
    return set()


def _mutable_defaults(fn: ast.AST) -> list[ast.expr]:
    """Default values of ``fn`` that build a list/dict/set: evaluated
    once, when the ``def`` or ``lambda`` runs, and shared by every call."""
    args = fn.args
    return [
        default
        for default in [*args.defaults, *args.kw_defaults]
        if isinstance(default, (ast.List, ast.Dict, ast.Set))
        or (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in ("list", "dict", "set", "defaultdict")
        )
    ]


def describe_state(what: tuple[str, str | None]) -> str:
    """A :meth:`CallGraph.kept_state` carrier as a finding names it."""
    kind, name = what
    if kind == "default":
        return "a mutable default argument (shared across calls)"
    if kind == "self":
        return f"'self.{name}'"
    return f"{kind} '{name}'"


def through(chain: tuple[str, ...]) -> str:
    """`` through a() → b()`` for a helper chain; empty for own code."""
    if not chain:
        return ""
    return " through " + " → ".join(f"{part}()" for part in chain)


@dataclass(eq=False)
class Scope:
    """One Python scope: the module, a class body, or a def/lambda."""

    node: ast.AST
    parent: Scope | None
    #: What a def, lambda or class defined here prefixes its qualname with.
    prefix: str
    #: The function whose scope this is (None for the module or a class).
    info: FunctionInfo | None = None
    #: name -> ``(value, annotation)`` per binding here: a def or class
    #: binds its own node; a loop target, unpacked name or import binds
    #: no value
    bindings: dict[str, list[tuple]] = field(default_factory=dict)
    #: name -> ``"global"`` / ``"nonlocal"``, as declared here
    declared: dict[str, str] = field(default_factory=dict)
    #: the scopes defined directly inside this one
    children: list[Scope] = field(default_factory=list)

    def bind(self, name: str, value=None, annotation=None) -> None:
        self.bindings.setdefault(name, []).append((value, annotation))

    def walk(self):
        """This scope and every scope nested in it."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(eq=False)
class FunctionInfo:
    """One function/method/lambda defined in the module."""

    #: Python's ``__qualname__`` (``f.<locals>.g``, ``C.m``, ``<lambda>``)
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    #: the class whose body holds the ``def`` (None outside a class body)
    klass: ast.ClassDef | None
    #: For lambdas: the name they were bound to (if any).
    bound_name: str | None
    #: the scope of the function's own code
    scope: Scope | None = None

    @property
    def name(self) -> str:
        if isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return self.node.name
        return self.bound_name or "<lambda>"

    @property
    def params(self) -> list[str]:
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args]


def _definition(scope: Scope, name: str) -> ast.AST | None:
    """The def, lambda or class ``scope`` binds ``name`` to, the last in
    the source when there are several."""
    return max(
        (v for v, _ in scope.bindings.get(name, ()) if type(v) in _SCOPE_NODES),
        key=lambda v: (v.lineno, v.col_offset),
        default=None,
    )


class CallGraph:
    """A module's scopes and functions; names and calls resolve on demand."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        #: the module scope; every other scope nests below it
        self.scope = Scope(tree, None, "")
        #: every FunctionInfo, in source order
        self.functions: list[FunctionInfo] = []
        #: id(def, lambda or class node) -> its scope
        self._scopes: dict[int, Scope] = {}
        #: id(ast node) -> the FunctionInfo whose own code holds it
        self._enclosing: dict[int, FunctionInfo] = {}
        #: attr -> ``(value, annotation)`` per ``self.<attr> = …`` here
        self.self_attrs: dict[str, list[tuple]] = {}
        self._index(tree)

    # ------------------------------------------------------------------
    # the scope walk
    def _index(self, tree: ast.Module) -> None:
        """The scope walk: one pass over the module, scoped as Python
        scopes it.  A def's decorators, defaults and annotations run in
        the defining scope, in no function's own code (as in
        :func:`walk_own_nodes`); a class body is its own scope but part
        of the code of the function around it."""
        #: id(lambda) -> the first bare name an assignment binds it to
        lambda_names: dict[int, str] = {}
        #: (nodes, the scope they run in, the function whose code they are)
        work = [(tree.body, self.scope, None)]
        while work:
            nodes, scope, owner = work.pop()
            children: list[ast.AST] = []
            for node in nodes:
                if owner is not None:
                    self._enclosing[id(node)] = owner
                kind = type(node)
                if kind in _LEAVES:
                    continue
                if kind in _SCOPE_NODES:
                    work += self._define(node, scope, owner, lambda_names)
                    continue
                if kind in _BINDING_NODES:
                    self._bind_names(node, scope, lambda_names)
                children.extend(ast.iter_child_nodes(node))
            if children:
                work.append((children, scope, owner))
        self.functions.sort(key=lambda i: (i.node.lineno, i.node.col_offset))

    def _define(self, node, scope: Scope, owner, lambda_names: dict) -> list:
        """Open the scope of a def, lambda or class defined in ``scope``;
        what the walk visits next: its header, then its body."""
        name = getattr(node, "name", "<lambda>")
        qualname = scope.prefix + name
        if isinstance(node, ast.ClassDef):
            scope.bind(name, node)
            inner = Scope(node, scope, f"{qualname}.")
            body, body_owner, header_owner = node.body, owner, owner
        else:
            if not isinstance(node, ast.Lambda):
                scope.bind(name, node)
            klass = scope.node if isinstance(scope.node, ast.ClassDef) else None
            bound = lambda_names.get(id(node))
            info = FunctionInfo(qualname, node, klass, bound)
            inner = Scope(node, scope, f"{qualname}.<locals>.", info)
            info.scope = inner
            self.functions.append(info)
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                inner.bind(arg.arg, None, arg.annotation)
            # ``*args: T`` annotates each element, not the tuple.
            for arg in filter(None, (args.vararg, args.kwarg)):
                inner.bind(arg.arg)
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            body_owner, header_owner = info, None
        scope.children.append(inner)
        self._scopes[id(node)] = inner
        in_body = {id(stmt) for stmt in body}
        header = [c for c in ast.iter_child_nodes(node) if id(c) not in in_body]
        return [(body, inner, body_owner), (header, scope, header_owner)]

    def _bind_names(
        self, node: ast.AST, scope: Scope, lambda_names: dict
    ) -> None:
        """Record what one statement or expression binds or declares."""
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            targets = getattr(node, "targets", None) or [node.target]
            bound = (node.value, getattr(node, "annotation", None))
            for target in targets:
                if isinstance(target, ast.Name):
                    scope.bind(target.id, *bound)
                    if isinstance(node.value, ast.Lambda):
                        lambda_names.setdefault(id(node.value), target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.self_attrs.setdefault(target.attr, []).append(bound)
                else:
                    for name in binding_names(target):
                        scope.bind(name)
            return
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                scope.declared[name] = type(node).__name__.lower()
            return
        if isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor)):
            names = binding_names(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            names = set().union(
                *(binding_names(item.optional_vars) for item in node.items)
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {a.asname or a.name.partition(".")[0] for a in node.names}
        else:  # ``except ... as name``
            names = {node.name} - {None}
        for name in names:
            scope.bind(name)

    # ------------------------------------------------------------------
    # resolution
    def info_for(self, node: ast.AST | None) -> FunctionInfo | None:
        return getattr(self._scopes.get(id(node)), "info", None)

    def enclosing(self, node: ast.AST) -> FunctionInfo | None:
        """The function whose own code (nested bodies excluded) holds
        ``node``; None at module level."""
        return self._enclosing.get(id(node))

    def binding_scope(self, name: str, scope: Scope) -> Scope | None:
        """The scope whose binding of ``name`` code in ``scope`` sees,
        as Python finds it: ``global`` and ``nonlocal`` declarations are
        followed and enclosing class bodies skipped.  None when no scope
        binds it (a builtin, or an undefined name)."""
        while scope is not None:
            declared = scope.declared.get(name)
            if declared == "global":
                return self.scope if name in self.scope.bindings else None
            if declared is None and name in scope.bindings:
                return scope
            scope = scope.parent
            while scope is not None and isinstance(scope.node, ast.ClassDef):
                scope = scope.parent
        return None

    def resolve_name(self, name: str, scope: Scope) -> ast.AST | None:
        """The def, lambda or class ``name`` stands for in ``scope``."""
        home = self.binding_scope(name, scope)
        return _definition(home, name) if home is not None else None

    def self_class(self, info: FunctionInfo | None, name: str = "self"):
        """The class whose instance ``name`` is in ``info``'s code: the
        class of the method that binds it, so a def or lambda nested in
        a method sees the method's ``self``."""
        home = self.binding_scope(name, info.scope) if info else None
        return home.info.klass if home is not None and home.info else None

    def bases_of(self, klass: ast.ClassDef) -> list[ast.ClassDef]:
        """Every same-module ancestor of ``klass``, nearest first, each
        once: a cyclic base list ends.  A base name resolves in the
        scope that defines the class."""
        lineage = [klass]
        for current in lineage:
            scope = self._scopes[id(current)].parent
            for base in current.bases:
                if isinstance(base, ast.Name):
                    found = self.resolve_name(base.id, scope)
                    if isinstance(found, ast.ClassDef) and found not in lineage:
                        lineage.append(found)
        return lineage[1:]

    def methods_of(self, klass: ast.ClassDef) -> dict[str, FunctionInfo]:
        """The defs ``klass``'s own body binds, by name, wherever they
        sit in it (the last in the source when a name has several)."""
        scope = self._scopes[id(klass)]
        defs = {name: _definition(scope, name) for name in scope.bindings}
        return {
            name: self.info_for(node)
            for name, node in defs.items()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def method_on(
        self, klass: ast.ClassDef, method: str
    ) -> FunctionInfo | None:
        """Find ``method`` on ``klass`` or its same-module ancestors."""
        for current in [klass, *self.bases_of(klass)]:
            info = self.info_for(_definition(self._scopes[id(current)], method))
            if info is not None:
                return info
        return None

    def lookup(self, ref: ast.expr) -> FunctionInfo | None:
        """Resolve a *reference* (not a call) to a module function, as
        the code that holds it sees it.

        Handles a name bound to a def or lambda (or to a class: its
        ``__init__``), ``self``/``cls``/``Class`` attribute references,
        and inline lambdas.
        """
        if isinstance(ref, ast.Lambda):
            return self.info_for(ref)
        caller = self.enclosing(ref)
        scope = caller.scope if caller is not None else self.scope
        if isinstance(ref, ast.Name):
            found = self.resolve_name(ref.id, scope)
            if isinstance(found, ast.ClassDef):
                return self.method_on(found, "__init__")
            return self.info_for(found)
        if isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
            receiver = ref.value.id
            if receiver in ("self", "cls"):
                klass = self.self_class(caller, receiver)
            else:
                klass = self.resolve_name(receiver, scope)
            if isinstance(klass, ast.ClassDef):
                return self.method_on(klass, ref.attr)
        return None

    def resolve_call(self, call: ast.Call) -> FunctionInfo | None:
        return self.lookup(call.func)

    def walk_reachable(self, root: FunctionInfo):
        """Walk the code that running ``root`` can reach in this module.

        Yields ``(node, owner, chain, via)`` for ``root``'s own nodes
        (:func:`walk_own_nodes`), for the nested defs and lambdas they
        define (part of the code that defines them), and, at each call
        :meth:`resolve_call` resolves, for the callee's before the walk
        goes on.  ``owner`` is the function whose own code holds
        ``node``, ``chain`` the callee names from ``root`` down to
        ``owner`` (empty in ``root``'s code), and ``via`` the call in
        ``root``'s code the walk went down (None there).  Every call in
        ``root``'s code gets a descent of its own, so each call site
        that reaches a function reports it; within ``root``'s code and
        within one descent, each function is visited once.
        """

        def walk(info, chain, via, seen):
            for node in walk_own_nodes(info.node):
                yield node, info, chain, via
                if isinstance(node, ast.Call):
                    callee = self.resolve_call(node)
                elif isinstance(node, _FUNCTION_NODES):
                    callee = self.info_for(node)
                else:
                    continue
                if callee is None or id(callee.node) in seen:
                    continue
                if self.enclosing(callee.node) is info:
                    seen.add(id(callee.node))
                    yield from walk(callee, chain, via, seen)
                elif via is None:
                    descent = {id(root.node), id(callee.node)}
                    yield from walk(callee, (callee.name,), node, descent)
                else:
                    seen.add(id(callee.node))
                    yield from walk(callee, (*chain, callee.name), via, seen)

        yield from walk(root, (), None, {id(root.node)})

    def kept_state(self, root: FunctionInfo):
        """What running ``root`` keeps from one call to the next.

        Yields ``(site, owner, chain, via, what)`` over
        :meth:`walk_reachable` for each carrier, ``what`` being
        ``(kind, name)``:

        - ``("default", None)``: a mutable default argument of a function
          whose ``def`` runs outside the walk (one ``root`` defines gets
          a fresh default on each call);
        - ``("global", name)`` and ``("nonlocal", name)``, at the
          declaration of a function that rebinds or mutates ``name``,
          unless a ``nonlocal`` name is a local of an enclosing function
          the walk entered;
        - ``("captured", name)``: a :func:`mutations` site whose root
          name neither the owner nor such an enclosing function binds;
        - ``("self", attr)``: a write to ``self.<attr>`` where ``self``
          is the instance ``root`` runs on (code of ``root``'s class or
          a same-module base, outside any constructor the walk entered:
          a constructor's object is new), or through a name that holds
          it: a local bound to ``self.<attr>`` (``seen = self.seen``),
          or a helper's parameter the call passed it to
          (``remember(self.seen, k)``).
        """
        klass = self.self_class(root)
        lineage = (
            [klass, *self.bases_of(klass)]
            if klass is not None and root.name != "__init__"
            else []
        )
        #: ids of the function nodes whose code the walk has entered
        walked: set[int] = set()
        #: id(function node) -> {name: the ``self`` attribute it holds}
        holders: dict[int, dict[str, str]] = {}

        def held(expr: ast.expr, owner: FunctionInfo) -> str | None:
            """The attribute of ``root``'s instance ``expr`` is, in
            ``owner``'s code: ``self.<attr>``, or a name holding it."""
            if isinstance(expr, ast.Name):
                return holders.get(id(owner.node), {}).get(expr.id)
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self.self_class(owner) in lineage
            ):
                return expr.attr
            return None

        def frames(scope):
            """``scope`` and its enclosing function scopes, innermost
            first, while the walk entered their code."""
            while scope.info is not None and id(scope.info.node) in walked:
                yield scope
                scope = scope.parent
                while isinstance(scope.node, ast.ClassDef):
                    scope = scope.parent

        for node, owner, chain, via in self.walk_reachable(root):
            if id(owner.node) not in walked:
                parent = self.enclosing(owner.node)
                if parent is None or id(parent.node) not in walked:
                    for default in _mutable_defaults(owner.node):
                        yield default, owner, chain, via, ("default", None)
                walked.add(id(owner.node))
                own = holders.setdefault(id(owner.node), {})
                for name, bound in owner.scope.bindings.items():
                    for value, _ in bound:
                        if isinstance(value, (ast.Attribute, ast.Name)) and (
                            attr := held(value, owner)
                        ):
                            own.setdefault(name, attr)
            if isinstance(node, ast.Call) and (
                callee := self.resolve_call(node)
            ):
                # What the callee's parameters hold, from the first call
                # that passes one (the walk enters the callee right after
                # this node).
                params = callee.params
                if isinstance(node.func, ast.Attribute) and callee.klass:
                    params = params[1:]  # the bound instance
                passed = list(zip(params, node.args))
                passed += [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
                for param, arg in passed:
                    if isinstance(arg, ast.Starred):
                        break
                    if attr := held(arg, owner):
                        holders.setdefault(id(callee.node), {}).setdefault(
                            param, attr
                        )
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = type(node).__name__.lower()
                outer = list(frames(owner.scope))[1:]
                own = walk_own_nodes(owner.node)
                written = {symbol[0] for _, symbol in mutations(own)}
                written |= owner.scope.bindings.keys()
                for name in node.names:
                    if name in written and (
                        kind == "global"
                        or all(name not in scope.bindings for scope in outer)
                    ):
                        yield node, owner, chain, via, (kind, name)
            for site, symbol in mutations([node]):
                if len(symbol) == 2:
                    if (
                        "__init__" not in chain
                        and self.self_class(owner) in lineage
                    ):
                        yield site, owner, chain, via, ("self", symbol[1])
                elif attr := holders[id(owner.node)].get(symbol[0]):
                    if "__init__" not in chain:
                        yield site, owner, chain, via, ("self", attr)
                elif symbol[0] != "self" and all(
                    symbol[0] not in scope.bindings
                    for scope in frames(owner.scope)
                ):
                    yield site, owner, chain, via, ("captured", symbol[0])
