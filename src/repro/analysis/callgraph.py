"""Intra-module call graph: who calls whom, resolved syntactically.

mrlint's unit of analysis is one file (student submissions may not even
import), so the graph is deliberately module-local: edges resolve to
functions *defined in the same module* and everything else is an
external call the taint engine classifies by its dotted name.

Resolution covers the shapes student and engine code actually use:

- ``helper(...)`` — a module-level function (or a lambda bound to a
  module-level / function-local name);
- ``self.method(...)`` — a method on the enclosing class, searching
  same-module base classes in MRO-ish order;
- ``ClassName.method(...)`` and ``cls.method(...)``;
- ``ClassName(...)`` — the class's ``__init__``;
- bare references (``rdd.map(helper)``) via :meth:`CallGraph.lookup`,
  which the sparklite closure rules use to chase named callables.

Nothing is resolved up front: the taint pass asks
:meth:`CallGraph.resolve_call` about each call as its walk reaches it,
and a rule that needs the code a function reaches through its helpers
(MRJ005, MRJ007, MRS203, MRS204) takes it from one walk,
:meth:`CallGraph.walk_reachable`.  What running a function keeps
between calls (MRJ005, MRS202, MRH302) is one filter over that walk,
:meth:`CallGraph.kept_state`.  Class ancestry is
:meth:`CallGraph.bases_of`.

What a function's *own* code is, binds and mutates is answered here
too, once, for every rule family: :func:`walk_own_nodes`,
:func:`closure_locals`, :func:`mutations`, and which function owns a
node (:meth:`CallGraph.enclosing`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


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


def closure_locals(fn: ast.AST) -> set[str]:
    """Names a function binds itself: params, assignments, loop and
    ``with ... as`` variables (nested function bodies excluded)."""
    args = fn.args
    names = {
        a.arg
        for a in (
            args.posonlyargs
            + args.args
            + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
    }
    if isinstance(fn, ast.Lambda):
        return names
    for sub in walk_own_nodes(fn):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                names |= binding_names(target)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            names |= binding_names(sub.target)
        elif isinstance(sub, ast.NamedExpr) and isinstance(
            sub.target, ast.Name
        ):
            names.add(sub.target.id)
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if item.optional_vars is not None:
                    names |= binding_names(item.optional_vars)
    return names


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
    """A :meth:`CallGraph.kept_state` carrier other than ``self`` as a
    finding names it."""
    kind, name = what
    if kind == "default":
        return "a mutable default argument (shared across calls)"
    return f"{kind} '{name}'"


def through(chain: tuple[str, ...]) -> str:
    """`` through a() → b()`` for a helper chain; empty for own code."""
    if not chain:
        return ""
    return " through " + " → ".join(f"{part}()" for part in chain)


@dataclass
class FunctionInfo:
    """One function/method/lambda defined in the module."""

    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    klass: ast.ClassDef | None = None
    #: For lambdas: the name they were bound to (if any).
    bound_name: str | None = None

    @property
    def name(self) -> str:
        if isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return self.node.name
        return self.bound_name or "<lambda>"

    @property
    def params(self) -> list[str]:
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args]

    @property
    def is_method(self) -> bool:
        return self.klass is not None

    def __hash__(self) -> int:
        return id(self.node)


class CallGraph:
    """Index of a module's functions; calls resolve on demand."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        #: module-level function name -> info
        self.module_functions: dict[str, FunctionInfo] = {}
        #: class name -> ClassDef
        self.classes: dict[str, ast.ClassDef] = {}
        #: (class name, method name) -> info
        self.methods: dict[tuple[str, str], FunctionInfo] = {}
        #: every FunctionInfo, in source order
        self.functions: list[FunctionInfo] = []
        #: id(function/lambda node) -> its FunctionInfo
        self._owner_of: dict[int, FunctionInfo] = {}
        #: qualname -> the first FunctionInfo registered under it
        self._by_qualname: dict[str, FunctionInfo] = {}
        #: id(ast node) -> the FunctionInfo whose own code holds it
        self._enclosing: dict[int, FunctionInfo] = {}
        self._index(tree)

    # ------------------------------------------------------------------
    # indexing
    def _index(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(qualname=stmt.name, node=stmt)
                self.module_functions[stmt.name] = info
                self._register(info)
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = stmt
                for member in stmt.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        info = FunctionInfo(
                            qualname=f"{stmt.name}.{member.name}",
                            node=member,
                            klass=stmt,
                        )
                        self.methods[(stmt.name, member.name)] = info
                        self._register(info)
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Lambda
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info = FunctionInfo(
                            qualname=target.id,
                            node=stmt.value,
                            bound_name=target.id,
                        )
                        self.module_functions[target.id] = info
                        self._register(info)
                        break
        # Nested named functions and name-bound lambdas inside functions.
        for outer in list(self.functions):
            if isinstance(outer.node, ast.Lambda):
                continue
            for node in ast.walk(outer.node):
                if node is outer.node:
                    continue
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if id(node) in self._owner_of:
                        continue
                    info = FunctionInfo(
                        qualname=f"{outer.qualname}.<locals>.{node.name}",
                        node=node,
                        klass=outer.klass,
                    )
                    self._register(info)
                elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Lambda
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            info = FunctionInfo(
                                qualname=(
                                    f"{outer.qualname}.<locals>.{target.id}"
                                ),
                                node=node.value,
                                bound_name=target.id,
                            )
                            self._register(info)
                            break
        # Anonymous lambdas (inline arguments, comprehension filters...):
        # registered so closure rules can analyse them by node identity.
        for node in ast.walk(tree):
            if isinstance(node, ast.Lambda) and id(node) not in self._owner_of:
                self._register(
                    FunctionInfo(
                        qualname=f"<lambda@{node.lineno}>", node=node
                    )
                )
        for info in self.functions:
            for node in walk_own_nodes(info.node):
                self._enclosing[id(node)] = info

    def _register(self, info: FunctionInfo) -> None:
        self.functions.append(info)
        self._owner_of[id(info.node)] = info
        self._by_qualname.setdefault(info.qualname, info)

    # ------------------------------------------------------------------
    # resolution
    def info_for(self, node: ast.AST) -> FunctionInfo | None:
        return self._owner_of.get(id(node))

    def enclosing(self, node: ast.AST) -> FunctionInfo | None:
        """The function whose own code (nested bodies excluded) holds
        ``node``; None at module level."""
        return self._enclosing.get(id(node))

    def bases_of(self, klass: ast.ClassDef) -> list[ast.ClassDef]:
        """Every same-module ancestor of ``klass``, nearest first, each
        once: a cyclic base list ends."""
        lineage = [klass]
        for current in lineage:
            for base in current.bases:
                if (
                    isinstance(base, ast.Name)
                    and base.id in self.classes
                    and all(seen.name != base.id for seen in lineage)
                ):
                    lineage.append(self.classes[base.id])
        return lineage[1:]

    def method_on(
        self, klass: ast.ClassDef, method: str
    ) -> FunctionInfo | None:
        """Find ``method`` on ``klass`` or its same-module ancestors."""
        for current in [klass, *self.bases_of(klass)]:
            info = self.methods.get((current.name, method))
            if info is not None:
                return info
        return None

    def lookup(
        self, ref: ast.expr, caller: FunctionInfo | None
    ) -> FunctionInfo | None:
        """Resolve a *reference* (not a call) to a module function.

        Handles ``helper`` (module or local-lambda name), ``self.method``
        and ``Class.method`` attribute references, and inline lambdas.
        """
        if isinstance(ref, ast.Lambda):
            return self.info_for(ref)
        if isinstance(ref, ast.Name):
            # Function-local defs and lambda bindings shadow module names.
            if caller is not None:
                local = self._by_qualname.get(
                    f"{caller.qualname}.<locals>.{ref.id}"
                )
                if local is not None:
                    return local
            info = self.module_functions.get(ref.id)
            if info is not None:
                return info
            klass = self.classes.get(ref.id)
            if klass is not None:
                return self.method_on(klass, "__init__")
            return None
        if isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
            receiver = ref.value.id
            if receiver in ("self", "cls") and caller is not None and caller.klass:
                return self.method_on(caller.klass, ref.attr)
            if receiver in self.classes:
                return self.method_on(self.classes[receiver], ref.attr)
        return None

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo | None
    ) -> FunctionInfo | None:
        return self.lookup(call.func, caller)

    def walk_reachable(self, root: FunctionInfo):
        """Walk the code that running ``root`` can reach in this module.

        Yields ``(node, owner, chain, via)`` for ``root``'s own nodes
        (:func:`walk_own_nodes`), for the nested defs and lambdas they
        define (part of the code that defines them), and, at each call
        :meth:`resolve_call` resolves, for the callee's before the walk
        goes on; each function is visited once.  ``owner`` is the
        function whose own code holds ``node``, ``chain`` the callee
        names from ``root`` down to ``owner`` (empty in ``root``'s code),
        and ``via`` the call in ``root``'s code the walk went down (None
        there).
        """
        seen = {id(root.node)}

        def walk(info, chain, via):
            for node in walk_own_nodes(info.node):
                yield node, info, chain, via
                if isinstance(node, ast.Call):
                    callee = self.resolve_call(node, info)
                elif isinstance(node, _FUNCTION_NODES):
                    callee = self.info_for(node)
                else:
                    continue
                if callee is None or id(callee.node) in seen:
                    continue
                seen.add(id(callee.node))
                if self.enclosing(callee.node) is info:
                    yield from walk(callee, chain, via)
                else:
                    yield from walk(callee, (*chain, callee.name), via or node)

        yield from walk(root, (), None)

    def kept_state(self, root: FunctionInfo):
        """What running ``root`` keeps from one call to the next.

        Yields ``(site, owner, chain, via, what)`` over
        :meth:`walk_reachable` for each carrier, ``what`` being
        ``(kind, name)``:

        - ``("default", None)``: a mutable default argument of a function
          whose ``def`` runs outside the walk (one ``root`` defines gets
          a fresh default on each call);
        - ``("global", name)``, and ``("nonlocal", name)`` unless ``name``
          is a local of an enclosing function the walk entered;
        - ``("captured", name)``: a :func:`mutations` site whose root
          name neither the owner nor such an enclosing function binds;
        - ``("self", attr)``: a write to ``self.<attr>``.
        """
        #: id(function node) -> (names its walked enclosing frames bind,
        #: those plus its own locals)
        scopes: dict[int, tuple[set[str], set[str]]] = {}
        for node, owner, chain, via in self.walk_reachable(root):
            scope = scopes.get(id(owner.node))
            if scope is None:
                parent = self.enclosing(owner.node)
                fresh = parent is not None and id(parent.node) in scopes
                outer = scopes[id(parent.node)][1] if fresh else set()
                scope = scopes[id(owner.node)] = (
                    outer,
                    closure_locals(owner.node) | outer,
                )
                if not fresh:
                    for default in _mutable_defaults(owner.node):
                        yield default, owner, chain, via, ("default", None)
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = type(node).__name__.lower()
                for name in node.names:
                    if kind == "global" or name not in scope[0]:
                        yield node, owner, chain, via, (kind, name)
            for site, symbol in mutations([node]):
                if len(symbol) == 2:
                    yield site, owner, chain, via, ("self", symbol[1])
                elif symbol[0] != "self" and symbol[0] not in scope[1]:
                    yield site, owner, chain, via, ("captured", symbol[0])
