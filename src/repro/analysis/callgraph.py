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

What a function's *own* code is, binds and mutates is answered here
too, once, for every rule family: :func:`walk_own_nodes`,
:func:`closure_locals`, :func:`captured_mutations`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


def walk_own_nodes(fn: ast.AST):
    """Walk a function's own nodes, *excluding* nested function/lambda
    bodies — those are analysed as their own graph nodes."""
    roots = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        # A nested def can sit anywhere, including directly in the body
        # (as a root): never descend into one.
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        for child in ast.iter_child_nodes(node):
            stack.append(child)


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


def root_name(node: ast.expr) -> str | None:
    """The bare name a subscript/attribute chain hangs off, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


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


def captured_mutations(fn: ast.AST) -> list[tuple[ast.AST, str]]:
    """(site, name) pairs where a function mutates an object it did not
    bind itself — state captured from the enclosing scope."""
    local = closure_locals(fn)
    out: list[tuple[ast.AST, str]] = []
    for node in walk_own_nodes(fn):
        name: str | None = None
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, (ast.Subscript, ast.Attribute)
        ):
            name = root_name(node.target)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = root_name(target)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            name = root_name(node.func.value)
        if name is not None and name not in local and name != "self":
            out.append((node, name))
    return out


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


@dataclass
class CallSite:
    """One resolved intra-module call."""

    call: ast.Call
    caller: FunctionInfo | None  # None: module level
    callee: FunctionInfo


class CallGraph:
    """Index of a module's functions plus resolved call edges."""

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
        #: id(ast node) -> enclosing FunctionInfo (for lambdas too)
        self._owner_of: dict[int, FunctionInfo] = {}
        self._index(tree)
        self.calls: list[CallSite] = []
        self._collect_calls()

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
                    if id(node) in self._owner_of or any(
                        f.node is node for f in self.functions
                    ):
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

    def _register(self, info: FunctionInfo) -> None:
        self.functions.append(info)
        self._owner_of[id(info.node)] = info

    # ------------------------------------------------------------------
    # resolution
    def info_for(self, node: ast.AST) -> FunctionInfo | None:
        return self._owner_of.get(id(node))

    def _bases_of(self, klass: ast.ClassDef) -> list[ast.ClassDef]:
        out = []
        for base in klass.bases:
            name = base.id if isinstance(base, ast.Name) else None
            if name and name in self.classes:
                out.append(self.classes[name])
        return out

    def method_on(
        self, klass: ast.ClassDef, method: str
    ) -> FunctionInfo | None:
        """Find ``method`` on ``klass`` or its same-module ancestors."""
        seen: set[str] = set()
        queue = [klass]
        while queue:
            current = queue.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            info = self.methods.get((current.name, method))
            if info is not None:
                return info
            queue.extend(self._bases_of(current))
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
            # Function-local lambda bindings shadow module names.
            if caller is not None:
                local = self._local_lambda(caller, ref.id)
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

    def _local_lambda(
        self, caller: FunctionInfo, name: str
    ) -> FunctionInfo | None:
        prefix = f"{caller.qualname}.<locals>."
        for info in self.functions:
            if info.bound_name == name and info.qualname == prefix + name:
                return info
            if (
                isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and info.qualname == prefix + name
            ):
                return info
        return None

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo | None
    ) -> FunctionInfo | None:
        return self.lookup(call.func, caller)

    # ------------------------------------------------------------------
    def _collect_calls(self) -> None:
        for info in self.functions:
            for node in walk_own_nodes(info.node):
                if isinstance(node, ast.Call):
                    callee = self.resolve_call(node, info)
                    if callee is not None:
                        self.calls.append(
                            CallSite(call=node, caller=info, callee=callee)
                        )

    def callees_of(self, info: FunctionInfo) -> list[CallSite]:
        return [site for site in self.calls if site.caller is info]
