"""Job rules (MRJ0xx): lint user/student Mapper/Reducer/Combiner code.

These encode the course's recurring map/reduce bugs — the ones that
"work on my laptop" and melt down at cluster scale or grade time:

==========  ==========================================================
``MRJ001``  nondeterministic call (unseeded random / wall clock) in a
            task method — re-executed attempts diverge
``MRJ002``  mutation of a map/reduce *input* (key, value, values) —
            the framework may re-serve or re-sort those objects
``MRJ003``  emitting an unhashable key (list/dict/set literal) —
            partitioners and group-by need hashable, ordered keys
``MRJ004``  emitting an object the method also mutates — the Context
            holds a reference, not a copy, so later mutation rewrites
            already-emitted pairs
``MRJ005``  instance/global state carried across ``map()``/``reduce()``
            calls without the in-mapper-combining idiom (no
            ``cleanup()`` flush) — silently drops data
``MRJ006``  per-call side-file read (the movie-genres anti-pattern):
            ``read_side_file`` outside ``setup``/``cleanup``
``MRJ007``  combiner that is not a monoid (computes a ratio/average or
            re-formats values) — answers change with combine rounds
==========  ==========================================================

Detection works from the AST alone (student files may not even import)
— but since mrlint 2.0 it is no longer per-function: MRJ001, MRJ005 and
MRJ007 run on the shared analysis core (:mod:`repro.analysis.taint`,
:mod:`repro.analysis.callgraph`), so nondeterminism, cross-call state
and non-monoid arithmetic are caught even when the student factors them
into helper functions or methods — and *not* flagged when the dataflow
engine can prove the helper draws from an RNG seeded out of the job
configuration.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import MUTATOR_METHODS, walk_own_nodes
from repro.analysis.findings import Finding, Rule
from repro.analysis.taint import EFFECT_KINDS, ModuleTaint

JOB_RULES = {
    "MRJ001": Rule(
        id="MRJ001",
        family="jobs",
        severity="error",
        title="nondeterministic call in task method",
        hint="seed randomness in setup() from a job parameter, or take "
        "timestamps out of map/reduce: re-executed attempts (speculation, "
        "failure recovery) must produce identical output",
    ),
    "MRJ002": Rule(
        id="MRJ002",
        family="jobs",
        severity="error",
        title="mutates a map/reduce input",
        hint="copy the input before editing it; the framework re-serves "
        "and re-sorts input objects, so in-place edits corrupt other "
        "tasks' views of the data",
    ),
    "MRJ003": Rule(
        id="MRJ003",
        family="jobs",
        severity="error",
        title="emits an unhashable key",
        hint="keys must be hashable and totally ordered (the shuffle "
        "partitions by hash and sorts by key); emit a string/tuple "
        "rendering instead of a list/dict/set",
    ),
    "MRJ004": Rule(
        id="MRJ004",
        family="jobs",
        severity="error",
        title="emitted object is mutated in the same method",
        hint="context.write() stores a reference, not a snapshot; "
        "emit a copy (or a freshly constructed Writable) if you keep "
        "mutating the object afterwards",
    ),
    "MRJ005": Rule(
        id="MRJ005",
        family="jobs",
        severity="warning",
        title="cross-call state without in-mapper-combining idiom",
        hint="state accumulated across map()/reduce() calls is lost "
        "unless cleanup() flushes it (the in-mapper-combining pattern); "
        "either emit per call or add a cleanup() that drains the state",
    ),
    "MRJ006": Rule(
        id="MRJ006",
        family="jobs",
        severity="warning",
        title="side file re-read on every call",
        hint="read_side_file() streams the whole file each call — the "
        "movie-genres assignment's order-of-magnitude slowdown; load it "
        "once in setup() or use context.cached_side_file()",
    ),
    "MRJ007": Rule(
        id="MRJ007",
        family="jobs",
        severity="error",
        title="combiner is not a monoid",
        hint="a combiner may run 0..N times, so it must be associative "
        "and emit its own input type; compute ratios/averages (and any "
        "formatting) in the reducer, and have the combiner emit partial "
        "sums (Monoidify!)",
    ),
}

#: The task-lifecycle methods the framework calls.
_TASK_METHODS = {"setup", "map", "reduce", "cleanup"}

#: Per-record methods: called once per input record / key group.
_PER_CALL_METHODS = {"map", "reduce"}


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


def _is_task_class(node: ast.ClassDef) -> bool:
    """Does this class look like a Mapper/Reducer/Combiner subclass?"""
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if name.endswith(("Mapper", "Reducer", "Combiner")):
            return True
    return False


def _is_job_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if name == "Job" or name.endswith("Job"):
            return True
    return False


def _method_params(fn: ast.FunctionDef) -> list[str]:
    return [a.arg for a in fn.args.args]


def _context_names(fn: ast.FunctionDef) -> set[str]:
    """Names through which ``fn`` can reach the framework Context."""
    names = {"context", "ctx"}
    params = _method_params(fn)
    if fn.name in ("map", "reduce") and len(params) >= 4:
        names.add(params[3])
    elif fn.name in ("setup", "cleanup") and len(params) >= 2:
        names.add(params[1])
    return names


def _mutations(fn: ast.FunctionDef) -> list[tuple[int, int, tuple[str, ...]]]:
    """All in-place mutations in ``fn``: (line, col, root symbol).

    A mutation is an assignment through a subscript/attribute, an
    augmented assignment, a ``del x[...]``, or a mutator-method call
    (``.append``/``.update``/...).  Rebinding a bare name is NOT a
    mutation — it cannot affect an aliased object.
    """
    out: list[tuple[int, int, tuple[str, ...]]] = []
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = [
                t for t in node.targets
                if isinstance(t, (ast.Subscript, ast.Attribute))
            ]
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = [
                t for t in node.targets
                if isinstance(t, (ast.Subscript, ast.Attribute))
            ]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            targets = [node.func.value]
        for target in targets:
            root = root_symbol(target)
            # AugAssign on a bare local name is rebinding, not mutation
            # — unless it targets self.attr (shared across calls).
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)
            ):
                continue
            if root is not None:
                out.append((node.lineno, node.col_offset, root))
    return out


def _context_writes(
    fn: ast.FunctionDef, ctx_names: set[str]
) -> list[ast.Call]:
    """All ``context.write(...)`` calls in ``fn``."""
    calls = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "write"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ctx_names
        ):
            calls.append(node)
    return calls


def _loads_of_self_attrs(fn: ast.FunctionDef) -> set[str]:
    """Self attributes *referenced at all* inside ``fn``."""
    attrs = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            attrs.add(node.attr)
    return attrs


class _JobVisitor:
    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.taint = ModuleTaint(tree)
        self.findings: list[Finding] = []

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(JOB_RULES[rule_id].at(self.path, node, message))

    # -- per-module entry -------------------------------------------------
    def run(self) -> list[Finding]:
        combiner_classes = self._combiner_class_names()
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_task_class(node):
                self._check_task_class(node)
            if node.name in combiner_classes:
                self._check_combiner_class(node)
        return self.findings

    def _combiner_class_names(self) -> set[str]:
        """Classes wired as ``combiner = X`` in a Job subclass, plus any
        task class whose name says it is one."""
        names = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                if _is_job_class(node):
                    for stmt in node.body:
                        if (
                            isinstance(stmt, ast.Assign)
                            and len(stmt.targets) == 1
                            and isinstance(stmt.targets[0], ast.Name)
                            and stmt.targets[0].id == "combiner"
                            and isinstance(stmt.value, ast.Name)
                        ):
                            names.add(stmt.value.id)
                elif _is_task_class(node) and "Combiner" in node.name:
                    names.add(node.name)
        return names

    # -- task-class rules -------------------------------------------------
    def _check_task_class(self, cls: ast.ClassDef) -> None:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        cleanup_loads = (
            self._transitive_self_loads(methods, "cleanup", set())
            if "cleanup" in methods
            else set()
        )
        global_names = {
            name
            for fn in methods.values()
            for node in ast.walk(fn)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        stateful_attrs_flagged: set[str] = set()
        for name, fn in methods.items():
            self._check_nondeterminism(cls, fn)
            self._check_side_file(cls, fn)
            ctx_names = _context_names(fn)
            writes = _context_writes(fn, ctx_names)
            mutations = _mutations(fn)
            self._check_unhashable_keys(cls, writes)
            self._check_emit_aliasing(cls, fn, writes, mutations)
            if name in _PER_CALL_METHODS:
                self._check_input_mutation(cls, fn, mutations)
                self._check_cross_call_state(
                    cls, fn, mutations, global_names,
                    cleanup_loads, stateful_attrs_flagged,
                )
                # State accumulated by a helper *method* the per-record
                # method calls (self.track(x) → self.counts[x] += 1)
                # carries across calls exactly the same way.
                self._check_cross_call_state_via_helpers(
                    cls, fn, methods, cleanup_loads, stateful_attrs_flagged,
                )

    def _check_nondeterminism(
        self, cls: ast.ClassDef, fn: ast.FunctionDef
    ) -> None:
        """MRJ001, on the taint engine.

        A task method is flagged when *executing it* reaches an
        unsanitised nondeterministic source — directly or through any
        chain of same-module helper calls.  Draws from an RNG the class
        seeded out of the job configuration (``random.Random(conf[...])``
        in ``setup()``, or ``random.seed(conf[...])``) are proven clean
        by the dataflow engine and not flagged.  Helper *methods* only
        report their own direct calls, so one bug does not fan out into
        a finding per caller plus one at the helper's body.
        """
        info = self.taint.graph.info_for(fn)
        if info is None:  # pragma: no cover - methods always indexed
            return
        lifecycle = fn.name in _TASK_METHODS
        for effect in self.taint.effects_of(info):
            if effect.kind not in EFFECT_KINDS:
                continue
            if len(effect.chain) > 1 and not lifecycle:
                continue
            self._emit(
                "MRJ001",
                effect.site,
                f"{cls.name}.{fn.name}() calls {effect.render_chain()}: "
                "output differs across re-executed attempts",
            )

    def _check_side_file(self, cls: ast.ClassDef, fn: ast.FunctionDef) -> None:
        if fn.name in ("setup", "cleanup"):
            return  # once-per-task reads are the taught fix
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "read_side_file"
            ):
                self._emit(
                    "MRJ006",
                    node,
                    f"{cls.name}.{fn.name}() streams a side file on every "
                    "call (full read + open overhead per record)",
                )

    def _check_unhashable_keys(
        self, cls: ast.ClassDef, writes: list[ast.Call]
    ) -> None:
        unhashable = (
            ast.List,
            ast.Dict,
            ast.Set,
            ast.ListComp,
            ast.DictComp,
            ast.SetComp,
        )
        for call in writes:
            if call.args and isinstance(call.args[0], unhashable):
                kind = type(call.args[0]).__name__.lower().replace("comp", "")
                self._emit(
                    "MRJ003",
                    call.args[0],
                    f"{cls.name} emits a {kind} as a key; the shuffle "
                    "cannot hash-partition or sort it",
                )

    def _check_input_mutation(
        self,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        mutations: list[tuple[int, int, tuple[str, ...]]],
    ) -> None:
        params = _method_params(fn)
        inputs = set(params[1:3])  # (key, value) / (key, values)
        for line, col, root in mutations:
            if len(root) == 1 and root[0] in inputs:
                marker = ast.Name(id=root[0])
                marker.lineno, marker.col_offset = line, col
                self._emit(
                    "MRJ002",
                    marker,
                    f"{cls.name}.{fn.name}() mutates its input "
                    f"'{root[0]}' in place",
                )

    def _check_emit_aliasing(
        self,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        writes: list[ast.Call],
        mutations: list[tuple[int, int, tuple[str, ...]]],
    ) -> None:
        mutated_roots = {root for _, _, root in mutations}
        for call in writes:
            for arg in call.args[:2]:
                root = root_symbol(arg)
                if root is not None and root in mutated_roots:
                    pretty = ".".join(root)
                    self._emit(
                        "MRJ004",
                        arg,
                        f"{cls.name}.{fn.name}() emits '{pretty}' and also "
                        "mutates it; the emitted pair aliases live state",
                    )

    def _check_cross_call_state(
        self,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        mutations: list[tuple[int, int, tuple[str, ...]]],
        global_names: set[str],
        cleanup_loads: set[str],
        already_flagged: set[str],
    ) -> None:
        # Any rebinding of self.attr inside map()/reduce() also carries
        # state across calls (e.g. running argmax), so count those too.
        assigned_attrs: list[tuple[int, int, str]] = []
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    root = root_symbol(target)
                    if root and root[0] == "self" and len(root) == 2:
                        assigned_attrs.append(
                            (node.lineno, node.col_offset, root[1])
                        )
        mutated_attrs = {
            root[1]
            for _, _, root in mutations
            if root and root[0] == "self" and len(root) == 2
        }
        seen_attrs = {a for _, _, a in assigned_attrs} | mutated_attrs
        for attr in sorted(seen_attrs):
            if attr in cleanup_loads or attr in already_flagged:
                continue
            already_flagged.add(attr)
            site = next(
                (
                    (line, col)
                    for line, col, a in assigned_attrs
                    if a == attr
                ),
                None,
            )
            if site is None:
                site = next(
                    (line, col)
                    for line, col, root in mutations
                    if root == ("self", attr)
                )
            marker = ast.Name(id=attr)
            marker.lineno, marker.col_offset = site
            self._emit(
                "MRJ005",
                marker,
                f"{cls.name}.{fn.name}() accumulates state in "
                f"'self.{attr}' across calls but no cleanup() flushes it",
            )
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                for name in node.names:
                    self._emit(
                        "MRJ005",
                        node,
                        f"{cls.name}.{fn.name}() mutates global '{name}'; "
                        "tasks run in separate processes, so globals "
                        "neither share nor survive",
                    )
    def _check_cross_call_state_via_helpers(
        self,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        methods: dict[str, ast.FunctionDef],
        cleanup_loads: set[str],
        already_flagged: set[str],
    ) -> None:
        for call, method_name in self._self_calls(fn):
            if method_name in _TASK_METHODS or method_name not in methods:
                continue
            writes = self._transitive_attr_writes(
                methods, method_name, set()
            )
            for attr in sorted(writes):
                if attr in cleanup_loads or attr in already_flagged:
                    continue
                already_flagged.add(attr)
                chain = " → ".join(
                    f"{part}()" for part in writes[attr]
                )
                self._emit(
                    "MRJ005",
                    call,
                    f"{cls.name}.{fn.name}() accumulates state in "
                    f"'self.{attr}' through {chain} across calls but no "
                    "cleanup() flushes it",
                )

    # -- interprocedural state helpers -----------------------------------
    @staticmethod
    def _self_calls(fn: ast.FunctionDef) -> list[tuple[ast.Call, str]]:
        out = []
        for node in walk_own_nodes(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                out.append((node, node.func.attr))
        return out

    def _direct_attr_writes(self, fn: ast.FunctionDef) -> set[str]:
        attrs: set[str] = set()
        for _line, _col, root in _mutations(fn):
            if root and root[0] == "self" and len(root) == 2:
                attrs.add(root[1])
        for node in walk_own_nodes(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    root = root_symbol(target)
                    if root and root[0] == "self" and len(root) == 2:
                        attrs.add(root[1])
        return attrs

    def _transitive_attr_writes(
        self,
        methods: dict[str, ast.FunctionDef],
        name: str,
        visited: set[str],
    ) -> dict[str, tuple[str, ...]]:
        """attr -> call chain (method names) by which ``name`` writes it."""
        if name in visited or name not in methods:
            return {}
        visited.add(name)
        fn = methods[name]
        writes: dict[str, tuple[str, ...]] = {
            attr: (name,) for attr in self._direct_attr_writes(fn)
        }
        for _call, callee in self._self_calls(fn):
            for attr, chain in self._transitive_attr_writes(
                methods, callee, visited
            ).items():
                writes.setdefault(attr, (name,) + chain)
        return writes

    def _transitive_self_loads(
        self,
        methods: dict[str, ast.FunctionDef],
        name: str,
        visited: set[str],
    ) -> set[str]:
        if name in visited or name not in methods:
            return set()
        visited.add(name)
        fn = methods[name]
        loads = _loads_of_self_attrs(fn)
        for _call, callee in self._self_calls(fn):
            loads |= self._transitive_self_loads(methods, callee, visited)
        return loads

    def _division_sites(
        self, info, visited: set[int]
    ) -> list[tuple[ast.BinOp, tuple[str, ...]]]:
        """Div/FloorDiv nodes reached from ``info``, with the helper
        chain that gets there.  Direct divisions report at the BinOp;
        transitive ones report at the *callsite* inside the caller so
        the finding lands in the combiner's own code."""
        if info is None:
            return []
        if id(info.node) in visited:
            return []
        visited.add(id(info.node))
        out: list[tuple[ast.BinOp, tuple[str, ...]]] = []
        for node in walk_own_nodes(info.node):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Div, ast.FloorDiv)
            ):
                out.append((node, ()))
            elif isinstance(node, ast.Call):
                callee = self.taint.graph.resolve_call(node, info)
                if callee is None:
                    continue
                nested = self._division_sites(callee, visited)
                if nested:
                    # Report once per callsite, at the call, naming the
                    # deepest chain that actually divides.
                    _, deepest = max(nested, key=lambda item: len(item[1]))
                    out.append((node, (callee.name,) + deepest))
        return out

    # -- combiner rules ---------------------------------------------------
    def _check_combiner_class(self, cls: ast.ClassDef) -> None:
        reduce_fn = next(
            (
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "reduce"
            ),
            None,
        )
        if reduce_fn is None:
            return
        reduce_info = self.taint.graph.info_for(reduce_fn)
        for site, chain in self._division_sites(reduce_info, set()):
            via = (
                f" through {' → '.join(f'{part}()' for part in chain)}"
                if chain
                else ""
            )
            self._emit(
                "MRJ007",
                site,
                f"{cls.name}.reduce() divides accumulated values{via} — "
                "ratios/averages are not associative, so running the "
                "combiner a different number of times changes the "
                "answer (mean of means is not the mean)",
            )
        ctx_names = _context_names(reduce_fn)
        for call in _context_writes(reduce_fn, ctx_names):
            if len(call.args) >= 2 and isinstance(call.args[1], ast.JoinedStr):
                self._emit(
                    "MRJ007",
                    call.args[1],
                    f"{cls.name}.reduce() emits a formatted string value; "
                    "a second combine round would re-combine text, not "
                    "numbers",
                )


def check_job_rules(path: str, tree: ast.Module) -> list[Finding]:
    """Run all MRJ0xx rules over one parsed module."""
    return _JobVisitor(path, tree).run()
