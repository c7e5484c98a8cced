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
            ``read_side_file`` reached from ``map``/``reduce``, or from
            the loop of an overridden ``run()`` over its split
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

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    binding_names,
    mutations,
    root_symbol,
    through,
)
from repro.analysis.findings import Finding, Rule
from repro.analysis.taint import ModuleTaint

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

#: Hadoop's per-split loop: a ``Mapper.run(split, context)`` override
#: runs per-record code in the body of its loop over the split.
_RUN_METHOD = "run"


def _base_names(node: ast.ClassDef, graph: CallGraph) -> list[str]:
    """The base names of ``node`` and of its same-module ancestors."""
    return [
        base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        for klass in [node, *graph.bases_of(node)]
        for base in klass.bases
    ]


def _is_task_class(node: ast.ClassDef, graph: CallGraph) -> bool:
    """Does this class look like a Mapper/Reducer/Combiner subclass?"""
    return any(
        name.endswith(("Mapper", "Reducer", "Combiner"))
        for name in _base_names(node, graph)
    )


def _is_job_class(node: ast.ClassDef, graph: CallGraph) -> bool:
    return any(name.endswith("Job") for name in _base_names(node, graph))


def _method_params(fn: ast.FunctionDef) -> list[str]:
    return [a.arg for a in fn.args.args]


def _enters_lifecycle(chain: tuple[str, ...]) -> bool:
    """Does a helper chain from a per-record method go through a
    lifecycle method first (whose code is that method's business)?"""
    return bool(chain) and chain[0] in _TASK_METHODS


def _context_names(fn: ast.FunctionDef) -> set[str]:
    """Names through which ``fn`` can reach the framework Context."""
    names = {"context", "ctx"}
    params = _method_params(fn)
    if fn.name in ("map", "reduce") and len(params) >= 4:
        names.add(params[3])
    elif fn.name == _RUN_METHOD and len(params) >= 3:
        names.add(params[2])
    elif fn.name in ("setup", "cleanup") and len(params) >= 2:
        names.add(params[1])
    return names


def _record_loops(fn: ast.FunctionDef) -> list[ast.For | ast.AsyncFor]:
    """The loops of a ``run(self, split, context)`` override over its
    split: ``for ... in split`` (the records) or ``for ... in
    split.lines()`` and the like."""
    params = _method_params(fn)
    if fn.name != _RUN_METHOD or len(params) < 2:
        return []
    loops = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            source = node.iter
            if isinstance(source, ast.Call) and isinstance(source.func, ast.Attribute):
                source = source.func.value  # split.lines()
            if isinstance(source, ast.Name) and source.id == params[1]:
                loops.append(node)
    return loops


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


class _JobVisitor:
    def __init__(self, path: str, taint: ModuleTaint):
        self.path = path
        self.taint = taint
        self.findings: list[Finding] = []

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(JOB_RULES[rule_id].at(self.path, node, message))

    # -- per-module entry -------------------------------------------------
    def run(self) -> list[Finding]:
        graph = self.taint.graph
        scopes = [
            s for s in graph.scope.walk() if isinstance(s.node, ast.ClassDef)
        ]
        # Combiners: the classes a Job subclass wires as ``combiner = X``,
        # plus any task class whose name says it is one.
        wired = {
            graph.resolve_name(value.id, scope)
            for scope in scopes
            if _is_job_class(scope.node, graph)
            for value, _ in scope.bindings.get("combiner", ())
            if isinstance(value, ast.Name)
        }
        for scope in scopes:
            node = scope.node
            task = _is_task_class(node, graph)
            if task:
                self._check_task_class(node)
            if node in wired or (task and "Combiner" in node.name):
                self._check_combiner_class(node)
        return self.findings

    # -- task-class rules -------------------------------------------------
    def _check_task_class(self, cls: ast.ClassDef) -> None:
        graph = self.taint.graph
        # The task's own state lives on its class and same-module bases;
        # a constructor the code calls (Foo() → Foo.__init__) writes and
        # reads another object's.
        lineage = [cls, *graph.bases_of(cls)]
        cleanup = graph.method_on(cls, "cleanup")
        cleanup_loads = {
            node.attr
            for node, owner, _, via in (
                graph.walk_reachable(cleanup) if cleanup else ()
            )
            if (via is None or graph.self_class(owner) in lineage)
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
        stateful_attrs_flagged: set[str] = set()
        for name, info in graph.methods_of(cls).items():
            fn = info.node
            self._check_nondeterminism(cls, info)
            ctx_names = _context_names(fn)
            writes = _context_writes(fn, ctx_names)
            mutated = list(mutations(ast.walk(fn)))
            self._check_unhashable_keys(cls, writes)
            self._check_emit_aliasing(cls, fn, writes, mutated)
            if name in _PER_CALL_METHODS:
                self._check_side_file(cls, info)
                self._check_input_mutation(
                    cls, fn, mutated, set(_method_params(fn)[1:3])
                )
                self._check_cross_call_state(
                    cls, info, cleanup_loads, stateful_attrs_flagged
                )
            elif loops := _record_loops(fn):
                # The loop body is the per-record scope; its targets
                # (key, value) are the inputs.
                body = {
                    id(node)
                    for loop in loops
                    for stmt in loop.body
                    for node in ast.walk(stmt)
                }
                self._check_side_file(cls, info, body)
                self._check_input_mutation(
                    cls,
                    fn,
                    [(site, root) for site, root in mutated if id(site) in body],
                    set().union(*(binding_names(loop.target) for loop in loops)),
                )

    def _check_nondeterminism(
        self, cls: ast.ClassDef, info: FunctionInfo
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
        lifecycle = info.name in _TASK_METHODS
        for effect in self.taint.effects_of(info):
            if len(effect.chain) > 1 and not lifecycle:
                continue
            self._emit(
                "MRJ001",
                effect.site,
                f"{cls.name}.{info.name}() calls {effect.render_chain()}: "
                "output differs across re-executed attempts",
            )

    def _check_side_file(
        self, cls: ast.ClassDef, info: FunctionInfo, within: set[int] | None = None
    ) -> None:
        """MRJ006: a side-file read that running a per-record method
        reaches, in its code or a helper's; one ``setup()``/``cleanup()``
        makes is the taught fix.  A helper's reports at the call in the
        method that leads there.  ``within``: the ids of the method's
        nodes that run per record (all of them when None)."""
        reported: set[int] = set()
        for node, _, chain, via in self.taint.graph.walk_reachable(info):
            at = via or node
            if (
                _enters_lifecycle(chain)
                or (within is not None and id(at) not in within)
                or id(at) in reported
                or not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Attribute)
                or node.func.attr != "read_side_file"
            ):
                continue
            reported.add(id(at))
            self._emit(
                "MRJ006",
                at,
                f"{cls.name}.{info.name}() streams a side file{through(chain)} "
                f"{'on every call' if within is None else 'for every record'} "
                "(full read + open overhead per record)",
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
        mutated: list[tuple[ast.AST, tuple[str, ...]]],
        inputs: set[str],
    ) -> None:
        """MRJ002: an in-place edit of an input name: ``(key, value)`` /
        ``(key, values)``, or a ``run()`` loop's record."""
        for site, root in mutated:
            if len(root) == 1 and root[0] in inputs:
                self._emit(
                    "MRJ002",
                    site,
                    f"{cls.name}.{fn.name}() mutates its input "
                    f"'{root[0]}' in place",
                )

    def _check_emit_aliasing(
        self,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        writes: list[ast.Call],
        mutated: list[tuple[ast.AST, tuple[str, ...]]],
    ) -> None:
        mutated_roots = {root for _, root in mutated}
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
        info: FunctionInfo,
        cleanup_loads: set[str],
        already_flagged: set[str],
    ) -> None:
        """MRJ005: the ``self.<attr>`` writes and ``global`` declarations
        that running a per-record method keeps between calls, in its own
        code or a helper's.  A helper's reports at the call in the method
        that leads there; a lifecycle method's writes are that method's
        business."""
        #: attr -> (rank, the site to report, the helper chain)
        nearest: dict[str, tuple[tuple, ast.AST, tuple[str, ...]]] = {}
        globals_at: set[tuple[int, str]] = set()
        for site, _, chain, via, what in self.taint.graph.kept_state(info):
            kind, name = what
            if _enters_lifecycle(chain):
                continue
            at = via or site
            if kind == "global" and (id(at), name) not in globals_at:
                globals_at.add((id(at), name))
                self._emit(
                    "MRJ005",
                    at,
                    f"{cls.name}.{info.name}() mutates global '{name}'"
                    f"{through(chain)}; tasks run in separate processes, "
                    "so globals neither share nor survive",
                )
            elif kind == "self":
                # Own code first, then the shortest chain; an assignment
                # is the preferred site, then the earliest.
                rank = (
                    via is not None,
                    len(chain),
                    not isinstance(site, (ast.Assign, ast.AugAssign)),
                    at.lineno,
                    at.col_offset,
                )
                if name not in nearest or rank < nearest[name][0]:
                    nearest[name] = (rank, at, chain)
        for attr in sorted(nearest):
            if attr in cleanup_loads or attr in already_flagged:
                continue
            already_flagged.add(attr)
            _, at, chain = nearest[attr]
            self._emit(
                "MRJ005",
                at,
                f"{cls.name}.{info.name}() accumulates state in "
                f"'self.{attr}'{through(chain)} across calls but no "
                "cleanup() flushes it",
            )

    # -- combiner rules ---------------------------------------------------
    def _check_combiner_class(self, cls: ast.ClassDef) -> None:
        reduce_info = self.taint.graph.methods_of(cls).get("reduce")
        if reduce_info is None:
            return
        # A division in reduce() reports at the BinOp; one in a helper at
        # the call in reduce() that leads there, naming the deepest chain
        # that divides, so the finding lands in the combiner's own code.
        deepest: dict[ast.AST, tuple[str, ...]] = {}
        for node, _, chain, via in self.taint.graph.walk_reachable(reduce_info):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Div, ast.FloorDiv)
            ):
                site = via or node
                if site not in deepest or len(chain) > len(deepest[site]):
                    deepest[site] = chain
        for site, chain in deepest.items():
            self._emit(
                "MRJ007",
                site,
                f"{cls.name}.reduce() divides accumulated values"
                f"{through(chain)} — "
                "ratios/averages are not associative, so running the "
                "combiner a different number of times changes the "
                "answer (mean of means is not the mean)",
            )
        ctx_names = _context_names(reduce_info.node)
        for call in _context_writes(reduce_info.node, ctx_names):
            if len(call.args) >= 2 and isinstance(call.args[1], ast.JoinedStr):
                self._emit(
                    "MRJ007",
                    call.args[1],
                    f"{cls.name}.reduce() emits a formatted string value; "
                    "a second combine round would re-combine text, not "
                    "numbers",
                )


def check_job_rules(path: str, taint: ModuleTaint) -> list[Finding]:
    """Run all MRJ0xx rules over one analysed module."""
    return _JobVisitor(path, taint).run()
