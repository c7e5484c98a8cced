"""Sparklite rules (MRS2xx): closure-capture analysis for RDD pipelines.

Spark's classic beginner traps translate one-to-one to sparklite, and
all of them live in the *closures* handed to transformations — code
that looks like it runs "here" but actually runs once per partition,
per attempt, on whichever executor holds the data:

==========  ==========================================================
``MRS201``  nondeterministic closure: a function passed to a
            transformation reaches an unseeded RNG / the wall clock
            (directly or through helpers) — recomputed lineage
            produces *different* data than the first run, so a cache
            eviction silently changes answers
``MRS202``  closure mutates captured driver state (the accumulator
            anti-pattern): ``counts`` updated inside ``map`` lives in
            the executor's copy; the driver's object never changes
``MRS203``  action called on a captured RDD inside a transformation
            closure — nested job launch per record; collect the small
            side first and capture the *data*
``MRS204``  non-associative operand passed to ``reduce``/
            ``reduce_by_key`` — combine order varies with
            partitioning, so subtraction/division/averaging change
            answers when ``num_partitions`` does
==========  ==========================================================

Closure resolution goes through the module call graph
(:mod:`repro.analysis.callgraph`): inline lambdas, module functions,
name-bound lambdas and ``self.method`` references all resolve to the
same :class:`FunctionInfo` the taint engine summarised, so MRS201 is
exactly as interprocedural as MRJ001.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import (
    FunctionInfo,
    captured_mutations,
    walk_own_nodes,
)
from repro.analysis.findings import Finding, Rule
from repro.analysis.taint import EFFECT_KINDS, ModuleTaint, dotted_name

SPARKLITE_RULES = {
    "MRS201": Rule(
        id="MRS201",
        family="sparklite",
        severity="error",
        title="nondeterministic closure in a transformation",
        hint="lineage recomputation re-runs the closure after executor "
        "loss or cache eviction; seed randomness outside the pipeline "
        "(or derive it from the record) so recomputed partitions equal "
        "the originals",
    ),
    "MRS202": Rule(
        id="MRS202",
        family="sparklite",
        severity="error",
        title="closure mutates captured driver state",
        hint="closures are shipped to executors; mutations update the "
        "executor's copy and the driver never sees them — aggregate "
        "with reduce_by_key()/count_by_key() instead of a captured "
        "accumulator",
    ),
    "MRS203": Rule(
        id="MRS203",
        family="sparklite",
        severity="error",
        title="action on a captured RDD inside a transformation",
        hint="an action inside a per-record closure launches a nested "
        "job for every record; collect() the smaller dataset once on "
        "the driver and capture the resulting list/dict, or use join()",
    ),
    "MRS204": Rule(
        id="MRS204",
        family="sparklite",
        severity="error",
        title="non-associative reduce operand",
        hint="reduce()/reduce_by_key() combine partial results in "
        "partition order, so the operand must be associative: a - b, "
        "a / b and (a + b) / 2 all change answers with num_partitions; "
        "emit (sum, count) pairs and divide after collecting",
    ),
}

#: RDD methods that take a user closure and run it remotely.
TRANSFORMATIONS = frozenset(
    {"map", "filter", "flat_map", "map_values"}
)

#: RDD methods that take a *combining* closure (must be associative).
REDUCERS = frozenset({"reduce", "reduce_by_key"})

#: RDD methods that trigger a job when called.
ACTIONS = frozenset(
    {"collect", "count", "take", "reduce", "sum", "count_by_key"}
)

#: Context methods producing an RDD.
_RDD_SOURCES = frozenset({"parallelize", "text_file"})

#: RDD methods producing another RDD (for RDD-typedness inference).
_RDD_PRODUCERS = TRANSFORMATIONS | frozenset(
    {
        "union",
        "reduce_by_key",
        "group_by_key",
        "distinct",
        "join",
        "cache",
        "unpersist",
    }
)

#: Non-associative binary operators for MRS204.
_NON_ASSOCIATIVE_OPS = (
    ast.Sub,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
    ast.MatMult,
    ast.LShift,
    ast.RShift,
)


class _RddNames:
    """Module-wide inference of which names are bound to RDDs.

    A name is RDD-typed when assigned from ``sc.parallelize(...)`` /
    ``sc.text_file(...)``, from a known RDD producer method on an
    already-RDD expression, or annotated ``: RDD``.  Inference iterates
    module-wide until stable so ``words = lines.flat_map(...)`` chains
    resolve regardless of order.
    """

    def __init__(self, tree: ast.Module):
        self.names: set[str] = set()
        assigns: list[tuple[str, ast.expr]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns.append((target.id, node.value))
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.annotation is not None
            ):
                try:
                    annotation = ast.unparse(node.annotation)
                except Exception:  # pragma: no cover
                    annotation = ""
                if "RDD" in annotation:
                    self.names.add(node.target.id)
        for arg in (
            a
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for a in node.args.args + node.args.posonlyargs
        ):
            if arg.annotation is not None:
                try:
                    annotation = ast.unparse(arg.annotation)
                except Exception:  # pragma: no cover
                    annotation = ""
                if "RDD" in annotation:
                    self.names.add(arg.arg)
        for _ in range(len(assigns) + 1):
            changed = False
            for name, value in assigns:
                if name not in self.names and self.is_rdd_expr(value):
                    self.names.add(name)
                    changed = True
            if not changed:
                break

    def is_rdd_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            method = node.func.attr
            if method in _RDD_SOURCES:
                return True
            if method in _RDD_PRODUCERS:
                return self.is_rdd_expr(node.func.value) or _looks_like_rdd(
                    node.func.value
                )
        return False


def _looks_like_rdd(node: ast.expr) -> bool:
    """Heuristic receiver check: a chain that *ends* in an RDD producer
    somewhere upstream (``sc.text_file(p).map(f)``)."""
    while isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _RDD_SOURCES:
            return True
        node = node.func.value
    return False


class _SparkliteVisitor:
    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.taint = ModuleTaint(tree)
        self.rdds = _RddNames(tree)
        self.findings: list[Finding] = []
        #: closures already reported per rule, to avoid one finding per
        #: pipeline stage reusing the same helper.
        self._seen: set[tuple[str, int]] = set()

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            SPARKLITE_RULES[rule_id].at(self.path, node, message)
        )

    # ------------------------------------------------------------------
    def run(self) -> list[Finding]:
        for node in ast.walk(self.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            method = node.func.attr
            if not self._is_rdd_call(node):
                continue
            if method in TRANSFORMATIONS and node.args:
                self._check_closure(node, method, node.args[0])
            if method in REDUCERS and node.args:
                self._check_reducer(node, method, node.args[0])
        return self.findings

    def _is_rdd_call(self, node: ast.Call) -> bool:
        receiver = node.func.value
        return self.rdds.is_rdd_expr(receiver) or _looks_like_rdd(receiver)

    def _resolve(self, ref: ast.expr) -> FunctionInfo | None:
        caller = None
        # Attribute refs like self.tokenize need the enclosing method;
        # find it by scanning the indexed functions for ownership.
        for info in self.taint.graph.functions:
            for sub in walk_own_nodes(info.node):
                if sub is ref:
                    caller = info
                    break
            if caller is not None:
                break
        return self.taint.graph.lookup(ref, caller)

    # -- MRS201 / MRS202 / MRS203 --------------------------------------
    def _check_closure(
        self, call: ast.Call, method: str, ref: ast.expr
    ) -> None:
        info = self._resolve(ref)
        if info is None:
            return
        label = info.name if info.name != "<lambda>" else "the closure"
        # MRS201: nondeterminism, interprocedural via the taint engine.
        for effect in self.taint.effects_of(info):
            if effect.kind not in EFFECT_KINDS:
                continue
            if not self._first_report("MRS201", effect.site):
                continue
            self._emit(
                "MRS201",
                effect.site,
                f".{method}({label}) ships a closure that calls "
                f"{effect.render_chain()}: recomputing a lost partition "
                "produces different records than the first run",
            )
        # MRS202: mutating captured driver state.
        for site, name in captured_mutations(info.node):
            if not self._first_report("MRS202", site):
                continue
            self._emit(
                "MRS202",
                site,
                f".{method}({label}) mutates captured '{name}'; the "
                "update happens on the executor's copy and never reaches "
                "the driver",
            )
        # MRS203: actions on captured RDDs inside the closure.
        for sub in walk_own_nodes(info.node):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ACTIONS
            ):
                continue
            receiver = sub.func.value
            if self.rdds.is_rdd_expr(receiver) or _looks_like_rdd(receiver):
                if not self._first_report("MRS203", sub):
                    continue
                target = dotted_name(receiver) or "an RDD"
                self._emit(
                    "MRS203",
                    sub,
                    f".{method}({label}) calls {target}.{sub.func.attr}() "
                    "per record — a nested job launch for every input; "
                    "collect the small side once on the driver instead",
                )

    def _first_report(self, rule: str, site: ast.AST) -> bool:
        key = (rule, id(site))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    # -- MRS204 ---------------------------------------------------------
    def _check_reducer(
        self, call: ast.Call, method: str, ref: ast.expr
    ) -> None:
        info = self._resolve(ref)
        if info is None:
            return
        site = self._non_associative_site(info, set())
        if site is None:
            return
        label = info.name if info.name != "<lambda>" else "the operand"
        op = site.op.__class__.__name__.lower()
        self._emit(
            "MRS204",
            ref if hasattr(ref, "lineno") else call,
            f".{method}({label}) combines with a non-associative "
            f"operator ({op}); partial results merge in partition order, "
            "so the answer changes with num_partitions",
        )

    def _non_associative_site(
        self, info: FunctionInfo, visited: set[int]
    ) -> ast.BinOp | None:
        """First Div/Sub/... reachable from the operand, helpers included."""
        if id(info.node) in visited:
            return None
        visited.add(id(info.node))
        params = set(info.params)
        for node in walk_own_nodes(info.node):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, _NON_ASSOCIATIVE_OPS
            ):
                # Only flag arithmetic that involves the combined values
                # (a constant scale like x * 2 - 1 on one input would be
                # a mapper's business; reduce operands combine *both*).
                names = {
                    leaf.id
                    for leaf in ast.walk(node)
                    if isinstance(leaf, ast.Name)
                }
                if len(names & params) >= 2 or not params:
                    return node
            elif isinstance(node, ast.Call):
                callee = self.taint.graph.resolve_call(node, info)
                if callee is not None:
                    nested = self._non_associative_site(callee, visited)
                    if nested is not None:
                        return nested
        return None


def check_sparklite_rules(path: str, tree: ast.Module) -> list[Finding]:
    """Run all MRS2xx rules over one parsed module."""
    return _SparkliteVisitor(path, tree).run()
