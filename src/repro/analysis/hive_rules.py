"""Hive rules (MRH3xx): UDFs and query-embedded Python.

HiveLite compiles micro-SQL to MapReduce, so every guarantee the MRJ
rules defend — deterministic re-execution, stateless per-record calls —
must also hold for the Python that *rides along with a query*:

==========  ==========================================================
``MRH301``  nondeterministic UDF: a function registered with
            ``register_udf`` (or passed live to ``lint_udfs``) reaches
            an unseeded RNG / wall clock / entropy source — the UDF
            runs map-side per attempt, so speculative re-execution
            writes different rows
``MRH302``  stateful UDF: the function carries state across calls
            (``global``/``nonlocal`` writes, mutation of captured
            objects, default-argument accumulators) — rows are
            processed in partition order on executors, so the state
            neither aggregates correctly nor reaches the driver
``MRH303``  nondeterministic value interpolated into SQL text handed
            to ``execute()``/``explain()`` — the query itself then
            differs run-to-run, which defeats plan caching, auditing
            and the course's replayability contract
==========  ==========================================================

Like the MRS rules, resolution is interprocedural: the module call
graph chases ``register_udf("n", helper)`` to the helper, and the
taint engine's summaries make a UDF that *calls* ``noise()`` exactly as
guilty as one that calls ``random.random()`` itself.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

from repro.analysis.callgraph import (
    FunctionInfo,
    captured_mutations,
    walk_own_nodes,
)
from repro.analysis.cfg import header_expressions, is_header
from repro.analysis.findings import Finding, Rule, sort_findings
from repro.analysis.taint import (
    EFFECT_KINDS,
    KIND_HASH_ORDER,
    ModuleTaint,
)

HIVE_RULES = {
    "MRH301": Rule(
        id="MRH301",
        family="hive",
        severity="error",
        title="nondeterministic UDF",
        hint="a UDF runs map-side once per row per attempt; speculation "
        "and failure recovery re-run it, so it must be a pure function "
        "of its argument — derive randomness from the row value or "
        "precompute it outside the query",
    ),
    "MRH302": Rule(
        id="MRH302",
        family="hive",
        severity="error",
        title="UDF carries state across calls",
        hint="UDFs are shipped to executors; global/captured/default-arg "
        "state is per-process and per-attempt, so it neither survives "
        "nor aggregates — use GROUP BY with the built-in aggregates "
        "for anything that accumulates",
    ),
    "MRH303": Rule(
        id="MRH303",
        family="hive",
        severity="error",
        title="nondeterministic value interpolated into SQL",
        hint="the query string must be stable run-to-run: compute "
        "thresholds/labels deterministically (e.g. from JobConf) before "
        "formatting them into the SQL",
    ),
}

#: Methods treated as SQL entry points for MRH303.
_SQL_SINKS = frozenset({"execute", "explain"})

def _state_carriers(info: FunctionInfo) -> list[tuple[ast.AST, str]]:
    """(site, description) pairs where the UDF keeps cross-call state."""
    node = info.node
    out: list[tuple[ast.AST, str]] = []
    if isinstance(node, ast.Lambda):
        mutable_defaults: list[ast.expr] = []
    else:
        mutable_defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
    for default in mutable_defaults:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in ("list", "dict", "set", "defaultdict")
        ):
            out.append(
                (default, "a mutable default argument (shared across calls)")
            )
    for sub in walk_own_nodes(node):
        if isinstance(sub, (ast.Global, ast.Nonlocal)):
            scope = type(sub).__name__.lower()
            out.extend((sub, f"{scope} '{name}'") for name in sub.names)
    out.extend(
        (site, f"captured '{name}'")
        for site, name in captured_mutations(node)
    )
    return out


class _HiveVisitor:
    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.taint = ModuleTaint(tree)
        self.findings: list[Finding] = []

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(HIVE_RULES[rule_id].at(self.path, node, message))

    # ------------------------------------------------------------------
    def run(self) -> list[Finding]:
        for name, info, site in self._udf_registrations():
            self.check_udf(name, info, emit_at=site)
        self._check_sql_sinks()
        return self.findings

    def _enclosing(self, ref: ast.AST) -> FunctionInfo | None:
        for info in self.taint.graph.functions:
            for sub in walk_own_nodes(info.node):
                if sub is ref:
                    return info
        return None

    def _udf_registrations(self):
        """Every ``<x>.register_udf("name", fn)`` resolvable in-module."""
        out = []
        for node in ast.walk(self.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register_udf"
                and len(node.args) >= 2
            ):
                continue
            name = (
                node.args[0].value
                if isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                else "<udf>"
            )
            ref = node.args[1]
            info = self.taint.graph.lookup(ref, self._enclosing(ref))
            if info is not None:
                out.append((name, info, node))
        return out

    # -- MRH301 / MRH302 -------------------------------------------------
    def check_udf(
        self, name: str, info: FunctionInfo, emit_at: ast.AST | None = None
    ) -> None:
        for effect in self.taint.effects_of(info):
            if effect.kind not in EFFECT_KINDS:
                continue
            self._emit(
                "MRH301",
                effect.site,
                f"UDF {name}() calls {effect.render_chain()}: re-executed "
                "map attempts write different rows for the same input",
            )
        for site, what in _state_carriers(info):
            self._emit(
                "MRH302",
                site,
                f"UDF {name}() accumulates state in {what}; executors "
                "process rows independently, so the state neither "
                "aggregates nor reaches the driver",
            )

    # -- MRH303 ----------------------------------------------------------
    def _check_sql_sinks(self) -> None:
        for info in self.taint.graph.functions:
            analysis = self.taint.analysis_for(info)
            envs = analysis.statement_envs()
            for stmt in analysis.cfg.statements_in_flow_order():
                env = envs.get(id(stmt), {})
                self._check_stmt_sinks(stmt, env, analysis)
        # Module-level code: straight-line environment approximation.
        analysis = self.taint.analysis_for(None)
        env: dict = {}
        for stmt in self.tree.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            self._check_stmt_sinks(stmt, env, analysis, header_ok=True)
            analysis._statement(stmt, env)

    def _check_stmt_sinks(
        self, stmt, env: dict, analysis, header_ok: bool = False
    ) -> None:
        if is_header(stmt):
            exprs = [
                e for e in header_expressions(stmt) if isinstance(e, ast.expr)
            ]
        elif header_ok:
            # Raw module-level statements: walk everything (bodies of
            # module-level ifs/loops included; the env is approximate).
            exprs = [
                child
                for child in ast.walk(stmt)
                if isinstance(child, ast.expr)
            ]
        else:
            exprs = [
                child
                for child in ast.iter_child_nodes(stmt)
                if isinstance(child, ast.expr)
            ]
        seen: set[int] = set()
        for expr in exprs:
            for node in ast.walk(expr):
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SQL_SINKS
                    and node.args
                ):
                    continue
                sql_arg = node.args[0]
                if isinstance(sql_arg, ast.Constant):
                    continue  # literal SQL is always stable
                taint = analysis.eval_taint(sql_arg, dict(env), record=False)
                bad = taint & (EFFECT_KINDS | {KIND_HASH_ORDER})
                if not bad:
                    continue
                kinds = ", ".join(sorted(bad))
                self._emit(
                    "MRH303",
                    sql_arg,
                    f".{node.func.attr}(...) receives SQL text built from "
                    f"a nondeterministic value ({kinds}); the query "
                    "differs run-to-run",
                )


def check_hive_rules(path: str, tree: ast.Module) -> list[Finding]:
    """Run all MRH3xx rules over one parsed module."""
    return _HiveVisitor(path, tree).run()


def lint_udf_callables(udfs: dict) -> list[Finding]:
    """Lint *live* UDF callables (the ``HiveLite.lint_udfs`` backend).

    Source is recovered with :mod:`inspect` per defining module, so a
    UDF's same-module helpers resolve exactly as they do when linting
    the file.  Callables whose source cannot be recovered (builtins,
    C extensions, REPL lambdas) are skipped — they cannot be analysed,
    and the registration API already guarantees they are callable.
    """
    by_module: dict = {}
    for name, fn in sorted(udfs.items()):
        module = inspect.getmodule(fn)
        try:
            if module is not None and hasattr(module, "__file__"):
                source = inspect.getsource(module)
                path = module.__file__ or f"<module {module.__name__}>"
            else:
                source = textwrap.dedent(inspect.getsource(fn))
                path = f"<udf {name}>"
        except (OSError, TypeError):
            continue
        by_module.setdefault((path, source), []).append((name, fn))
    findings: list[Finding] = []
    for (path, source), fns in by_module.items():
        try:
            tree = ast.parse(source)
        except SyntaxError:  # pragma: no cover - inspect returned junk
            continue
        visitor = _HiveVisitor(path, tree)
        for name, fn in fns:
            info = _find_function(visitor.taint, fn)
            if info is not None:
                visitor.check_udf(name, info)
        findings.extend(visitor.findings)
    return sort_findings(findings)


def _find_function(taint: ModuleTaint, fn) -> FunctionInfo | None:
    qualname = getattr(fn, "__qualname__", None)
    code = getattr(fn, "__code__", None)
    for info in taint.graph.functions:
        if qualname is not None and info.qualname == qualname:
            return info
    if code is not None:
        for info in taint.graph.functions:
            if info.node.lineno == code.co_firstlineno:
                return info
    return None
