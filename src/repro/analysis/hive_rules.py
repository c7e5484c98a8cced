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
            objects or of ``self``, default-argument accumulators) —
            rows are processed in partition order on executors, so the
            state neither aggregates correctly nor reaches the driver
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

from repro.analysis.callgraph import FunctionInfo, describe_state, through
from repro.analysis.findings import Finding, Rule, sort_findings
from repro.analysis.taint import (
    EFFECT_KINDS,
    KIND_HASH_ORDER,
    ModuleTaint,
    own_expressions,
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

class _HiveVisitor:
    def __init__(self, path: str, taint: ModuleTaint):
        self.path = path
        self.taint = taint
        self.findings: list[Finding] = []

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.findings.append(HIVE_RULES[rule_id].at(self.path, node, message))

    # ------------------------------------------------------------------
    def run(self) -> list[Finding]:
        for name, info in self._udf_registrations():
            self.check_udf(name, info)
        self._check_sql_sinks()
        return self.findings

    def _udf_registrations(self):
        """Every ``<x>.register_udf("name", fn)`` resolvable in-module."""
        for node in ast.walk(self.taint.tree):
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
            info = self.taint.graph.lookup(node.args[1])
            if info is not None:
                yield name, info

    # -- MRH301 / MRH302 -------------------------------------------------
    def check_udf(self, name: str, info: FunctionInfo) -> None:
        for effect in self.taint.effects_of(info):
            self._emit(
                "MRH301",
                effect.site,
                f"UDF {name}() calls {effect.render_chain()}: re-executed "
                "map attempts write different rows for the same input",
            )
        # MRH302: one finding per site and carrier; a helper's carriers
        # report at the call in the UDF that reaches them.
        reported = set()
        for site, _, chain, via, what in self.taint.graph.kept_state(info):
            at = via or site
            if (id(at), what) in reported:
                continue
            reported.add((id(at), what))
            self._emit(
                "MRH302",
                at,
                f"UDF {name}() accumulates state in {describe_state(what)}"
                f"{through(chain)}; executors process rows independently, "
                "so the state neither aggregates nor reaches the driver",
            )

    # -- MRH303 ----------------------------------------------------------
    def _check_sql_sinks(self) -> None:
        # Every function, then the module body (``None``), on one walk.
        # A scope reports only sinks inside its own node, so one whose
        # subtree holds none gets no per-statement environments.
        for info in [*self.taint.graph.functions, None]:
            scope_node = self.taint.tree if info is None else info.node
            if next(_sink_calls(scope_node), None) is None:
                continue
            analysis = self.taint.analysis_for(info)
            for stmt, env in analysis.statement_envs():
                self._check_stmt_sinks(stmt, env, analysis)

    def _check_stmt_sinks(self, stmt, env: dict, analysis) -> None:
        for expr in own_expressions(stmt):
            for node in _sink_calls(expr):
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


def _sink_calls(node: ast.AST):
    """The ``.execute(...)``/``.explain(...)`` calls with arguments in
    ``node``."""
    for call in ast.walk(node):
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in _SQL_SINKS
            and call.args
        ):
            yield call


def check_hive_rules(path: str, taint: ModuleTaint) -> list[Finding]:
    """Run all MRH3xx rules over one analysed module."""
    return _HiveVisitor(path, taint).run()


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
        visitor = _HiveVisitor(path, ModuleTaint(tree))
        for name, fn in fns:
            info = _find_function(visitor.taint, fn)
            if info is not None:
                visitor.check_udf(name, info)
        findings.extend(visitor.findings)
    return sort_findings(findings)


def _find_function(taint: ModuleTaint, fn) -> FunctionInfo | None:
    """The analysed function ``fn`` is: the one with its qualname, or,
    when several share it (lambdas) or none has it, the one on its
    first line."""
    qualname = getattr(fn, "__qualname__", None)
    line = getattr(getattr(fn, "__code__", None), "co_firstlineno", None)
    named = [info for info in taint.graph.functions if info.qualname == qualname]
    if len(named) == 1:
        return named[0]
    candidates = named or taint.graph.functions
    return next((info for info in candidates if info.node.lineno == line), None)
