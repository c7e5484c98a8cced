"""The mrlint driver: walk files, run rule families, apply suppressions.

Entry points
============

- :func:`lint_paths` — lint explicit files/directories (default: the
  student-facing job rules; pass ``families`` to change);
- :func:`lint_jobs` — the reference jobs (``repro.jobs``) plus the
  repository's ``examples/`` directory, job rules;
- :func:`lint_self` — the engine auditing itself: ``repro.hdfs``,
  ``repro.mapreduce``, ``repro.faults``, ``repro.sim``, engine rules;
- :func:`lint_source` — one in-memory source string (tests, notebooks).

Suppressions
============

A finding is suppressed by a comment on the flagged line, or on a
comment-only line directly above it::

    extras = sorted(meta.locations)  # repro: lint-ok[MRE101] audited: sorted

    # repro: lint-ok[MRJ006] deliberate anti-pattern for the assignment
    text = context.read_side_file(path)

Matching is statement-aware: the marker covers every line of the
statement it attaches to, so a comment above a decorated function
reaches the ``def`` line, and a trailing marker on any line of a
multi-line call covers the whole call.  For compound statements the
marker covers the header only, never the nested body.

``lint-ok[*]`` suppresses every rule on that line.  The justification
text after the bracket is required by convention (CI diffs review it),
not enforced.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.engine_rules import ENGINE_RULES, check_engine_rules
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.hive_rules import HIVE_RULES, check_hive_rules
from repro.analysis.job_rules import JOB_RULES, check_job_rules
from repro.analysis.sparklite_rules import (
    SPARKLITE_RULES,
    check_sparklite_rules,
)
from repro.analysis.taint import ModuleTaint
from repro.util.errors import ConfigError

#: rule-id -> Rule, all families.
ALL_RULES = {
    **JOB_RULES,
    **ENGINE_RULES,
    **SPARKLITE_RULES,
    **HIVE_RULES,
}

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok\[([A-Za-z0-9*,\s]+)\]")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")

_FAMILY_CHECKERS = {
    "jobs": check_job_rules,
    "engine": check_engine_rules,
    "sparklite": check_sparklite_rules,
    "hive": check_hive_rules,
}

#: The engine packages `--self` audits (relative to the repro package).
SELF_AUDIT_PACKAGES = ("hdfs", "mapreduce", "faults", "sim", "sparklite", "hive")


def _statement_ranges(tree: ast.AST) -> list[tuple[int, int, int]]:
    """``(start, header_end, end)`` line triples, one per statement.

    ``start`` includes decorator lines (a marker above ``@functools.cache``
    reaches the ``def`` it decorates); ``header_end`` is the last line
    before the first nested statement, so for a simple statement it equals
    ``end`` (the whole statement, however many lines it wraps across) and
    for a compound statement it stops at the header — a marker above a
    ``def`` must not silence the entire body.
    """
    ranges = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        start = node.lineno
        for deco in getattr(node, "decorator_list", []):
            start = min(start, deco.lineno)
        end = node.end_lineno or node.lineno
        children: list[ast.AST] = []
        for field in ("body", "orelse", "finalbody", "handlers"):
            children.extend(getattr(node, field, None) or [])
        if children:
            header_end = min(child.lineno for child in children) - 1
        else:
            header_end = end
        ranges.append((start, header_end, end))
    return sorted(ranges)


def _marker_target(
    ranges: list[tuple[int, int, int]], lineno: int, comment_only: bool
) -> tuple[int, int, int] | None:
    """The statement a suppression marker on ``lineno`` applies to.

    A comment-only marker covers the next statement to *start* after it;
    a trailing marker covers the innermost statement whose effective
    lines (start..header_end) contain it.
    """
    if comment_only:
        best = None
        for rng in ranges:
            if rng[0] > lineno and (best is None or rng[0] < best[0]):
                best = rng
        return best
    best = None
    for rng in ranges:
        if rng[0] <= lineno <= rng[1] and (best is None or rng[0] >= best[0]):
            best = rng
    return best


def _suppressions_by_line(source: str, tree: ast.AST) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed *for that line*.

    Statement-aware: a marker (trailing or on the comment line above)
    covers every line of the statement it attaches to, so findings
    anchored mid-way through a multi-line call, or on the ``def`` line
    of a decorated function, are reached.
    """
    ranges = _statement_ranges(tree)
    covered: dict[int, set[str]] = {}

    def cover(lines, rules: set[str]) -> None:
        for ln in lines:
            covered.setdefault(ln, set()).update(rules)

    pending: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        comment_only = bool(_COMMENT_ONLY_RE.match(text))
        rules_here: set[str] = set()
        if match:
            rules_here = {
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            }
        if rules_here:
            cover([lineno], rules_here)
            target = _marker_target(ranges, lineno, comment_only)
            if target is not None:
                start, header_end, _end = target
                cover(range(start, header_end + 1), rules_here)
        # Line-based fallback keeps stacked comment blocks working even
        # when the statement table has no entry (e.g. markers trailing
        # an `else:` line).
        if comment_only:
            pending |= rules_here
            continue
        if pending:
            cover([lineno], pending)
        pending = set()
    return covered


def _apply_suppressions(
    findings: list[Finding], source: str, tree: ast.AST
) -> list[Finding]:
    covered = _suppressions_by_line(source, tree)
    kept = []
    for finding in findings:
        rules = covered.get(finding.line, set())
        if "*" in rules or finding.rule in rules:
            continue
        kept.append(finding)
    return kept


def lint_source(
    source: str,
    path: str = "<string>",
    families: tuple[str, ...] = ("jobs",),
) -> list[Finding]:
    """Lint one source string; raises ConfigError on syntax errors."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ConfigError(f"{path}: cannot lint, not valid Python: {exc}")
    findings: list[Finding] = []
    taint = ModuleTaint(tree)  # one analysis, shared by every family
    for family in families:
        try:
            checker = _FAMILY_CHECKERS[family]
        except KeyError:
            raise ConfigError(
                f"unknown rule family {family!r} "
                f"(choose from {sorted(_FAMILY_CHECKERS)})"
            )
        findings.extend(checker(path, taint))
    return sort_findings(_apply_suppressions(findings, source, tree))


def _iter_python_files(target: Path):
    if target.is_file():
        yield target
    elif target.is_dir():
        yield from sorted(target.rglob("*.py"))
    else:
        raise ConfigError(f"lint target does not exist: {target}")


def lint_paths(
    paths: list[str | Path],
    families: tuple[str, ...] = ("jobs",),
) -> list[Finding]:
    """Lint explicit files or directories with the given rule families."""
    findings: list[Finding] = []
    for raw in paths:
        for file in _iter_python_files(Path(raw)):
            source = file.read_text(encoding="utf-8")
            findings.extend(lint_source(source, str(file), families))
    return sort_findings(findings)


def _repro_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def lint_self() -> list[Finding]:
    """Audit the engine itself with the MRE1xx rules."""
    root = _repro_root()
    targets = [root / pkg for pkg in SELF_AUDIT_PACKAGES]
    return lint_paths(targets, families=("engine",))


def lint_jobs() -> list[Finding]:
    """Lint the reference jobs and the repository's examples/ directory."""
    root = _repro_root()
    targets: list[Path] = [root / "jobs"]
    # src/repro -> repo root; examples/ only exists in a source checkout.
    examples = root.parents[1] / "examples"
    if examples.is_dir():
        targets.append(examples)
    return lint_paths(targets, families=("jobs",))


def lint_pipelines() -> list[Finding]:
    """Lint the examples/ pipelines with the sparklite + hive rules.

    The reference RDD pipelines and HiveLite scripts are held to the
    same bar as the reference jobs: clean under MRS2xx/MRH3xx.
    """
    root = _repro_root()
    examples = root.parents[1] / "examples"
    if not examples.is_dir():
        return []
    return lint_paths([examples], families=("sparklite", "hive"))
