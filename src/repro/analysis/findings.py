"""Structured lint findings: what "mrlint" reports and how it renders.

A :class:`Finding` is one rule violation at one source location.  Rules
attach a severity and a fix hint so the output teaches, not just nags —
the same voice as the course's grading feedback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


#: Severities, in escalation order.  ``error`` findings are correctness
#: bugs (wrong answers, run-to-run divergence); ``warning`` findings are
#: the paper's performance anti-patterns (right answer, painful scale).
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    severity: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def render_findings(findings: list[Finding]) -> str:
    """Human-readable report, one block per finding plus a summary."""
    findings = sort_findings(findings)
    if not findings:
        return "mrlint: clean (0 findings)"
    lines = [f.render() for f in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(
        f"mrlint: {len(findings)} finding(s) "
        f"({errors} error(s), {warnings} warning(s))"
    )
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    findings = sort_findings(findings)
    payload = {
        "findings": [f.as_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "errors": sum(1 for f in findings if f.severity == "error"),
            "warnings": sum(1 for f in findings if f.severity == "warning"),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


#: mrlint severity -> SARIF result level.
_SARIF_LEVELS = {"error": "error", "warning": "warning"}

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(findings: list[Finding], rules: dict | None = None) -> str:
    """SARIF 2.1.0 report — the GitHub code-scanning upload format.

    Only rules that actually fired are listed in the tool driver (the
    upload size stays proportional to the report, not the catalog).
    ``rules`` maps rule id -> :class:`Rule` for titles and hints;
    defaults to the full mrlint catalog.
    """
    findings = sort_findings(findings)
    if rules is None:
        from repro.analysis.linter import ALL_RULES

        rules = ALL_RULES
    fired = sorted({f.rule for f in findings})
    rule_index = {rule_id: i for i, rule_id in enumerate(fired)}
    driver_rules = []
    for rule_id in fired:
        entry: dict = {"id": rule_id}
        rule = rules.get(rule_id)
        if rule is not None:
            entry["shortDescription"] = {"text": rule.title}
            entry["defaultConfiguration"] = {
                "level": _SARIF_LEVELS.get(rule.severity, "warning")
            }
            if rule.hint:
                entry["help"] = {"text": rule.hint}
        driver_rules.append(entry)
    results = []
    for f in findings:
        message = f.message if not f.hint else f"{f.message}\nhint: {f.hint}"
        results.append(
            {
                "ruleId": f.rule,
                "ruleIndex": rule_index[f.rule],
                "level": _SARIF_LEVELS.get(f.severity, "warning"),
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f.path.replace("\\", "/"),
                            },
                            # SARIF columns are 1-based; ast's are 0-based.
                            "region": {
                                "startLine": f.line,
                                "startColumn": f.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "mrlint",
                        "version": "2.0",
                        "rules": driver_rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class Rule:
    """A lint rule's identity card (the catalog entry DESIGN.md lists)."""

    id: str
    family: str  # "jobs" | "engine"
    severity: str
    title: str
    hint: str = ""
    #: Extra per-rule state threaded to the checker (unused by most).
    extra: dict = field(default_factory=dict)

    def at(
        self, path: str, node, message: str, severity: str | None = None
    ) -> Finding:
        """This rule's finding at AST ``node`` of ``path``."""
        return Finding(
            rule=self.id,
            path=path,
            line=node.lineno,
            col=node.col_offset,
            severity=severity or self.severity,
            message=message,
            hint=self.hint,
        )
