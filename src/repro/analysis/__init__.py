"""``repro.analysis`` — mrlint: static analysis + a runtime sanitizer.

The correctness tooling the paper's teaching moments beg for (and PR 2
proved the engine itself needs).  Two halves:

- **Static** (:mod:`repro.analysis.linter`): dataflow-backed rules
  (a module call graph + an interprocedural nondeterminism taint pass
  that walks each function's statements,
  :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.taint`) over
  student map/reduce code (``MRJ0xx``,
  :mod:`repro.analysis.job_rules`), the engine itself (``MRE1xx``,
  :mod:`repro.analysis.engine_rules`), sparklite closures (``MRS2xx``,
  :mod:`repro.analysis.sparklite_rules`), and Hive UDFs /
  query-embedded Python (``MRH3xx``,
  :mod:`repro.analysis.hive_rules`), with ``# repro: lint-ok[RULE]``
  suppressions.  The linter analyses each module once and hands that
  one analysis to every family: one scope walk answers what every
  name means (``CallGraph``), and the taint fixpoint is built on first
  use, so the engine family never pays for it.  A rule reaches a
  helper or a base class only through the call graph
  (``CallGraph.walk_reachable``, ``CallGraph.bases_of``), and reads
  the state a function keeps between calls from one filter over that
  walk (``CallGraph.kept_state``: MRJ005, MRS202, MRH302).  CLI:
  ``python -m repro lint [--self|--jobs|PATH]`` with ``--json``,
  ``--format sarif`` and ``--baseline`` output modes.
- **Dynamic** (:mod:`repro.analysis.sanitizer`): enabled by
  ``MapReduceConfig(sanitize=True)``; catches input mutation, emit
  aliasing, and non-monoid combiners at run time, reporting through
  the job counters (group ``"Sanitizer"``).
"""

from repro.analysis.engine_rules import ENGINE_RULES, check_engine_rules
from repro.analysis.baseline import (
    filter_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.findings import (
    Finding,
    Rule,
    render_findings,
    render_json,
    render_sarif,
    sort_findings,
)
from repro.analysis.hive_rules import HIVE_RULES, check_hive_rules
from repro.analysis.job_rules import JOB_RULES, check_job_rules
from repro.analysis.linter import (
    ALL_RULES,
    SELF_AUDIT_PACKAGES,
    lint_jobs,
    lint_paths,
    lint_pipelines,
    lint_self,
    lint_source,
)
from repro.analysis.sparklite_rules import (
    SPARKLITE_RULES,
    check_sparklite_rules,
)
from repro.analysis.sanitizer import SanitizingContext, TaskSanitizer, fingerprint

__all__ = [
    "ALL_RULES",
    "ENGINE_RULES",
    "Finding",
    "HIVE_RULES",
    "JOB_RULES",
    "Rule",
    "SELF_AUDIT_PACKAGES",
    "SPARKLITE_RULES",
    "SanitizingContext",
    "TaskSanitizer",
    "check_engine_rules",
    "check_hive_rules",
    "check_job_rules",
    "check_sparklite_rules",
    "filter_baseline",
    "fingerprint",
    "lint_jobs",
    "lint_paths",
    "lint_pipelines",
    "lint_self",
    "lint_source",
    "load_baseline",
    "render_findings",
    "render_json",
    "render_sarif",
    "sort_findings",
    "write_baseline",
]
