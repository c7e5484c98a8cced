"""``compare A.json B.json``: one verdict per (metric, workload).

``A`` is the baseline, ``B`` the candidate; both are result files of
``python -m benchmarks.perf run``.  Bounds and directions come from
``BENCHMARK.json``.  For a bounded metric:

- ``unresolved`` when the two sides' min–max ranges overlap by more
  than the bound (as a share of A's value): the run-to-run spread is
  wider than what the bound could tell apart.  Ranges that do not
  overlap — every sample of one side beats every sample of the other —
  are always resolved;
- otherwise ``regressed`` / ``improved`` when B's value is worse /
  better than A's by more than the bound, else ``unchanged``.

The exact facts (``sim_s``, ``sim_events``, ``ops_per_rep``) compare
with ``==``: equal is ``unchanged``, anything else ``regressed``.  A
workload either side could not measure is ``unresolved``.
"""

from __future__ import annotations

from dataclasses import dataclass

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")
EXACT_FACTS = ("sim_s", "sim_events", "ops_per_rep")


@dataclass
class Row:
    workload: str
    metric: str
    a: float | None
    b: float | None
    #: How much worse B's value is, as a share of A's (negative = better).
    worse_by: float | None
    verdict: str


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """Verdict for one bounded metric from two ``{value, min, max}``."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["value"])
    worse_by = sign * (b["value"] - a["value"]) / base
    a_lo, a_hi = a.get("min", a["value"]), a.get("max", a["value"])
    b_lo, b_hi = b.get("min", b["value"]), b.get("max", b["value"])
    overlap = max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo)) / base
    if overlap > bound:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "regressed"
    if worse_by < -bound:
        return worse_by, "improved"
    return worse_by, "unchanged"


def compare(a: dict, b: dict, spec: dict) -> list[Row]:
    rows: list[Row] = []
    for workload in (w["name"] for w in spec["workloads"]):
        side_a = a["workloads"].get(workload, {})
        side_b = b["workloads"].get(workload, {})
        if not (
            side_a.get("status") == "measured" and side_b.get("status") == "measured"
        ):
            names = [metric["name"] for metric in spec["end_to_end"]]
            rows.extend(
                Row(workload, name, None, None, None, "unresolved")
                for name in (*names, *EXACT_FACTS)
            )
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            m_a, m_b = side_a["end_to_end"][name], side_b["end_to_end"][name]
            worse_by, verdict = judge(m_a, m_b, metric["better"], metric["bound"])
            rows.append(Row(workload, name, m_a["value"], m_b["value"], worse_by, verdict))
        for name in EXACT_FACTS:
            v_a, v_b = side_a["exact"][name], side_b["exact"][name]
            verdict = "unchanged" if v_a == v_b else "regressed"
            rows.append(Row(workload, name, v_a, v_b, None, verdict))
    return rows


def render(rows: list[Row]) -> str:
    lines = [f"{'workload':16s} {'metric':18s} {'A':>14s} {'B':>14s} {'worse by':>9s}  verdict"]
    for row in rows:
        a = "-" if row.a is None else f"{row.a:.6g}"
        b = "-" if row.b is None else f"{row.b:.6g}"
        worse = "-" if row.worse_by is None else f"{row.worse_by:+.1%}"
        lines.append(
            f"{row.workload:16s} {row.metric:18s} {a:>14s} {b:>14s} {worse:>9s}  {row.verdict}"
        )
    counts = {v: sum(1 for row in rows if row.verdict == v) for v in VERDICTS}
    lines.append("  ".join(f"{v}: {n}" for v, n in counts.items()))
    return "\n".join(lines)
