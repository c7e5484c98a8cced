"""``compare``: verdicts from bounds, ranges and exact facts."""

from __future__ import annotations

import copy

from benchmarks.perf.compare import compare, judge, render
from benchmarks.perf.harness import load_spec


def _stat(value, low=None, high=None):
    return {"value": value, "min": low or value, "max": high or value}


def test_judge_bounded_metric():
    lower = dict(better="lower", bound=0.10)
    assert judge(_stat(1.0, 0.99, 1.01), _stat(1.02, 1.015, 1.03), **lower)[1] == "unchanged"
    assert judge(_stat(1.0, 0.99, 1.01), _stat(1.2, 1.19, 1.21), **lower)[1] == "regressed"
    assert judge(_stat(1.0, 0.99, 1.01), _stat(0.8, 0.79, 0.81), **lower)[1] == "improved"
    # Ranges overlap by more than the bound: the spread hides the answer.
    assert judge(_stat(1.0, 0.8, 1.3), _stat(1.15, 0.9, 1.4), **lower)[1] == "unresolved"
    # ... but disjoint ranges are resolved, however wide each side is.
    assert judge(_stat(1.0, 0.96, 1.3), _stat(0.8, 0.5, 0.955), **lower)[1] == "improved"
    assert judge(_stat(1.0, 0.96, 1.3), _stat(0.95, 0.94, 0.955), **lower)[1] == "unchanged"
    higher = dict(better="higher", bound=0.10)
    worse_by, verdict = judge(_stat(100.0), _stat(80.0), **higher)
    assert verdict == "regressed" and abs(worse_by - 0.2) < 1e-12
    assert judge(_stat(100.0), _stat(130.0), **higher)[1] == "improved"


def _record(spec):
    return {
        "workloads": {
            workload["name"]: {
                "status": "measured",
                "exact": {"sim_s": 10.0, "sim_events": 7, "ops_per_rep": 3},
                "end_to_end": {
                    metric["name"]: {"value": 2.0, "min": 1.98, "max": 2.02}
                    for metric in spec["end_to_end"]
                },
            }
            for workload in spec["workloads"]
        }
    }


def test_compare_a_record_with_itself_and_with_a_changed_one():
    spec = load_spec()
    base = _record(spec)
    rows = compare(base, base, spec)
    assert len(rows) == len(spec["workloads"]) * (len(spec["end_to_end"]) + 3)
    assert {row.verdict for row in rows} == {"unchanged"}

    changed = copy.deepcopy(base)
    changed["workloads"]["campus_ctrl"]["exact"]["sim_events"] = 8
    changed["workloads"]["wc_serial"]["end_to_end"]["wall_s"] = {
        "value": 3.0, "min": 2.9, "max": 3.1,
    }  # fmt: skip
    changed["workloads"]["shuffle_pooled"] = {"status": "unresolved"}
    verdicts = {
        (row.workload, row.metric): row.verdict
        for row in compare(base, changed, spec)
    }
    assert verdicts["campus_ctrl", "sim_events"] == "regressed"
    assert verdicts["campus_ctrl", "sim_s"] == "unchanged"
    assert verdicts["wc_serial", "wall_s"] == "regressed"
    assert verdicts["shuffle_pooled", "wall_s"] == "unresolved"
    assert verdicts["shuffle_pooled", "sim_s"] == "unresolved"
    assert "regressed: 2" in render(compare(base, changed, spec))
