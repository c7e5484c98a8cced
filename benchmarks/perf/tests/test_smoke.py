"""All five workloads at ``--scale 0.05``: names, oracles, seeds."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf.harness import PACKAGE_DIR, REPO_ROOT, load_spec, measure
from benchmarks.perf.trace import null_span
from benchmarks.perf.workloads import registry

SCALE = 0.05
SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert list(registry()) == WORKLOADS
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_smoke_emits_every_end_to_end_metric(name):
    result = measure(name, seed=5, seconds=0.0, trace=False, scale=SCALE)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and metric["n"] >= 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_emits_every_per_layer_metric(name):
    result = measure(name, seed=5, seconds=0.0, trace=True, scale=SCALE)
    assert result["correct"], result["errors"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert values["trace.spans"] > 0
    assert 0.0 <= values["trace.unattributed_frac"] <= 1.0
    assert values["mapreduce.backend.inline_fallbacks"] == 0
    assert values["mapreduce.backend.worker_crash_recoveries"] == 0
    trace_file = PACKAGE_DIR / "results" / f"trace_{name}.json"
    recorded = json.loads(trace_file.read_text())
    assert recorded["workload"] == name and recorded["spans"]
    assert recorded["spans"][0][3] == -1  # the body is the root


def test_layers_light_up_where_the_issue_says():
    """The interaction table, coarsely: each workload exercises its own
    layers and bypasses the others'."""
    wc = measure("wc_serial", seed=5, seconds=0.0, trace=True, scale=SCALE)["metrics"]
    churn = measure("hdfs_churn", seed=5, seconds=0.0, trace=True, scale=SCALE)["metrics"]
    assert wc["mapreduce.map.user_s"]["value"] > 0
    assert wc["mapreduce.combine.s"]["value"] > 0
    assert wc["sim.events"]["value"] == 0
    assert wc["hdfs.namenode.s"]["value"] == 0
    assert churn["hdfs.rename.p50_ms"]["value"] > 0
    assert churn["hdfs.journal.edits"]["value"] > 0
    assert churn["mapreduce.map.span_s"]["value"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_input_bytes_but_not_op_counts(name):
    digests, ops = [], []
    for seed in (5, 6):
        workload = registry()[name](seed, SCALE)
        ctx = workload.setup()
        try:
            digests.append(workload.input_digest(ctx))
            outcome = workload.check(ctx, workload.body(ctx, null_span))
        finally:
            workload.teardown(ctx)
        assert not outcome.errors
        ops.append(outcome.attempted)
    assert digests[0] != digests[1]
    assert ops[0] == ops[1]

    again = registry()[name](5, SCALE)
    ctx = again.setup()
    try:
        assert again.input_digest(ctx) == digests[0]
    finally:
        again.teardown(ctx)


def test_run_py_prints_the_contract_line_last():
    done = subprocess.run(
        [
            sys.executable, str(PACKAGE_DIR / "run.py"),
            "--workload", "campus_ctrl", "--seed", "7",
            "--seconds", "0", "--trace", "0", "--scale", str(SCALE),
        ],  # fmt: skip
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in last["metrics"].values():
        assert set(metric) == {"value", "unit"}
    # Every end-to-end metric is printed by name with its unit.
    for metric in SPEC["end_to_end"]:
        assert re.search(rf"{metric['name']}\s+\S+ {re.escape(metric['unit'])}", done.stdout)


#: Runs ``argv`` as the child of a subreaper, so that whatever the
#: command started and did not wait for (alive or zombie) is handed to
#: this script, which prints those process ids.
_REAPER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
done = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except OSError:
        continue
    if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
        left.append(int(pid))
print(done.returncode, left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_traced_pooled_run_leaves_no_process_behind():
    """The shm transport arm starts ``multiprocessing``'s resource
    tracker; it and the pool's workers must have ended, and been waited
    for, when ``run.py`` exits."""
    done = subprocess.run(
        [
            sys.executable, "-c", _REAPER,
            sys.executable, str(PACKAGE_DIR / "run.py"),
            "--workload", "shuffle_pooled", "--seed", "7",
            "--seconds", "0", "--trace", "1", "--scale", str(SCALE),
        ],  # fmt: skip
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.stdout.strip() == "0 []", done.stdout + done.stderr
