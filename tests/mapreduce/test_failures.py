"""Failure handling: bad user code, heap leaks, lost trackers, retries."""

import pytest

from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import C
from repro.mapreduce.streaming import streaming_job
from repro.util.errors import JobFailedError
from tests.conftest import make_mr


def crashing_map_job(name="crash", max_attempts=4):
    def bad_map(key, value):
        raise ValueError("student bug: NullPointerException at line 42")

    return streaming_job(
        name=name,
        map_fn=bad_map,
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        conf=JobConf(name=name, max_attempts=max_attempts),
    )


def wc_job(conf):
    return streaming_job(
        name=conf.name,
        map_fn=lambda k, v: ((w, 1) for w in v.split()),
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        conf=conf,
    )


class TestUserCodeFailures:
    def test_buggy_job_fails_after_max_attempts(self):
        mr = make_mr()
        mr.client().put_text("/in.txt", "a\n")
        report = mr.run_job(crashing_map_job(), "/in.txt", "/out")
        assert report.state == "failed"
        assert "4 times" in report.failure_reason
        assert report.failed_attempts >= 4

    def test_failure_raises_when_required(self):
        mr = make_mr()
        mr.client().put_text("/in.txt", "a\n")
        with pytest.raises(JobFailedError):
            mr.run_job(crashing_map_job(), "/in.txt", "/out", require_success=True)

    def test_attempts_counted_per_task(self):
        mr = make_mr()
        mr.client().put_text("/in.txt", "a\n")
        report = mr.run_job(crashing_map_job(max_attempts=2), "/in.txt", "/out")
        assert report.counters.get(C.FAILED_MAPS) == 2

    def test_reduce_failure_fails_job(self):
        mr = make_mr()
        mr.client().put_text("/in.txt", "a\n")

        def bad_reduce(key, values):
            raise RuntimeError("reduce-side bug")

        job = streaming_job(
            "bad-reduce",
            lambda k, v: [(v, 1)],
            bad_reduce,
            conf=JobConf(name="bad-reduce", max_attempts=2),
        )
        report = mr.run_job(job, "/in.txt", "/out")
        assert report.state == "failed"
        assert report.counters.get(C.FAILED_REDUCES) == 2

    def test_cluster_survives_failed_job(self):
        mr = make_mr()
        mr.client().put_text("/in.txt", "a b\n")
        mr.run_job(crashing_map_job(), "/in.txt", "/o1")
        report = mr.run_job(
            wc_job(JobConf(name="after")), "/in.txt", "/o2", require_success=True
        )
        assert report.succeeded


class TestHeapLeakCascade:
    def test_leaky_job_crashes_daemons(self):
        mr = make_mr(num_workers=8)
        mr.client().put_text("/in.txt", "x y\n" * 200)
        conf = JobConf(
            name="leaky",
            heap_leak_probability=1.0,  # every attempt leaks
            crash_daemons_on_heap_leak=True,
            max_attempts=3,
        )
        report = mr.run_job(wc_job(conf), "/in.txt", "/out", timeout=7200)
        crashed = [
            name for name, tt in mr.tasktrackers.items() if not tt.is_serving
        ]
        assert crashed, "heap leaks should take daemons down"
        # The co-located DataNodes died with their TaskTrackers.
        for name in crashed:
            assert not mr.hdfs.datanodes[name].is_serving

    def test_leak_without_daemon_crash(self):
        mr = make_mr()
        mr.client().put_text("/in.txt", "x\n")
        conf = JobConf(
            name="contained-leak",
            heap_leak_probability=1.0,
            crash_daemons_on_heap_leak=False,
            max_attempts=2,
        )
        report = mr.run_job(wc_job(conf), "/in.txt", "/out", timeout=7200)
        assert report.state == "failed"
        assert all(tt.is_serving for tt in mr.tasktrackers.values())

    def test_moderate_leak_recovers_via_retries(self):
        mr = make_mr(num_workers=8)
        mr.client().put_text("/in.txt", "x y z\n" * 50)
        conf = JobConf(
            name="flaky",
            heap_leak_probability=0.3,
            crash_daemons_on_heap_leak=False,
            max_attempts=10,
        )
        report = mr.run_job(wc_job(conf), "/in.txt", "/out", timeout=24 * 3600)
        assert report.succeeded
        assert dict(mr.read_output("/out")) == {"x": "50", "y": "50", "z": "50"}


class TestLostTracker:
    def test_tracker_crash_mid_job_recovers(self):
        mr = make_mr(num_workers=4)
        mr.client().put_text("/in.txt", "w " * 8000)
        running = mr.submit(wc_job(JobConf(name="survivor")), "/in.txt", "/out")
        # Let some maps complete, then kill one worker outright.
        mr.hdfs.wait_until(
            lambda: any(t.output is not None for t in running.map_tasks),
            timeout=600,
            step=0.5,
        )
        victim = next(
            t.completed_on for t in running.map_tasks if t.completed_on
        )
        mr.crash_worker(victim)
        mr.wait_for_job(running, timeout=24 * 3600)
        assert running.succeeded
        # The dead node's completed map output was re-run elsewhere.
        assert all(
            t.completed_on != victim for t in running.map_tasks
        )
        assert dict(mr.read_output("/out")) == {"w": "8000"}

    def test_killed_attempts_not_counted_as_failures(self):
        mr = make_mr(num_workers=4)
        mr.client().put_text("/in.txt", "w " * 8000)
        running = mr.submit(wc_job(JobConf(name="fair")), "/in.txt", "/out")
        mr.hdfs.wait_until(
            lambda: any(t.output is not None for t in running.map_tasks),
            timeout=600,
            step=0.5,
        )
        victim = next(
            t.completed_on for t in running.map_tasks if t.completed_on
        )
        mr.crash_worker(victim)
        mr.wait_for_job(running, timeout=24 * 3600)
        # Lost-tracker reruns must not burn the per-task failure budget.
        assert all(t.failures == 0 for t in running.map_tasks)


class TestSpeculativeExecution:
    def test_speculation_duplicates_straggler(self):
        mr = make_mr(num_workers=4)
        mr.client().put_text("/in.txt", "w " * 6000)
        conf = JobConf(name="spec", speculative_execution=True)
        report = mr.run_job(wc_job(conf), "/in.txt", "/out", require_success=True)
        # No stragglers on a healthy homogeneous cluster: speculation
        # must not fire spuriously.
        assert report.killed_attempts == 0
        assert dict(mr.read_output("/out")) == {"w": "6000"}
