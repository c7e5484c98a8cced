"""The hardened failure paths: fetch retry, output re-execution, timeouts.

These tests walk the tracker-lost requeue chain step by step — completed
map on a dead tracker, ``map_output_lost``, re-execution, reduces
refetching — asserting events and counters at each stage, plus the
shuffle-retry blip that must *not* escalate, per-attempt timeouts, and
restart reconciliation.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.hdfs.config import HdfsConfig
from repro.jobs.wordcount import WordCountJob
from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import C
from repro.mapreduce.streaming import streaming_job
from repro.mapreduce.tasks import AttemptState
from tests.conftest import make_mr


def wc_job(name="wc", conf=None, num_reduces=1):
    return streaming_job(
        name=name,
        map_fn=lambda k, v: ((w, 1) for w in v.split()),
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        num_reduces=num_reduces,
        conf=conf,
    )


def no_jitter_cluster(**mr_kwargs) -> MapReduceCluster:
    """Deterministic shuffle-retry timing for window-sensitive tests."""
    return MapReduceCluster(
        num_workers=4,
        hdfs_config=HdfsConfig(block_size=2048, replication=2),
        mr_config=MapReduceConfig(shuffle_retry_jitter=0.0, **mr_kwargs),
        seed=1,
    )


def non_job_counters(report):
    return {
        group: names
        for group, names in report.counters.as_dict().items()
        if group != "Job Counters"
    }


class TestLostMapOutputChain:
    """Satellite drill: dead tracker -> map_output_lost -> re-execution
    -> reduces refetch, with counters checked at every step."""

    def _clean_baseline(self):
        mr = make_mr(num_workers=4)
        mr.client().put_text("/in.txt", "w " * 8000)
        return mr.run_job(
            wc_job(num_reduces=2), "/in.txt", "/out", require_success=True
        )

    def test_chain_step_by_step(self):
        mr = make_mr(num_workers=4)
        mr.sim.bus.record_history = True
        mr.client().put_text("/in.txt", "w " * 8000)
        running = mr.submit(wc_job(num_reduces=2), "/in.txt", "/out")

        # Step 1: a map completes somewhere; that tracker is the victim.
        mr.hdfs.wait_until(
            lambda: any(t.output is not None for t in running.map_tasks),
            timeout=600,
            step=0.5,
        )
        victim = next(
            t.completed_on for t in running.map_tasks if t.completed_on
        )
        victim_tasks = {
            t.task_id for t in running.map_tasks if t.completed_on == victim
        }

        # Step 2: only the TaskTracker dies (its DataNode survives), so
        # input blocks stay readable but materialized map output is gone.
        mr.tasktrackers[victim].crash()

        # Step 3: reduces exhaust their fetch retries against the dead
        # tracker and escalate to map_output_lost.
        mr.hdfs.wait_until(
            lambda: mr.sim.bus.history("mr.jobtracker.map_output_lost"),
            timeout=3600,
            step=1.0,
        )
        lost = mr.sim.bus.history("mr.jobtracker.map_output_lost")
        assert {e.data["task_id"] for e in lost} <= victim_tasks
        assert all(e.data["node"] == victim for e in lost)
        assert mr.sim.bus.history("mr.shuffle.retry"), (
            "escalation must come after transient retries, not instead"
        )

        # Step 4: the lost maps re-execute elsewhere and reduces refetch.
        mr.wait_for_job(running, timeout=24 * 3600)
        assert running.succeeded
        assert all(t.completed_on != victim for t in running.map_tasks)
        reran = [
            t for t in running.map_tasks if t.task_id in {
                e.data["task_id"] for e in lost
            }
        ]
        assert reran and all(len(t.attempts) >= 2 for t in reran)

        # Step 5: none of it counts against anyone's failure budget...
        assert all(t.failures == 0 for t in running.map_tasks)
        failed = mr.sim.bus.history("mr.task.failed")
        assert failed and all(
            e.data["counts_against"] is False for e in failed
        )

        # ...and the *answer* counters match an undisturbed run exactly.
        report = running.report()
        assert mr.output_dict("/out") == {"w": "8000"}
        assert non_job_counters(report) == non_job_counters(
            self._clean_baseline()
        )
        # The journey shows in the scheduler's books: extra launches.
        assert report.counters.get(C.TOTAL_LAUNCHED_MAPS) > len(
            running.map_tasks
        )


class TestShuffleRetryRidesOutBlips:
    def test_quick_tracker_restart_avoids_escalation(self):
        mr = no_jitter_cluster()
        mr.sim.bus.record_history = True
        mr.client().put_text("/in.txt", "w " * 8000)
        # Crash the tracker of the second completed map; bring it back
        # mid-backoff, inside the fetch-retry budget (1s + 2s + 4s).
        plan = FaultPlan().on_event(
            "mr.task.completed",
            "tracker.crash",
            count=2,
            target_from="tracker",
            restart_after=6.0,
        )
        with FaultInjector(plan, mr) as injector:
            report = mr.run_job(
                wc_job(num_reduces=2),
                "/in.txt",
                "/out",
                timeout=24 * 3600,
                require_success=True,
            )
            kinds = [kind for _, kind, _ in injector.injected]
        assert kinds == ["tracker.crash", "tracker.restart"]
        assert mr.sim.bus.history("mr.shuffle.retry"), "blip went unnoticed"
        assert not mr.sim.bus.history("mr.jobtracker.map_output_lost"), (
            "a retry-absorbable blip must not re-execute maps"
        )
        assert mr.output_dict("/out") == {"w": "8000"}
        assert report.counters.get(C.FAILED_MAPS) == 0


class TestTaskTimeout:
    def test_unresponsive_task_is_killed_and_counted(self):
        mr = make_mr()
        mr.sim.bus.record_history = True
        mr.client().put_text("/in.txt", "a b c\n")
        conf = JobConf(name="hung", task_timeout=0.001, max_attempts=2)
        report = mr.run_job(wc_job(conf=conf), "/in.txt", "/out")
        assert report.state == "failed"
        assert "failed to report status" in report.failure_reason
        timeouts = mr.sim.bus.history("mr.task.timeout")
        assert timeouts
        # Timeouts are the task's own fault: they burn the budget.
        failed = mr.sim.bus.history("mr.task.failed")
        assert failed and all(e.data["counts_against"] for e in failed)

    def test_generous_timeout_changes_nothing(self):
        mr = make_mr()
        mr.client().put_text("/in.txt", "a b a\n" * 50)
        conf = JobConf(name="calm", task_timeout=3600.0)
        report = mr.run_job(
            wc_job(conf=conf), "/in.txt", "/out", require_success=True
        )
        assert report.succeeded
        assert mr.output_dict("/out") == {"a": "100", "b": "50"}


class TestTrackerRestartReconciliation:
    def test_reregistration_requeues_orphaned_attempts(self):
        mr = make_mr(num_workers=2)
        mr.client().put_text("/in.txt", "w " * 12000)
        running = mr.submit(wc_job(), "/in.txt", "/out")
        # Catch a tracker mid-flight, with attempts the JobTracker still
        # believes are RUNNING on it.
        mr.hdfs.wait_until(
            lambda: any(tt.running for tt in mr.tasktrackers.values()),
            timeout=600,
            step=0.5,
        )
        name, tracker = next(
            (n, tt) for n, tt in mr.tasktrackers.items() if tt.running
        )
        tracker.stop()  # loses its in-flight work
        tracker.start(mr.jobtracker)  # quick restart, same sim instant
        mr.wait_for_job(running, timeout=24 * 3600)
        assert running.succeeded
        orphaned = [
            a
            for a in running.all_attempts()
            if a.state == AttemptState.KILLED
            and a.failure == "TaskTracker restarted"
        ]
        assert orphaned and all(a.tracker == name for a in orphaned)
        assert mr.output_dict("/out") == {"w": "12000"}


class TestPooledWorkerCrashOnCluster:
    def test_worker_death_recovery_preserves_results(self):
        """Every pooled work item loses its first result to an injected
        worker crash; bounded resubmission recovers all of them and the
        job's answer matches a serial run.  (A module-level job: the
        streaming one's lambdas would never reach a worker.)"""
        serial = make_mr(num_workers=4)
        serial.client().put_text("/in.txt", "a b a c\n" * 300)
        serial_report = serial.run_job(
            WordCountJob(JobConf(name="wc", num_reduces=2)),
            "/in.txt",
            "/out",
            require_success=True,
        )
        serial_out = serial.output_dict("/out")

        mr = MapReduceCluster(
            num_workers=4,
            hdfs_config=HdfsConfig(block_size=2048, replication=2),
            seed=1,
            backend=create_backend("pooled", 2),
        )
        with mr:
            mr.client().put_text("/in.txt", "a b a c\n" * 300)
            plan = FaultPlan(seed=5).worker_crash_rate(1.0)
            with FaultInjector(plan, mr) as injector:
                report = mr.run_job(
                    WordCountJob(JobConf(name="wc", num_reduces=2)),
                    "/in.txt",
                    "/out",
                    timeout=24 * 3600,
                    require_success=True,
                )
                crashes = [
                    k for _, k, _ in injector.injected
                    if k == "backend.worker_crash"
                ]
            assert crashes, "rate=1.0 must crash every pooled work item"
            assert mr.backend.worker_crash_recoveries == len(crashes)
            assert mr.backend.inline_fallbacks == 0
            assert mr.output_dict("/out") == serial_out
            assert non_job_counters(report) == non_job_counters(serial_report)
