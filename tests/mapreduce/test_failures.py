"""Failure handling: bad user code, heap leaks, lost trackers, retries."""

import pytest

from repro.cluster.builder import HadoopHardware
from repro.cluster.hardware import Node, NodeSpec
from repro.cluster.network import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.hdfs.config import HdfsConfig
from repro.mapreduce import jobtracker
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import C
from repro.mapreduce.streaming import streaming_job
from repro.mapreduce.tasks import AttemptState
from repro.util.errors import JobFailedError
from tests.conftest import make_mr


def crashing_map_job(name="crash"):
    def bad_map(key, value):
        raise ValueError("student bug: NullPointerException at line 42")

    return streaming_job(
        name=name,
        map_fn=bad_map,
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        conf=JobConf(name=name),
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

    def test_attempts_counted_per_task(self, monkeypatch):
        monkeypatch.setattr(jobtracker, "MAX_ATTEMPTS", 2)
        mr = make_mr()
        mr.client().put_text("/in.txt", "a\n")
        report = mr.run_job(crashing_map_job(), "/in.txt", "/out")
        assert report.counters.get(C.FAILED_MAPS) == 2

    def test_reduce_failure_fails_job(self, monkeypatch):
        monkeypatch.setattr(jobtracker, "MAX_ATTEMPTS", 2)
        mr = make_mr()
        mr.client().put_text("/in.txt", "a\n")

        def bad_reduce(key, values):
            raise RuntimeError("reduce-side bug")

        job = streaming_job(
            "bad-reduce",
            lambda k, v: [(v, 1)],
            bad_reduce,
            conf=JobConf(name="bad-reduce"),
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
    def test_leaky_job_crashes_daemons(self, monkeypatch):
        monkeypatch.setattr(jobtracker, "MAX_ATTEMPTS", 3)
        mr = make_mr(num_workers=8)
        mr.client().put_text("/in.txt", "x y\n" * 200)
        conf = JobConf(
            name="leaky",
            heap_leak_probability=1.0,  # every attempt leaks
        )
        report = mr.run_job(wc_job(conf), "/in.txt", "/out", timeout=7200)
        crashed = [
            name for name, tt in mr.tasktrackers.items() if not tt.is_serving
        ]
        assert crashed, "heap leaks should take daemons down"
        # The co-located DataNodes died with their TaskTrackers.
        for name in crashed:
            assert not mr.hdfs.datanodes[name].is_serving

    def test_moderate_leak_recovers_via_retries(self):
        mr = make_mr(num_workers=8)
        mr.client().put_text("/in.txt", "x y z\n" * 50)
        conf = JobConf(name="flaky", heap_leak_probability=0.3)
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

    @staticmethod
    def _run_with_slow_disk(speculative: bool):
        """Ablation A4 in miniature: three healthy workers and one whose
        disk reads crawl at 10 KB/s, so its node-local maps straggle."""
        topology = ClusterTopology()
        for i in range(3):
            topology.add_node(Node(name=f"node{i}", spec=NodeSpec()), "rack0")
        topology.add_node(
            Node(name="node3", spec=NodeSpec(disk_read_bw=10 * 1024)), "rack0"
        )
        mr = MapReduceCluster(
            hardware=HadoopHardware(
                topology=topology, network=NetworkModel(topology=topology)
            ),
            hdfs_config=HdfsConfig(block_size=32 * 1024, replication=3),
            seed=37,
        )
        mr.client(node="node0").put_text(
            "/in.txt", "word stream flowing by\n" * 12_000
        )
        conf = JobConf(name="spec", speculative_execution=speculative)
        report = mr.run_job(wc_job(conf), "/in.txt", "/out", require_success=True)
        return mr, report

    def test_speculation_fires_on_a_straggler_and_keeps_the_output(self):
        mr, report = self._run_with_slow_disk(speculative=True)
        running = mr.jobtracker.running_job(report.job_id)
        twins = [
            task.attempts
            for task in running.map_tasks
            if any(a.speculative for a in task.attempts)
        ]
        assert twins, "no speculative attempt was launched"
        for attempts in twins:
            # One of the pair won; the other was killed, not failed.
            assert sorted(a.state.value for a in attempts) == ["killed", "succeeded"]
            assert len({a.tracker for a in attempts}) == 2
        # The clone on a fast node beat the straggler, which the
        # JobTracker then killed on its slow tracker.
        assert any(
            a.speculative and a.state == AttemptState.SUCCEEDED
            for attempts in twins
            for a in attempts
        )
        killed = report.counters.get(C.KILLED_SPECULATIVE)
        assert killed == len(twins) == report.killed_attempts
        off_mr, off = self._run_with_slow_disk(speculative=False)
        assert off.counters.get(C.KILLED_SPECULATIVE) == 0
        assert off.killed_attempts == 0
        assert mr.read_output("/out") == off_mr.read_output("/out")
        assert dict(mr.read_output("/out")) == {
            word: "12000" for word in ("by", "flowing", "stream", "word")
        }
