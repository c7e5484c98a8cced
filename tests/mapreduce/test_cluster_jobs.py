"""Cluster job execution: scheduling, locality, counters, multi-job."""

import pytest

from repro.mapreduce import jobtracker
from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import C
from repro.mapreduce.streaming import streaming_job
from repro.util.errors import JobSubmissionError, OutputExistsError
from tests.conftest import make_mr


def wc_job(name="wc", combine=False, num_reduces=1, conf=None):
    return streaming_job(
        name=name,
        map_fn=lambda k, v: ((w, 1) for w in v.split()),
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        combine_fn=(lambda k, vs: [(k, sum(vs))]) if combine else None,
        num_reduces=num_reduces,
        conf=conf,
    )


class TestBasicExecution:
    def test_wordcount_answers(self, mr):
        mr.client().put_text("/in.txt", "a b a\nc a b\n" * 100)
        report = mr.run_job(wc_job(), "/in.txt", "/out", require_success=True)
        assert report.succeeded
        assert dict(mr.read_output("/out")) == {"a": "300", "b": "200", "c": "100"}

    def test_one_map_per_block(self, mr):
        text = "word " * 2000  # ~10KB over 2KB blocks
        mr.client().put_text("/in.txt", text)
        report = mr.run_job(wc_job(), "/in.txt", "/out", require_success=True)
        blocks = len(mr.hdfs.namenode.namespace.get_file("/in.txt").blocks)
        assert report.num_maps == blocks

    def test_multi_reduce_partitions_output(self, mr):
        mr.client().put_text("/in.txt", " ".join(f"k{i}" for i in range(200)))
        mr.run_job(
            wc_job(num_reduces=4), "/in.txt", "/out", require_success=True
        )
        client = mr.client()
        parts = [
            s.path
            for s in client.list_status("/out")
            if s.path.rsplit("/", 1)[-1].startswith("part-")
        ]
        assert len(parts) == 4
        assert client.exists("/out/_SUCCESS")
        assert len(dict(mr.read_output("/out"))) == 200

    def test_directory_input_skips_markers(self, mr):
        client = mr.client()
        client.put_text("/data/a.txt", "x\n")
        client.put_text("/data/b.txt", "y\n")
        client.put_text("/data/_SUCCESS", "")
        report = mr.run_job(wc_job(), "/data", "/out", require_success=True)
        assert set(dict(mr.read_output("/out"))) == {"x", "y"}

    def test_output_exists_rejected(self, mr):
        mr.client().put_text("/in.txt", "a\n")
        mr.client().mkdirs("/out")
        with pytest.raises(OutputExistsError):
            mr.submit(wc_job(), "/in.txt", "/out")

    def test_empty_input_dir_rejected(self, mr):
        mr.client().mkdirs("/empty")
        with pytest.raises(JobSubmissionError):
            mr.submit(wc_job(), "/empty", "/out")

    def test_sequential_jobs_share_cluster(self, mr):
        mr.client().put_text("/in.txt", "a b\n")
        r1 = mr.run_job(wc_job("j1"), "/in.txt", "/o1", require_success=True)
        r2 = mr.run_job(wc_job("j2"), "/in.txt", "/o2", require_success=True)
        assert r1.job_id != r2.job_id
        assert dict(mr.read_output("/o1")) == dict(mr.read_output("/o2"))


class TestLocality:
    def test_most_maps_are_data_local(self):
        mr = make_mr(num_workers=4)
        mr.client().put_text("/in.txt", "w " * 5000)
        report = mr.run_job(wc_job(), "/in.txt", "/out", require_success=True)
        assert report.data_local_maps >= report.num_maps * 0.5
        assert (
            report.data_local_maps
            + report.rack_local_maps
            + report.off_rack_maps
            == report.num_maps
        )

    def test_locality_counters_in_report(self, mr):
        mr.client().put_text("/in.txt", "w\n")
        report = mr.run_job(wc_job(), "/in.txt", "/out", require_success=True)
        total = (
            report.counters.get(C.DATA_LOCAL_MAPS)
            + report.counters.get(C.RACK_LOCAL_MAPS)
            + report.counters.get(C.OFF_RACK_MAPS)
        )
        assert total == report.counters.get(C.TOTAL_LAUNCHED_MAPS)


class TestCounters:
    def test_framework_counters_consistent(self, mr):
        mr.client().put_text("/in.txt", "a b c\n" * 50)
        report = mr.run_job(wc_job(), "/in.txt", "/out", require_success=True)
        counters = report.counters
        assert counters.get(C.MAP_INPUT_RECORDS) == 50
        assert counters.get(C.MAP_OUTPUT_RECORDS) == 150
        assert counters.get(C.REDUCE_INPUT_RECORDS) == 150
        assert counters.get(C.REDUCE_INPUT_GROUPS) == 3
        assert counters.get(C.REDUCE_OUTPUT_RECORDS) == 3
        assert counters.get(C.HDFS_BYTES_READ) > 0
        assert counters.get(C.HDFS_BYTES_WRITTEN) > 0

    def test_combiner_cuts_shuffle_bytes(self, mr):
        text = "alpha beta gamma " * 400
        mr.client().put_text("/in.txt", text)
        plain = mr.run_job(wc_job("plain"), "/in.txt", "/p", require_success=True)
        combined = mr.run_job(
            wc_job("comb", combine=True), "/in.txt", "/c", require_success=True
        )
        assert combined.shuffle_bytes < plain.shuffle_bytes / 3
        assert dict(mr.read_output("/p")) == dict(mr.read_output("/c"))


class TestReportRendering:
    def test_render_contains_the_essentials(self, mr):
        mr.client().put_text("/in.txt", "a\n")
        report = mr.run_job(wc_job(), "/in.txt", "/out", require_success=True)
        text = report.render()
        assert "SUCCEEDED" in text
        assert "Maps:" in text
        assert "Counters:" in text


class TestFinishedJobHoldsNoShuffle:
    def _finished(self, mr, reduce_fn=lambda k, vs: [(k, sum(vs))]):
        mr.sim.bus.record_history = True
        mr.client().put_text("/in.txt", "w " * 4000)
        job = streaming_job(
            "j",
            lambda k, v: ((w, 1) for w in v.split()),
            reduce_fn,
            conf=JobConf(name="j", num_reduces=2),
        )
        running = mr.submit(job, "/in.txt", "/out")
        seen_output = []
        mr.sim.bus.subscribe(
            "mr.task.completed",
            lambda e: seen_output.append(
                any(t.output is not None for t in running.map_tasks)
            ),
        )
        mr.wait_for_job(running, timeout=24 * 3600)
        assert any(seen_output)  # the outputs existed while the job ran
        return running

    def test_succeeded_job_drops_every_map_output(self, mr):
        running = self._finished(mr)
        assert running.succeeded
        assert all(t.output is None for t in running.map_tasks)
        assert dict(mr.read_output("/out")) == {"w": "4000"}

    def test_failed_job_drops_every_map_output(self, mr, monkeypatch):
        monkeypatch.setattr(jobtracker, "MAX_ATTEMPTS", 2)

        def bad_reduce(key, values):
            raise RuntimeError("reduce-side bug")

        running = self._finished(mr, bad_reduce)
        assert running.state.value == "failed"
        assert all(t.output is None for t in running.map_tasks)

    def test_late_output_loss_for_a_finished_job_is_a_no_op(self, mr):
        running = self._finished(mr)
        before = [(t.state, t.completed_on, len(t.attempts)) for t in running.map_tasks]
        victim = running.map_tasks[0].completed_on
        mr.jobtracker.map_output_lost(running.job_id, 0, victim)
        mr.tasktrackers[victim].crash()
        mr.sim.run_for(2 * mr.mr_config.tracker_timeout)
        assert mr.sim.bus.history("mr.jobtracker.tracker_lost")
        assert not mr.sim.bus.history("mr.jobtracker.map_output_lost")
        assert running.succeeded
        assert running.succeeded_maps == len(running.map_tasks)
        assert before == [
            (t.state, t.completed_on, len(t.attempts)) for t in running.map_tasks
        ]
        assert dict(mr.read_output("/out")) == {"w": "4000"}
