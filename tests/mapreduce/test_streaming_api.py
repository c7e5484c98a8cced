"""The functional streaming front end."""

import pytest

from repro.hdfs.localfs import LinuxFileSystem
from repro.mapreduce.config import JobConf
from repro.mapreduce.local_runner import LocalJobRunner
from repro.mapreduce.streaming import streaming_job
from repro.util.errors import MapReduceError


class TestStreamingJob:
    def test_map_only_runs_identity_reduce(self):
        fs = LinuxFileSystem()
        fs.write_file("/in.txt", "a\nb\n")
        job = streaming_job("mapper-only", lambda k, v: [(v, "seen")])
        result = LocalJobRunner(localfs=fs).run(job, "/in.txt", "/out")
        assert result.output_dict() == {"a": "seen", "b": "seen"}

    def test_keys_arrive_as_plain_values(self):
        fs = LinuxFileSystem()
        fs.write_file("/in.txt", "hello\n")
        seen = {}

        def map_fn(key, value):
            seen["key_type"] = type(key).__name__
            seen["value_type"] = type(value).__name__
            return [(value, 1)]

        job = streaming_job("probe", map_fn, lambda k, vs: [(k, sum(vs))])
        LocalJobRunner(localfs=fs).run(job, "/in.txt", "/out")
        assert seen == {"key_type": "int", "value_type": "str"}

    def test_reduce_values_are_plain(self):
        fs = LinuxFileSystem()
        fs.write_file("/in.txt", "a a a\n")
        captured = {}

        def reduce_fn(key, values):
            captured["values"] = values
            return [(key, sum(values))]

        job = streaming_job(
            "plainvals",
            lambda k, v: ((w, 1) for w in v.split()),
            reduce_fn,
        )
        LocalJobRunner(localfs=fs).run(job, "/in.txt", "/out")
        assert captured["values"] == [1, 1, 1]

    def test_custom_conf_respected(self):
        conf = JobConf(name="old-name", num_reduces=3)
        job = streaming_job("new-name", lambda k, v: [], conf=conf)
        assert job.conf.num_reduces == 3
        assert job.name == "new-name"

    def test_name_propagates(self):
        job = streaming_job("myjob", lambda k, v: [])
        assert job.name == "myjob"
        assert "mapper=" in job.describe()

    def test_no_class_is_built_per_job(self):
        sum_fn = lambda k, vs: [(k, sum(vs))]  # noqa: E731
        job_a = streaming_job("a", lambda k, v: [(v, 1)], sum_fn, sum_fn)
        job_b = streaming_job("b", lambda k, v: [(v, 2)])
        assert type(job_a) is type(job_b)
        assert type(job_a.mapper()) is type(job_b.mapper())
        assert type(job_a.reducer()) is type(job_a.combiner())
        assert job_b.reducer is None and job_b.combiner is None
        assert job_a.describe() == (
            "a(mapper=_StreamMapper, combiner=_StreamReducer, "
            "reducer=_StreamReducer, reduces=1)"
        )
        # the functions ride on the instances, so jobs stay independent
        fs = LinuxFileSystem()
        fs.write_file("/in.txt", "x\nx\n")
        runner = LocalJobRunner(localfs=fs)
        assert runner.run(job_a, "/in.txt", "/a").output_dict() == {"x": "2"}
        assert runner.run(job_b, "/in.txt", "/b").pairs == [("x", "2"), ("x", "2")]

    def test_job_without_mapper_rejected(self):
        from repro.mapreduce.api import Job

        class Empty(Job):
            pass

        with pytest.raises(MapReduceError):
            Empty()
