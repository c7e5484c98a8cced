"""End-to-end integration: the course's full data -> answer pipelines."""

import pytest

from repro.datasets.airline import generate_airline
from repro.datasets.movielens import generate_movielens
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.airline_delay import AirlineDelayCombinerJob
from repro.jobs.movie_genres import GenreStatsJob
from repro.mapreduce.local_runner import LocalJobRunner
from tests.conftest import make_mr


class TestSerialVsClusterEquivalence:
    """Assignment 2, part 1: 'takes the jar files from the first
    assignment and reruns them on the data on HDFS' — identical answers."""

    def test_genre_stats_identical(self):
        data = generate_movielens(seed=31, num_ratings=1200, num_movies=50)

        localfs = LinuxFileSystem()
        localfs.write_file("/ratings.dat", data.ratings_text)
        localfs.write_file("/movies.dat", data.movies_text)
        serial = LocalJobRunner(localfs=localfs, split_size=8192).run(
            GenreStatsJob(movies_path="/movies.dat"),
            "/ratings.dat",
            "/out",
        )

        mr = make_mr(num_workers=4, block_size=8192)
        client = mr.client()
        client.put_text("/data/ratings.dat", data.ratings_text)
        client.put_text("/data/movies.dat", data.movies_text)
        mr.run_job(
            GenreStatsJob(movies_path="/data/movies.dat"),
            "/data/ratings.dat",
            "/hdfs-out",
            require_success=True,
        )
        assert sorted(serial.pairs) == sorted(mr.read_output("/hdfs-out"))

    def test_airline_identical_across_reduce_counts(self):
        data = generate_airline(seed=32, num_rows=1500)
        from repro.mapreduce.config import JobConf

        mr = make_mr(num_workers=4, block_size=8192)
        mr.client().put_text("/air.csv", data.csv_text)
        results = []
        for reduces in (1, 3):
            job = AirlineDelayCombinerJob(
                conf=JobConf(name=f"air-{reduces}", num_reduces=reduces)
            )
            mr.run_job(job, "/air.csv", f"/out{reduces}", require_success=True)
            results.append(
                {k: round(float(v), 9) for k, v in mr.read_output(f"/out{reduces}")}
            )
        assert results[0] == results[1]


class TestChainedJobsOverHdfs:
    """Job 2 consumes job 1's HDFS output (the top-word pattern)."""

    def test_output_of_one_is_input_of_next(self):
        mr = make_mr(num_workers=4)
        mr.client().put_text("/in.txt", "b a b c b a\n" * 30)
        from repro.mapreduce.streaming import streaming_job

        wc = streaming_job(
            "wc",
            lambda k, v: ((w, 1) for w in v.split()),
            lambda k, vs: [(k, sum(vs))],
        )
        mr.run_job(wc, "/in.txt", "/counts", require_success=True)

        from repro.mapreduce.inputformat import KeyValueTextInputFormat
        from repro.mapreduce.api import Job, Mapper, Reducer
        from repro.mapreduce.types import IntWritable, Text

        class SwapMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.write(Text("total"), IntWritable(int(value.value)))

        class SumReducer(Reducer):
            def reduce(self, key, values, ctx):
                ctx.write(key, IntWritable(sum(v.value for v in values)))

        class TotalJob(Job):
            mapper = SwapMapper
            reducer = SumReducer
            input_format = KeyValueTextInputFormat

        mr.run_job(TotalJob(), "/counts", "/total", require_success=True)
        assert dict(mr.read_output("/total")) == {"total": "180"}


class TestWholeClusterLifecycle:
    """Load data, run a job, lose a node, rerun, restart, rerun again."""

    def test_survives_the_semester(self):
        mr = make_mr(num_workers=4, block_size=2048)
        from repro.mapreduce.streaming import streaming_job

        def wc():
            return streaming_job(
                "wc",
                lambda k, v: ((w, 1) for w in v.split()),
                lambda k, vs: [(k, sum(vs))],
            )

        client = mr.client()
        client.put_text("/data/in.txt", "ha doop " * 500)

        first = mr.run_job(wc(), "/data/in.txt", "/o1", require_success=True)
        assert dict(mr.read_output("/o1")) == {"ha": "500", "doop": "500"}

        # A worker dies; the data survives via replication.
        mr.crash_worker("node2")
        mr.hdfs.sim.run_for(mr.hdfs.config.dead_node_timeout + 30)
        second = mr.run_job(wc(), "/data/in.txt", "/o2", require_success=True)
        assert dict(mr.read_output("/o2")) == dict(mr.read_output("/o1"))

        # Full cluster restart (the instructors' hammer), then rerun.
        for tracker in mr.tasktrackers.values():
            if tracker.is_serving:
                tracker.stop()
        scan = mr.hdfs.restart_cluster()
        mr.hdfs.wait_until(
            lambda: not mr.hdfs.namenode.safemode.active, timeout=7200
        )
        for tracker in mr.tasktrackers.values():
            tracker.start(mr.jobtracker)
        third = mr.run_job(wc(), "/data/in.txt", "/o3", require_success=True)
        assert dict(mr.read_output("/o3")) == dict(mr.read_output("/o1"))
