"""Serial vs pooled execution: bit-identical simulated universes.

The ExecutionBackend contract (see ``repro.mapreduce.backend``): pooled
backends may run task attempts' real work in parallel, but counters,
output pairs and *simulated* clocks must equal a serial run exactly —
parallelism is an optimisation of host wall-clock, never a semantic.
"""

import warnings
from types import SimpleNamespace

import pytest

from repro.datasets.movielens import generate_movielens
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.movie_genres import GenreStatsJob
from repro.jobs.wordcount import IntSumReducer, WordCountWithCombinerJob
from repro.mapreduce import runtime
from repro.mapreduce.api import Job, Mapper
from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf
from repro.mapreduce.local_runner import LocalJobRunner
from tests.conftest import make_mr

BACKENDS = ("pooled", "pooled-threads")

CORPUS = (
    "the quick brown fox jumps over the lazy dog\n" * 400
    + "pack my box with five dozen liquor jugs\n" * 250
)


def _cluster_fingerprint(backend_name):
    backend = create_backend(backend_name, 2)
    with MapReduceCluster(num_workers=4, seed=11, backend=backend) as mr:
        mr.client().put_text("/in/corpus.txt", CORPUS)
        job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=3))
        report = mr.run_job(job, "/in", "/out", require_success=True)
        return (
            report.elapsed,
            report.counters.as_dict(),
            tuple(sorted(mr.read_output("/out"))),
            mr.sim.now,
            mr.sim.events_processed,
        )


def _local_fingerprint(backend_name, job_factory, files):
    fs = LinuxFileSystem()
    for path, text in files.items():
        fs.write_file(path, text)
    backend = create_backend(backend_name, 2)
    with LocalJobRunner(
        localfs=fs, backend=backend, split_size=8 * 1024
    ) as runner:
        result = runner.run(job_factory(), list(files)[0], "/out")
        return (
            result.simulated_seconds,
            result.counters.as_dict(),
            tuple(sorted(result.pairs)),
            result.num_splits,
        )


class TestClusterDeterminism:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_wordcount_identical_to_serial(self, backend_name):
        serial = _cluster_fingerprint("serial")
        with warnings.catch_warnings():
            # Any inline fallback would hide a broken pooled path.
            warnings.simplefilter("error", RuntimeWarning)
            pooled = _cluster_fingerprint(backend_name)
        assert pooled == serial


class _MapRaisesMapper(Mapper):
    def map(self, key, value, context):
        raise ValueError("bad record")


class MapRaisesJob(Job):
    mapper = _MapRaisesMapper
    reducer = IntSumReducer


def _job_failure_time(backend_name):
    # 3 workers, 2 KiB blocks, replication 2, seed 1
    with make_mr(num_workers=3, backend=create_backend(backend_name, 2)) as mr:
        mr.client().put_text("/in/w.txt", "w " * 3000)
        failed = []
        mr.sim.bus.subscribe("mr.jobtracker.failed", lambda e: failed.append(e.time))
        job = MapRaisesJob(JobConf(name="boom", max_attempts=2))
        assert not mr.run_job(job, "/in", "/out").succeeded
        return failed


class TestUserCodeFailureDeterminism:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "A failed attempt burns task_startup + 2.0 = 3.0 s, exactly one "
            "tasktracker_heartbeat, so its failure event ties with a "
            "TimerWheel tick.  On a serial backend on_done schedules it "
            "during the heartbeat fan-out, before _tick re-arms: it sorts "
            "first and the retry is assigned at that tick (job fails at sim "
            "15.0).  On a pooled backend on_done runs at the join point, "
            "after _arm(): the tick sorts first and the retry waits one more "
            "heartbeat (18.0).  The fix is an engine tie-break change that "
            "must keep every serial digest (ROADMAP item 3)."
        ),
    )
    def test_failing_job_fails_at_the_same_instant(self):
        assert _job_failure_time("pooled-threads") == _job_failure_time("serial")


class TestLocalRunnerDeterminism:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_wordcount_identical_to_serial(self, backend_name):
        files = {"/data/corpus.txt": CORPUS}

        def job():
            return WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))

        serial = _local_fingerprint("serial", job, files)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pooled = _local_fingerprint(backend_name, job, files)
        assert pooled == serial

    @pytest.mark.parametrize("backend_name", ("serial", *BACKENDS))
    def test_attempt_heap_is_host_side_only(self, backend_name, monkeypatch):
        """Outputs, counters and simulated seconds do not depend on the
        collector pause every attempt runs under."""
        files = {"/data/corpus.txt": CORPUS}

        def job():
            return WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))

        def fingerprints():
            return (
                _local_fingerprint(backend_name, job, files),
                _cluster_fingerprint(backend_name),
            )

        paused = fingerprints()
        never_paused = SimpleNamespace(
            isenabled=lambda: True, disable=lambda: None, enable=lambda: None
        )
        monkeypatch.setattr(runtime, "gc", never_paused)  # forked workers too
        assert fingerprints() == paused

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_movie_ratings_job_runs_inline_identically(self, backend_name):
        """GenreStatsJob reads a side file via node-state sharing, so a
        pooled backend must route it inline — and still match serial."""
        data = generate_movielens(
            seed=7, num_ratings=800, num_movies=40, num_users=50
        )
        files = {
            "/ratings.dat": data.ratings_text,
            "/movies.dat": data.movies_text,
        }
        assert GenreStatsJob.shares_node_state

        def job():
            return GenreStatsJob(movies_path="/movies.dat", strategy="cached")

        serial = _local_fingerprint("serial", job, files)
        pooled = _local_fingerprint(backend_name, job, files)
        assert pooled == serial
