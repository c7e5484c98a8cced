"""Serial vs pooled execution: bit-identical simulated universes.

The ExecutionBackend contract (see ``repro.mapreduce.backend``): a
pooled job may run its task attempts' real work in parallel, but
counters, output pairs and *simulated* clocks must equal a serial run
exactly — parallelism is an optimisation of host wall-clock, never a
semantic.  No attempt may reach that answer by re-running inline.
"""

import functools
import warnings
from types import SimpleNamespace

import pytest

from repro.datasets.movielens import generate_movielens
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.movie_genres import GenreStatsJob
from repro.jobs.wordcount import (
    IntSumReducer,
    TokenizerMapper,
    WordCountWithCombinerJob,
)
from repro.mapreduce import jobtracker, runtime
from repro.mapreduce.api import Job, Mapper
from repro.mapreduce.backend import BACKEND_NAMES, create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf
from repro.mapreduce.local_runner import LocalJobRunner
from repro.util.errors import TaskFailedError
from tests.conftest import make_mr

BACKENDS = ("pooled",)

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
        assert backend.inline_fallbacks == 0
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
        assert backend.inline_fallbacks == 0
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


class _BadNodeMapper(TokenizerMapper):
    """Raises only when run on the node named by the ``bad_node`` param."""

    def map(self, key, value, context):
        if context.task_node == context.get("bad_node"):
            raise ValueError(f"bad disk on {context.task_node}")
        super().map(key, value, context)


class BadNodeJob(Job):
    mapper = _BadNodeMapper
    reducer = IntSumReducer


class _ReduceRaisesReducer(IntSumReducer):
    """Raises in partition 1 of 2 ("dog"), after partition 0 is written."""

    def reduce(self, key, values, context):
        if key.value == "dog":
            raise ValueError("bad group")
        super().reduce(key, values, context)


class ReduceRaisesJob(Job):
    mapper = TokenizerMapper
    reducer = _ReduceRaisesReducer


def _assert_same_on_every_backend(fingerprint, backend_name):
    mine = fingerprint(backend_name)
    for other in BACKEND_NAMES:
        assert fingerprint(other) == mine, f"{backend_name} != {other}"


@functools.cache
def _failing_job(backend_name):
    """Every attempt raises: when the job fails, and with what counters."""
    # 3 workers, 2 KiB blocks, replication 2, seed 1
    with pytest.MonkeyPatch.context() as patch, make_mr(
        num_workers=3, backend=create_backend(backend_name, 2)
    ) as mr:
        patch.setattr(jobtracker, "MAX_ATTEMPTS", 2)
        mr.client().put_text("/in/w.txt", "w " * 3000)
        failed = []
        mr.sim.bus.subscribe("mr.jobtracker.failed", lambda e: failed.append(e.time))
        job = MapRaisesJob(JobConf(name="boom"))
        report = mr.run_job(job, "/in", "/out")
        assert not report.succeeded and failed
        return (
            failed,
            report.counters.as_dict(),
            mr.sim.now,
            mr.sim.events_processed,
        )


@functools.cache
def _bad_node_job(backend_name):
    """One attempt raises (on ``node1``), its retry elsewhere succeeds."""
    with make_mr(num_workers=3, backend=create_backend(backend_name, 2)) as mr:
        mr.client().put_text("/in/w.txt", "a b c d " * 1500)
        failures = []
        mr.sim.bus.subscribe(
            "mr.task.failed",
            lambda e: failures.append((e.time, e.data["tracker"])),
        )
        job = BadNodeJob(JobConf(name="flaky", params={"bad_node": "node1"}))
        report = mr.run_job(job, "/in", "/out", require_success=True)
        assert failures
        return (
            report.elapsed,
            report.counters.as_dict(),
            tuple(sorted(mr.read_output("/out"))),
            mr.sim.now,
            mr.sim.events_processed,
            failures,
        )


class _ReadLoggingFileSystem(LinuxFileSystem):
    def __init__(self):
        super().__init__()
        self.reads: list[str] = []

    def read_file(self, path):
        self.reads.append(path)
        return super().read_file(path)


@functools.cache
def _local_failures(backend_name):
    """A raising mapper, then a raising reducer, on the LocalJobRunner:
    the error, what the run read and what it left on disk."""
    outcomes = []
    for job in (
        MapRaisesJob(JobConf(name="map-boom")),
        ReduceRaisesJob(JobConf(name="reduce-boom", num_reduces=2)),
    ):
        fs = _ReadLoggingFileSystem()
        fs.write_file("/data/corpus.txt", CORPUS)
        backend = create_backend(backend_name, 2)
        with LocalJobRunner(
            localfs=fs, backend=backend, split_size=8 * 1024
        ) as runner:
            with pytest.raises(TaskFailedError) as caught:
                runner.run(job, "/data/corpus.txt", "/out")
        outcomes.append((str(caught.value), fs.reads, fs.walk("/")))
    return outcomes


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
class TestUserCodeFailureDeterminism:
    """A raising attempt's completion is joined like any other, so where
    its work ran cannot move the failure, its retry or what follows."""

    def test_failing_job_fails_at_the_same_instant(self, backend_name):
        _assert_same_on_every_backend(_failing_job, backend_name)

    def test_job_surviving_a_failed_attempt_is_identical(self, backend_name):
        _assert_same_on_every_backend(_bad_node_job, backend_name)

    def test_local_runner_failures_are_identical(self, backend_name):
        _assert_same_on_every_backend(_local_failures, backend_name)


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
        pooled backend must place it inline — and still match serial."""
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
