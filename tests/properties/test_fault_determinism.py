"""Property: chaos never changes the answer, only the journey.

For randomly seeded :class:`FaultPlan`\\ s, wordcount and the
movie-ratings job must produce output files and user-level counters
*identical* to a fault-free run on an identically-seeded cluster — on
the serial backend and on a pooled backend alike.  "Job Counters"
(launches, locality, failures) are the journey and legitimately differ;
everything else is the answer and must not.
"""

import pytest

from repro.datasets.movielens import generate_movielens
from repro.faults import FaultInjector, FaultPlan
from repro.hdfs.config import HdfsConfig
from repro.jobs.movie_genres import GenreStatsJob
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf
from repro.mapreduce.types import IntWritable, Text, Writable

BACKENDS = ("serial", "pooled")
WORDS_COUNTED = ("App Metrics", "words counted")


class CountingMapper(Mapper):
    """Tokenize and bump a *user* counter — chaos must preserve both."""

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        for word in value.value.split():
            context.write(Text(word), IntWritable(1))
            context.increment(WORDS_COUNTED)


class SumReducer(Reducer):
    def reduce(self, key: Writable, values, context: Context) -> None:
        context.write(key, IntWritable(sum(v.value for v in values)))


class CountingWordCount(Job):
    mapper = CountingMapper
    reducer = SumReducer


def chaos_plan(seed: int) -> FaultPlan:
    return (
        FaultPlan(seed=seed)
        .shuffle_failure_rate(0.25)
        .task_exception_rate(0.1)
        .straggler_rate(0.15, factor=2.5)
    )


def make_cluster(backend: str) -> MapReduceCluster:
    return MapReduceCluster(
        num_workers=4,
        hdfs_config=HdfsConfig(block_size=2048, replication=2),
        seed=1,
        backend=create_backend(backend, 2),
    )


def run_wordcount(backend: str, plan: FaultPlan | None):
    with make_cluster(backend) as mr:
        mr.client().put_text("/in.txt", "lorem ipsum dolor sit amet " * 700)
        injector = FaultInjector(plan, mr).arm() if plan else None
        try:
            report = mr.run_job(
                CountingWordCount(JobConf(name="cwc", num_reduces=2)),
                "/in.txt",
                "/out",
                timeout=48 * 3600,
                require_success=True,
            )
        finally:
            if injector:
                injector.disarm()
        return (
            sorted(mr.read_output("/out")),
            report.counters.get(WORDS_COUNTED),
            injector.fault_log() if injector else [],
        )


def run_movie_ratings(backend: str, plan: FaultPlan | None):
    data = generate_movielens(seed=7, num_ratings=800, num_movies=40, num_users=50)
    with make_cluster(backend) as mr:
        client = mr.client()
        client.put_text("/in/ratings.dat", data.ratings_text)
        client.put_text("/aux/movies.dat", data.movies_text)
        injector = FaultInjector(plan, mr).arm() if plan else None
        try:
            mr.run_job(
                GenreStatsJob(movies_path="/aux/movies.dat"),
                "/in/ratings.dat",
                "/out",
                timeout=48 * 3600,
                require_success=True,
            )
        finally:
            if injector:
                injector.disarm()
        return sorted(mr.read_output("/out"))


class TestWordCountUnderChaos:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("plan_seed", (17, 23))
    def test_output_and_user_counters_survive(self, backend, plan_seed):
        clean_pairs, clean_counter, _ = run_wordcount(backend, None)
        pairs, counter, fault_log = run_wordcount(backend, chaos_plan(plan_seed))
        assert fault_log, "these rates should inject faults"
        assert pairs == clean_pairs
        assert counter == clean_counter > 0

    def test_backends_see_identical_chaos(self):
        """The fault draws are name-keyed, so serial and pooled runs of
        the same plan inject the *same* faults and agree on the answer.
        (Log *order* may interleave differently at equal timestamps —
        pooled callbacks land at the join — so compare the sorted set.)"""
        results = {b: run_wordcount(b, chaos_plan(17)) for b in BACKENDS}
        serial, pooled = results["serial"], results["pooled"]
        assert sorted(serial[2]) == sorted(pooled[2])
        assert serial[0] == pooled[0]
        assert serial[1] == pooled[1]


class TestMovieRatingsUnderChaos:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_side_file_job_survives(self, backend):
        clean = run_movie_ratings(backend, None)
        chaotic = run_movie_ratings(backend, chaos_plan(29))
        assert chaotic == clean
