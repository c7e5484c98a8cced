"""Compiled sparklite ≡ the in-memory evaluator, bit for bit.

Every test runs one pipeline twice — once on a local context, once
compiled onto a MapReduce cluster — and requires the
*exact same* answer: same elements, same order, same types.  That is
the planner's contract (order out of actions, fold order into
``reduce_by_key``, value order inside ``group_by_key`` lists, pair
order out of ``join``), and it must hold across every execution
backend and shuffle transport of the engine underneath.
"""

import warnings

import pytest

from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import MapReduceConfig
from repro.sparklite import SparkLiteContext

# Module-level functions: picklable, so pooled backends ship them.


def add(a, b):
    return a + b


def subtract(a, b):  # non-associative, non-commutative on purpose
    return a - b


def pair_one(word):
    return (word, 1)


def by_first_char(word):
    return (word[0], word)


def double(x):
    return x * 2


def is_even(x):
    return x % 2 == 0


def split_words(line):
    return line.split()


WORDS = (
    "the quick brown fox jumps over the lazy dog "
    "the dog barks the fox runs quick quick"
).split()


def make_compiled(backend=None, **mr_kwargs):
    """A compiled context; on ``auto`` unless ``backend`` names one."""
    config = MapReduceConfig(**mr_kwargs) if mr_kwargs else None
    if backend is None:
        return SparkLiteContext.on_mapreduce(
            num_workers=4, seed=1, mr_config=config
        )
    cluster = MapReduceCluster(
        num_workers=4,
        seed=1,
        mr_config=config,
        backend=create_backend(backend, 2),
    )
    return SparkLiteContext.on_mapreduce(cluster=cluster)


def both_backends(pipeline):
    """Run ``pipeline(sc)`` on both backends; return (local, compiled)."""
    local = pipeline(SparkLiteContext.local(num_executors=3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no silent pickling fallbacks
        compiled = pipeline(make_compiled())
    return local, compiled


class TestDifferential:
    def test_wordcount(self):
        def pipeline(sc):
            return (
                sc.parallelize(WORDS, 4)
                .map(pair_one)
                .reduce_by_key(add, 3)
                .collect()
            )

        local, compiled = both_backends(pipeline)
        assert compiled == local

    def test_non_associative_fold_order(self):
        def pipeline(sc):
            pairs = [(i % 5, i) for i in range(40)]
            return (
                sc.parallelize(pairs, 6).reduce_by_key(subtract, 4).collect()
            )

        local, compiled = both_backends(pipeline)
        assert compiled == local

    def test_group_by_key_value_order(self):
        def pipeline(sc):
            return (
                sc.parallelize(WORDS, 5)
                .map(by_first_char)
                .group_by_key(3)
                .collect()
            )

        local, compiled = both_backends(pipeline)
        assert compiled == local

    def test_join_pair_order(self):
        def pipeline(sc):
            left = sc.parallelize([(i % 3, i) for i in range(12)], 3)
            right = sc.parallelize([(i % 4, -i) for i in range(8)], 2)
            return left.join(right, 3).collect()

        local, compiled = both_backends(pipeline)
        assert compiled == local

    def test_distinct_and_union(self):
        def pipeline(sc):
            a = sc.parallelize([3, 1, 2, 3, 1], 2)
            b = sc.parallelize([2, 5], 1)
            return a.union(b).distinct(2).collect()

        local, compiled = both_backends(pipeline)
        assert compiled == local

    def test_fused_narrow_chain_order(self):
        def pipeline(sc):
            return (
                sc.parallelize(range(30), 4)
                .map(double)
                .filter(is_even)
                .map(double)
                .collect()
            )

        local, compiled = both_backends(pipeline)
        assert compiled == local

    def test_mixed_type_keys(self):
        def pipeline(sc):
            pairs = [(1, "int"), ("1", "str"), (1.0, "float"), (True, "bool")]
            return sc.parallelize(pairs * 3, 3).group_by_key(2).collect()

        local, compiled = both_backends(pipeline)
        assert compiled == local

    def test_empty_rdd(self):
        def pipeline(sc):
            return sc.parallelize([], 3).map(double).reduce_by_key(add).collect()

        local, compiled = both_backends(pipeline)
        assert compiled == local == []

    def test_actions_agree(self):
        def pipeline(sc):
            rdd = sc.parallelize(range(50), 5).filter(is_even)
            return (rdd.count(), rdd.sum(), rdd.take(4))

        local, compiled = both_backends(pipeline)
        assert compiled == local


@pytest.mark.parametrize("backend", ["serial", "pooled", "auto"])
def test_execution_backends_bit_identical(backend):
    sc = make_compiled(backend)
    result = (
        sc.parallelize(WORDS, 4).map(pair_one).reduce_by_key(add, 3).collect()
    )
    local = (
        SparkLiteContext.local(3)
        .parallelize(WORDS, 4)
        .map(pair_one)
        .reduce_by_key(add, 3)
        .collect()
    )
    assert result == local


@pytest.mark.parametrize("transport", ["framed", "shm"])
def test_shuffle_transports_bit_identical(transport):
    sc = make_compiled("pooled", shuffle_transport=transport)
    result = (
        sc.parallelize(WORDS, 4).map(by_first_char).group_by_key(3).collect()
    )
    local = (
        SparkLiteContext.local(3)
        .parallelize(WORDS, 4)
        .map(by_first_char)
        .group_by_key(3)
        .collect()
    )
    assert result == local


class TestTextFile:
    def test_text_file_pipeline(self):
        text = "a b a\nc a b\n\na\n"
        sc = make_compiled()
        sc.cluster.hdfs.client().put_text("/data/lines.txt", text)
        compiled = (
            sc.text_file("/data/lines.txt")
            .flat_map(split_words)
            .map(pair_one)
            .reduce_by_key(add, 2)
            .collect()
        )
        local_sc = SparkLiteContext.on_cluster(sc.cluster.hdfs)
        local = (
            local_sc.text_file("/data/lines.txt")
            .flat_map(split_words)
            .map(pair_one)
            .reduce_by_key(add, 2)
            .collect()
        )
        assert compiled == local


class TestCacheAndPlan:
    def test_cache_skips_recompute_and_backs_onto_hdfs(self):
        sc = make_compiled()
        runner = sc._compiled_runner()
        cached = (
            sc.parallelize(WORDS, 4).map(pair_one).reduce_by_key(add, 3).cache()
        )
        first = cached.collect()
        jobs_after_first = runner.jobs_run
        second = cached.map(double).collect()
        assert second == [((k, v) * 2) for k, v in first]
        # The shuffle ran once; the second action only materializes the
        # narrow tail over the HDFS-cached stage output.
        assert runner.cache_hits >= 1
        assert runner.jobs_run == jobs_after_first + 1

    def test_unpersist_deletes_materialization(self):
        sc = make_compiled()
        runner = sc._compiled_runner()
        cached = sc.parallelize(range(10), 2).map(double).cache()
        cached.collect()
        assert runner._cached
        cached.unpersist()
        assert cached.rdd_id not in runner._cached

    def test_last_plan_exposes_stage_rollups(self):
        sc = make_compiled()
        sc.parallelize(WORDS, 4).map(pair_one).reduce_by_key(add, 3).collect()
        plan = sc.last_plan
        assert plan, "compiled action should record its stages"
        for stage in plan:
            assert stage["job"].startswith("sparklite-")
            assert "Map input records" in stage["counters"]
            assert stage["perf"] is not None

    def test_last_report_tracks_final_stage(self):
        sc = make_compiled()
        sc.parallelize(WORDS, 4).map(pair_one).reduce_by_key(add, 2).collect()
        report = sc._compiled_runner().last_report
        assert report is not None and report.succeeded
