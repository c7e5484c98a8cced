"""An attempt owns its heap: the cyclic collector is paused while any
task attempt runs, and is exactly as the embedding program left it
afterwards.  Counted with ``gc.callbacks``, never timed."""

import gc
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro.datasets.zipf_text import ZipfTextGenerator
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import (
    IntSumReducer,
    TokenizerMapper,
    WordCountWithCombinerJob,
)
from repro.mapreduce import runtime
from repro.mapreduce.api import Job, Mapper
from repro.mapreduce.backend import create_backend
from repro.mapreduce.config import JobConf
from repro.mapreduce.local_runner import LocalJobRunner
from repro.mapreduce.runtime import attempt_heap
from repro.util.errors import TaskFailedError
from repro.util.rng import RngStream
from tests.conftest import make_mr

MIB = 1024 * 1024
SPLIT_SIZE = 128 * 1024
NUM_REDUCES = 4
JOIN_TIMEOUT = 30


@pytest.fixture(autouse=True)
def collector_on_and_no_scope_leaked():
    assert gc.isenabled() and runtime._open_heaps == 0
    yield
    leaked = runtime._open_heaps
    enabled = gc.isenabled()
    gc.enable()
    assert enabled and leaked == 0


@contextmanager
def gc_census():
    """Every collection that *starts*: (generation, attempt scopes open)."""
    starts: list[tuple[int, int]] = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append((info["generation"], runtime._open_heaps))

    gc.callbacks.append(on_gc)
    try:
        yield starts
    finally:
        gc.callbacks.remove(on_gc)


def _runner(text, backend_name="serial", workers=0, split_size=SPLIT_SIZE):
    fs = LinuxFileSystem()
    fs.write_file("/data/corpus.txt", text)
    return LocalJobRunner(
        localfs=fs,
        backend=create_backend(backend_name, workers),
        split_size=split_size,
    )


@pytest.fixture(scope="module")
def corpus():
    return ZipfTextGenerator(RngStream(5).child("attempt-heap")).text_of_bytes(MIB)


class TestCensus:
    # Serial only: the census counts collections in this process, and
    # pooled attempts run in worker processes.
    @pytest.mark.parametrize("backend_name, workers", [("serial", 0)])
    def test_no_collection_starts_inside_an_attempt(
        self, corpus, backend_name, workers
    ):
        job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=NUM_REDUCES))
        with _runner(corpus, backend_name, workers) as runner, gc_census() as starts:
            result = runner.run(job, "/data/corpus.txt", "/out")
        attempts = result.num_splits + NUM_REDUCES
        assert result.num_splits >= 8  # each map allocates ~30 k pairs
        assert [s for s in starts if s[1] > 0] == []
        # Unscoped, these 13 attempts trip the allocation threshold ~1 200 times.
        assert len(starts) <= 2 * attempts


class TestScopeAlgebra:
    def test_nested_entry_is_a_no_op(self):
        with attempt_heap():
            assert not gc.isenabled()
            with attempt_heap():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("first_out", ["a", "b"])
    def test_overlapping_threads_leave_the_collector_enabled(self, first_out):
        entered = {name: threading.Event() for name in "ab"}
        leave = {name: threading.Event() for name in "ab"}
        left = {name: threading.Event() for name in "ab"}

        def attempt(name):
            with attempt_heap():
                entered[name].set()
                assert leave[name].wait(JOIN_TIMEOUT)
            left[name].set()

        threads = [threading.Thread(target=attempt, args=(n,)) for n in "ab"]
        for thread, name in zip(threads, "ab"):
            thread.start()
            assert entered[name].wait(JOIN_TIMEOUT)
        second_out = "b" if first_out == "a" else "a"
        leave[first_out].set()
        assert left[first_out].wait(JOIN_TIMEOUT)
        assert not gc.isenabled()  # the other attempt still owns the heap
        leave[second_out].set()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()
        assert gc.isenabled()

    def test_a_collector_the_program_disabled_stays_disabled(self):
        gc.disable()
        try:
            with attempt_heap():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("phase", ["map", "combine", "reduce"])
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_user_code_that_raises_still_restores(self, phase, error):
        def boom(*_args):
            raise error("boom")

        class BoomMapper(TokenizerMapper):
            map = boom

        class BoomReducer(IntSumReducer):
            reduce = boom

        class BoomJob(Job):
            mapper = BoomMapper if phase == "map" else TokenizerMapper
            combiner = BoomReducer if phase == "combine" else None
            reducer = BoomReducer if phase == "reduce" else IntSumReducer

        expected = TaskFailedError if error is ValueError else KeyboardInterrupt
        with _runner("a b a\n") as runner, pytest.raises(expected):
            runner.run(BoomJob(), "/data/corpus.txt", "/out")
        assert gc.isenabled() and runtime._open_heaps == 0

    def test_cluster_run_job_restores_on_success_and_failure(self):
        class BoomMapper(Mapper):
            def map(self, key, value, context):
                raise ValueError("boom")

        class BoomJob(Job):
            mapper = BoomMapper

        with make_mr() as mr:
            mr.client().put_text("/in/w.txt", "w " * 3000)
            ok = WordCountWithCombinerJob(JobConf(name="ok"))
            assert mr.run_job(ok, "/in", "/out").succeeded
            assert gc.isenabled() and runtime._open_heaps == 0
            bad = BoomJob(JobConf(name="bad", max_attempts=2))
            assert not mr.run_job(bad, "/in", "/out2").succeeded
            assert gc.isenabled() and runtime._open_heaps == 0

    def test_pool_worker_has_the_collector_on_between_tasks(self, corpus):
        text = corpus[: 2 * SPLIT_SIZE]
        job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))
        with _runner(text, "pooled", 1) as runner:
            result = runner.run(job, "/data/corpus.txt", "/out")
            # One worker: the process that just ran every attempt answers.
            between_tasks = runner.backend._ensure_executor().submit(gc.isenabled)
            assert between_tasks.result(timeout=JOIN_TIMEOUT) is True
        assert result.num_splits >= 2


class _Node:
    pass


class CycleMapper(Mapper):
    """Ties one reference cycle per record, like a student's linked
    structure: only the cyclic collector can free these."""

    refs: list = []
    alive_at_cleanup = None

    def map(self, key, value, context):
        node = _Node()
        node.me = node
        CycleMapper.refs.append(weakref.ref(node))

    def cleanup(self, context):
        CycleMapper.alive_at_cleanup = sum(r() is not None for r in self.refs)


class CycleJob(Job):
    mapper = CycleMapper


class TestUserCycles:
    def test_cycles_wait_for_the_attempt_then_are_reclaimed(self):
        CycleMapper.refs = []
        cycles = 10_000
        with _runner("x\n" * cycles, split_size=MIB) as runner:
            runner.run(CycleJob(), "/data/corpus.txt", "/out")
        assert len(CycleMapper.refs) == cycles
        # The attempt owned its heap: nothing was collected under it ...
        assert CycleMapper.alive_at_cleanup == cycles
        # ... and nothing it left behind is out of the collector's reach.
        assert gc.isenabled()
        gc.collect()
        assert sum(r() is not None for r in CycleMapper.refs) == 0
