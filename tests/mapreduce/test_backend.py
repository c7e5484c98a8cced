"""Execution backends: submit/join semantics and the engine barrier."""

import warnings

import pytest

from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import IntSumReducer, WordCountWithCombinerJob
from repro.mapreduce import backend as backend_mod
from repro.mapreduce.api import Job, Mapper
from repro.mapreduce.backend import (
    AUTO_MIN_PARALLEL_BYTES,
    BACKEND_NAMES,
    AutoExecutionBackend,
    PooledExecutionBackend,
    SerialExecutionBackend,
    create_backend,
    default_backend_spec,
    resolve_backend,
    set_default_backend,
    usable_cores,
)
from repro.mapreduce.blockio import BlockFetcher
from repro.mapreduce.config import JobConf
from repro.mapreduce.local_runner import LocalJobRunner
from repro.sim.engine import Simulation
from repro.util.errors import ConfigError, TaskFailedError
from tests.conftest import make_mr


class TestSerialBackend:
    def test_runs_at_submit(self):
        backend = SerialExecutionBackend()
        seen = []
        handle = backend.submit(lambda: 41 + 1, lambda h: seen.append(h.result()))
        assert seen == [42]
        assert handle.result() == 42
        assert backend.pending_since() is None

    def test_error_captured_in_handle(self):
        backend = SerialExecutionBackend()
        seen = []

        def boom():
            raise TaskFailedError("map raised ValueError: nope")

        backend.submit(boom, seen.append)
        with pytest.raises(TaskFailedError):
            seen[0].result()


class TestPooledBackend:
    @pytest.fixture(params=["thread", "process"])
    def pooled(self, request):
        backend = PooledExecutionBackend(workers=2, mode=request.param)
        yield backend
        backend.shutdown()

    def test_join_fires_callbacks_in_submission_order(self, pooled):
        order = []
        for i in range(6):
            pooled.submit(
                _double_factory(i),
                lambda h: order.append(h.result()),
                submit_time=float(i),
            )
        assert pooled.pending_since() == 0.0
        pooled.join_all()
        assert order == [0, 2, 4, 6, 8, 10]
        assert pooled.pending_since() is None

    def test_inline_submission_runs_immediately(self, pooled):
        seen = []
        pooled.submit(lambda: "now", lambda h: seen.append(h.result()), inline=True)
        assert seen == ["now"]  # before any join
        assert pooled.pending_since() is None

    def test_callback_submitting_more_work_is_drained(self, pooled):
        results = []

        def first_done(handle):
            results.append(handle.result())
            pooled.submit(_double_factory(50), lambda h: results.append(h.result()))

        pooled.submit(_double_factory(1), first_done)
        pooled.join_all()
        assert results == [2, 100]

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            PooledExecutionBackend(mode="fibers")


class TestTransportFallback:
    def test_unpicklable_work_reruns_inline(self):
        backend = PooledExecutionBackend(workers=1, mode="process")
        try:
            seen = []
            local_state = {"x": 7}
            backend.submit(lambda: local_state["x"] * 3, lambda h: seen.append(h.result()))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                backend.join_all()
            assert seen == [21]
            assert any(
                issubclass(w.category, RuntimeWarning) for w in caught
            )
        finally:
            backend.shutdown()


class TestRegistry:
    def test_create_by_name(self):
        for name in BACKEND_NAMES:
            backend = create_backend(name, workers=1)
            try:
                assert backend.name in ("serial", "pooled", "auto")
            finally:
                backend.shutdown()
        with pytest.raises(ConfigError):
            create_backend("gpu")

    def test_resolve_precedence(self):
        original = default_backend_spec()
        try:
            explicit = SerialExecutionBackend()
            assert resolve_backend(explicit) is explicit
            set_default_backend("pooled-threads", 1)
            fallback = resolve_backend(None)
            assert fallback.parallel
            fallback.shutdown()
        finally:
            set_default_backend(*original)
        assert not resolve_backend(None).parallel

    def test_unknown_default_rejected(self):
        with pytest.raises(ConfigError):
            set_default_backend("quantum")


class TestEngineBarrier:
    def test_clock_never_passes_pending_work(self):
        """The engine joins in-flight work before advancing past its
        submit time: same-time events overlap, later events do not."""
        sim = Simulation()
        backend = PooledExecutionBackend(workers=2, mode="thread")
        sim.register_work_joiner(backend)
        trace = []

        def launch(tag):
            backend.submit(
                lambda: tag,
                lambda h: trace.append((sim.now, "joined", h.result())),
                submit_time=sim.now,
            )

        sim.schedule_at(1.0, launch, "a")
        sim.schedule_at(1.0, launch, "b")
        sim.schedule_at(5.0, lambda: trace.append((sim.now, "later", None)))
        sim.run_until(10.0)
        backend.shutdown()
        # Both joins land with the clock still at 1.0, before t=5 runs.
        assert trace == [
            (1.0, "joined", "a"),
            (1.0, "joined", "b"),
            (5.0, "later", None),
        ]


class TestWorkerCrashRecovery:
    """A worker dying while holding a result: bounded resubmit, then
    inline fallback — the answer survives either way."""

    def test_injected_crash_recovers_on_resubmit(self):
        backend = PooledExecutionBackend(workers=2, mode="thread")
        try:
            backend._chaos = lambda index: index == 1
            seen = []
            for i in range(4):
                backend.submit(
                    _double_factory(i), lambda h: seen.append(h.result())
                )
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                backend.join_all()  # resubmit succeeds; no inline fallback
            assert seen == [0, 2, 4, 6]
            assert backend.worker_crash_recoveries == 1
        finally:
            backend.shutdown()

    def test_injected_crash_keeps_callback_order(self):
        backend = PooledExecutionBackend(workers=2, mode="thread")
        try:
            backend._chaos = lambda index: index in (0, 2)
            order = []
            for i in range(5):
                backend.submit(
                    _double_factory(i), lambda h: order.append(h.result())
                )
            backend.join_all()
            assert order == [0, 2, 4, 6, 8]
            assert backend.worker_crash_recoveries == 2
        finally:
            backend.shutdown()

    def test_pool_survives_injected_crash(self):
        backend = PooledExecutionBackend(workers=1, mode="thread")
        try:
            backend._chaos = lambda index: index == 0
            seen = []
            backend.submit(_double_factory(3), lambda h: seen.append(h.result()))
            backend.join_all()
            backend._chaos = None
            backend.submit(_double_factory(4), lambda h: seen.append(h.result()))
            backend.join_all()
            assert seen == [6, 8]
            assert backend.pending_since() is None
        finally:
            backend.shutdown()

    def test_real_broken_process_pool_falls_back_inline(self):
        """A work payload that kills every pool worker it lands on:
        resubmits exhaust, the inline fallback (same process) answers."""
        import functools
        import os

        backend = PooledExecutionBackend(workers=1, mode="process")
        try:
            seen = []
            backend.submit(
                functools.partial(_answer_or_die, os.getpid()),
                lambda h: seen.append(h.result()),
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                backend.join_all()
            assert seen == ["survived"]
            assert backend.worker_crash_recoveries == 1
            assert any(
                issubclass(w.category, RuntimeWarning)
                and "worker crash" in str(w.message)
                for w in caught
            )
        finally:
            backend.shutdown()

    def test_work_error_during_resubmit_is_reported(self):
        backend = PooledExecutionBackend(workers=1, mode="thread")
        try:
            backend._chaos = lambda index: True
            state = {"calls": 0}

            def flaky():
                state["calls"] += 1
                if state["calls"] > 1:
                    raise TaskFailedError("real failure on the rerun")
                return "first"

            seen = []
            backend.submit(flaky, seen.append)
            backend.join_all()
            with pytest.raises(TaskFailedError):
                seen[0].result()
        finally:
            backend.shutdown()


CORPUS = "\n".join(
    f"line {i % 7} word{i % 13} word{i % 5} tail" for i in range(400)
)


def _run_wordcount(backend):
    fs = LinuxFileSystem()
    fs.write_file("/in/corpus.txt", CORPUS)
    with LocalJobRunner(localfs=fs, backend=backend, split_size=4 * 1024) as runner:
        job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))
        return runner.run(job, "/in", "/out"), runner.backend


class TestAutoBackend:
    def test_decide_serial_on_one_core(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 1)
        auto = AutoExecutionBackend()
        try:
            assert auto.decide(10 * AUTO_MIN_PARALLEL_BYTES) == "serial"
            assert not auto.parallel
        finally:
            auto.shutdown()

    def test_decide_serial_below_byte_floor(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 8)
        auto = AutoExecutionBackend()
        try:
            assert auto.decide(AUTO_MIN_PARALLEL_BYTES - 1) == "serial"
            assert auto.decide(AUTO_MIN_PARALLEL_BYTES) == "pooled"
            assert auto.parallel
            assert auto.decide(0) == "serial"  # flips back per job
        finally:
            auto.shutdown()

    def test_decide_unknown_size_gates_on_cores_only(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 4)
        auto = AutoExecutionBackend(workers=2)
        try:
            assert auto.decide(None) == "pooled"
        finally:
            auto.shutdown()

    def test_auto_runner_matches_serial(self):
        auto_result, auto = _run_wordcount(create_backend("auto", 2))
        serial, _ = _run_wordcount(SerialExecutionBackend())
        assert sorted(auto_result.pairs) == sorted(serial.pairs)
        assert auto_result.counters.as_dict() == serial.counters.as_dict()
        assert auto_result.simulated_seconds == serial.simulated_seconds
        # this corpus is tiny, so auto must have stayed serial
        assert auto.chosen == "serial"

    def test_small_job_never_starts_a_pool(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 8)
        fs = LinuxFileSystem()
        fs.write_file("/in/corpus.txt", CORPUS)
        auto = create_backend("auto", 2)
        with LocalJobRunner(localfs=fs, backend=auto, split_size=4 * 1024) as runner:
            job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))
            runner.run(job, "/in", "/out")
            assert auto.chosen == "serial"
            assert auto._executor is None  # checked before shutdown

    def test_pooled_work_joins_in_order_after_flip_to_serial(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 2)
        auto = AutoExecutionBackend(workers=2, mode="thread")
        done = []
        record = lambda handle: done.append(handle.result())  # noqa: E731
        try:
            assert auto.decide(None) == "pooled"
            auto.submit(lambda: "pooled-1", record, submit_time=1.0)
            auto.submit(lambda: "pooled-2", record, submit_time=2.0)
            assert auto.decide(0) == "serial"
            auto.submit(lambda: "inline", record, submit_time=3.0)
            # inline work ran at once; the pooled items wait for the join
            assert done == ["inline"] and auto.pending_since() == 1.0
            auto.join_all()
            assert done == ["inline", "pooled-1", "pooled-2"]
            assert auto.pending_since() is None
        finally:
            auto.shutdown()

    def test_usable_cores_positive(self):
        assert usable_cores() >= 1

    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_default_pool_size_is_the_usable_cores_not_the_hosts(
        self, monkeypatch, mode
    ):
        """Under a cgroup/affinity limit the pool forks one worker per
        schedulable core — the same number ``auto`` decides from."""
        monkeypatch.setattr(backend_mod.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            backend_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        assert usable_cores() == 2
        assert PooledExecutionBackend(mode=mode).workers == 2
        assert create_backend("pooled", 0).workers == 2
        assert AutoExecutionBackend(workers=0).workers == 2
        assert PooledExecutionBackend(workers=3, mode=mode).workers == 3


class _SetupRaisesMapper(Mapper):
    def setup(self, context):
        raise ValueError("no side file")

    def map(self, key, value, context):
        context.write(value, 1)


class SetupRaisesJob(Job):
    mapper = _SetupRaisesMapper
    reducer = IntSumReducer


class TestAttemptOrderIdentity:
    """A map attempt reads its split *before* any user code runs, on
    every backend — so what a failing attempt did to HDFS (reads served,
    corrupt replicas found and reported) does not depend on where its
    work ran."""

    def _run(self, backend_name, monkeypatch):
        reads = []
        original = BlockFetcher.read_block

        def counting(fetcher, path, block_index, node, *args, **kwargs):
            reads.append((path, block_index, node))
            return original(fetcher, path, block_index, node, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(BlockFetcher, "read_block", counting)
            with make_mr(
                num_workers=3, backend=create_backend(backend_name, 2)
            ) as mr:
                mr.client().put_text("/in/w.txt", "w " * 3000)
                namenode = mr.hdfs.namenode
                for block_id, meta in sorted(namenode.block_map.items()):
                    # one of each block's two replicas goes bad
                    holder = sorted(meta.locations)[0]
                    mr.hdfs.datanode(holder).corrupt_block(block_id)
                reported = []
                mr.sim.bus.subscribe(
                    "hdfs.namenode.corrupt_replica",
                    lambda e: reported.append((e["block_id"], e["datanode"])),
                )
                job = SetupRaisesJob(JobConf(name="boom", max_attempts=2))
                report = mr.run_job(job, "/in", "/out")
                assert not report.succeeded
                return reads, reported

    def test_failing_setup_reads_and_reports_identically(self, monkeypatch):
        serial_reads, serial_reported = self._run("serial", monkeypatch)
        pooled_reads, pooled_reported = self._run("pooled-threads", monkeypatch)
        assert serial_reads and serial_reported
        assert pooled_reads == serial_reads
        assert pooled_reported == serial_reported


def _answer_or_die(parent_pid):
    """Kill any pool worker this lands on; answer only in the parent."""
    import os

    if os.getpid() != parent_pid:
        os._exit(1)
    return "survived"


def _double_factory(i):
    import functools

    return functools.partial(_double, i)


def _double(i):
    return i * 2
