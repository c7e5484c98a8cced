"""The execution backend: placement policy, submit/join semantics, the
engine barrier, and where each job of a cluster runs."""

import functools
import os
import warnings

import pytest

from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import (
    IntSumReducer,
    TokenizerMapper,
    WordCountWithCombinerJob,
)
from repro.mapreduce import backend as backend_mod
from repro.mapreduce.api import Job, Mapper
from repro.mapreduce.backend import (
    AUTO_MIN_PARALLEL_BYTES,
    BACKEND_NAMES,
    ExecutionBackend,
    create_backend,
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

#: ``pools(size)`` for an unknown size, just below the floor, at it and
#: far above it — per policy, on hosts with one and two usable cores.
SIZES = (
    None,
    AUTO_MIN_PARALLEL_BYTES - 1,
    AUTO_MIN_PARALLEL_BYTES,
    10 * AUTO_MIN_PARALLEL_BYTES,
)
POLICY_TABLE = {
    ("serial", 1): (False, False, False, False),
    ("serial", 2): (False, False, False, False),
    ("pooled", 1): (True, True, True, True),
    ("pooled", 2): (True, True, True, True),
    ("auto", 1): (False, False, False, False),
    ("auto", 2): (True, False, True, True),
}

#: What a backend may change about itself after construction: its pool
#: and its counters, never a decision.
LIFECYCLE = frozenset(
    {
        "_executor",
        "_in_flight",
        "_submit_count",
        "worker_crash_recoveries",
        "inline_fallbacks",
    }
)


def _decisions(backend) -> dict:
    return {k: v for k, v in vars(backend).items() if k not in LIFECYCLE}


class TestPolicy:
    def test_names(self):
        assert BACKEND_NAMES == ("serial", "pooled", "auto")

    @pytest.mark.parametrize("policy, cores", sorted(POLICY_TABLE))
    def test_pools(self, monkeypatch, policy, cores):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: cores)
        backend = ExecutionBackend(policy, 2)
        before = _decisions(backend)
        assert tuple(backend.pools(size) for size in SIZES) == (
            POLICY_TABLE[policy, cores]
        )
        assert _decisions(backend) == before  # asking is pure
        assert backend._executor is None  # and starts nothing


class TestSerialBackend:
    def test_runs_at_submit(self):
        """Inline work runs at submit; its callback waits for the join."""
        backend = create_backend("serial")
        ran, seen = [], []

        def work():
            ran.append(True)
            return 41 + 1

        handle = backend.submit(
            work, lambda h: seen.append(h.result()), submit_time=3.0, inline=True
        )
        assert ran == [True] and handle.result() == 42
        assert seen == [] and backend.pending_since() == 3.0
        backend.join_all()
        assert seen == [42]
        assert backend.pending_since() is None
        assert backend._executor is None

    def test_error_captured_in_handle(self):
        backend = create_backend("serial")
        seen = []

        def boom():
            raise TaskFailedError("map raised ValueError: nope")

        backend.submit(boom, seen.append, inline=True)  # does not raise
        assert seen == []
        backend.join_all()
        with pytest.raises(TaskFailedError):
            seen[0].result()

    def test_serial_run_never_starts_a_pool(self):
        fs = LinuxFileSystem()
        fs.write_file("/in/corpus.txt", CORPUS)
        serial = create_backend("serial", 2)
        with LocalJobRunner(localfs=fs, backend=serial, split_size=4 * 1024) as runner:
            job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))
            runner.run(job, "/in", "/out")
            assert serial._executor is None  # checked before shutdown
            assert serial._submit_count == 0


class TestPooledBackend:
    @pytest.fixture(params=["process"])  # the one kind of pool
    def pooled(self, request):
        backend = create_backend("pooled", 2)
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
        """Inline work runs at once but joins with pooled work, in
        submission order."""
        ran, seen = [], []

        def now():
            ran.append("now")
            return "now"

        pooled.submit(_double_factory(1), lambda h: seen.append(h.result()))
        pooled.submit(now, lambda h: seen.append(h.result()), inline=True)
        pooled.submit(_double_factory(2), lambda h: seen.append(h.result()))
        assert ran == ["now"] and seen == []  # before any join
        pooled.join_all()
        assert seen == [2, "now", 4]
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
            ExecutionBackend("threads")
        with pytest.raises(ConfigError):
            ExecutionBackend("pooled", -1)


class TestTransportFallback:
    def test_unpicklable_work_reruns_inline(self):
        backend = create_backend("pooled", 1)
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
            assert backend.inline_fallbacks == 1
        finally:
            backend.shutdown()

    def test_unpicklable_job_falls_back_once_per_attempt(self):
        class LocalMapper(TokenizerMapper):
            pass

        class LocalJob(Job):
            mapper = LocalMapper
            reducer = IntSumReducer

        def run(backend_name):
            fs = LinuxFileSystem()
            fs.write_file("/in/corpus.txt", CORPUS)
            backend = create_backend(backend_name, 2)
            with LocalJobRunner(
                localfs=fs, backend=backend, split_size=4 * 1024
            ) as runner:
                result = runner.run(
                    LocalJob(JobConf(name="wc", num_reduces=2)), "/in", "/out"
                )
            return result, backend

        serial, _ = run("serial")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pooled, backend = run("pooled")
        attempts = pooled.num_splits + 2
        assert attempts > 2
        assert backend.inline_fallbacks == attempts
        assert sum(issubclass(w.category, RuntimeWarning) for w in caught) == attempts
        assert sorted(pooled.pairs) == sorted(serial.pairs)
        assert pooled.counters.as_dict() == serial.counters.as_dict()


class TestRegistry:
    def test_create_by_name(self):
        for name in BACKEND_NAMES:
            backend = create_backend(name, workers=1)
            try:
                assert backend.policy == name and backend.workers == 1
            finally:
                backend.shutdown()
        with pytest.raises(ConfigError):
            create_backend("gpu")

    def test_resolve_precedence(self):
        original = backend_mod._default_spec
        try:
            explicit = create_backend("serial")
            assert resolve_backend(explicit) is explicit
            set_default_backend("pooled", 1)
            fallback = resolve_backend(None)
            assert (fallback.policy, fallback.workers) == ("pooled", 1)
            fallback.shutdown()
        finally:
            set_default_backend(*original)
        assert resolve_backend(None).policy == "serial"

    def test_unknown_default_rejected(self):
        with pytest.raises(ConfigError):
            set_default_backend("quantum")


class TestEngineBarrier:
    def test_clock_never_passes_pending_work(self):
        """The engine joins in-flight work before advancing past its
        submit time: same-time events overlap, later events do not."""
        sim = Simulation()
        backend = create_backend("pooled", 2)
        sim.register_work_joiner(backend)
        trace = []

        def launch(tag):
            backend.submit(
                functools.partial(_echo, tag),
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
        backend = create_backend("pooled", 2)
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
            assert backend.inline_fallbacks == 0
        finally:
            backend.shutdown()

    def test_injected_crash_keeps_callback_order(self):
        backend = create_backend("pooled", 2)
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
        backend = create_backend("pooled", 1)
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
        backend = create_backend("pooled", 1)
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

    def test_work_error_during_resubmit_is_reported(self, tmp_path):
        backend = create_backend("pooled", 1)
        try:
            backend._chaos = lambda index: True
            seen = []
            backend.submit(
                functools.partial(_fails_on_rerun, str(tmp_path / "ran")),
                seen.append,
            )
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


def _placed_on_pool(policy, files):
    """Submit one job per ``{name: text}`` file; what each RunningJob
    records about where its attempts will run."""
    with make_mr(block_size=256 * 1024, backend=create_backend(policy, 2)) as mr:
        placed = {}
        for name, text in files.items():
            mr.client().put_text(f"/{name}.txt", text)
            job = WordCountWithCombinerJob(JobConf(name=name))
            placed[name] = mr.submit(job, f"/{name}.txt", f"/out-{name}").pooled
        return placed


class TestAutoBackend:
    def test_decide_serial_on_one_core(self, monkeypatch):
        """On one usable core a job is placed inline, however large."""
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 1)
        assert _placed_on_pool("auto", {"big": BIG_TEXT}) == {"big": False}

    def test_decide_serial_below_byte_floor(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 8)
        placed = _placed_on_pool("auto", {"small": SMALL_TEXT, "big": BIG_TEXT})
        assert placed == {"small": False, "big": True}

    def test_decide_unknown_size_gates_on_cores_only(self, monkeypatch):
        auto = create_backend("auto", 2)
        for cores, expected in ((1, False), (4, True)):
            monkeypatch.setattr(backend_mod, "usable_cores", lambda n=cores: n)
            assert auto.pools(None) is expected

    def test_auto_runner_matches_serial(self):
        auto_result, auto = _run_wordcount(create_backend("auto", 2))
        serial, _ = _run_wordcount(create_backend("serial"))
        assert sorted(auto_result.pairs) == sorted(serial.pairs)
        assert auto_result.counters.as_dict() == serial.counters.as_dict()
        assert auto_result.simulated_seconds == serial.simulated_seconds
        # this corpus is tiny, so auto must have kept every attempt inline
        assert auto._submit_count == 0

    def test_small_job_never_starts_a_pool(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 8)
        fs = LinuxFileSystem()
        fs.write_file("/in/corpus.txt", CORPUS)
        auto = create_backend("auto", 2)
        with LocalJobRunner(localfs=fs, backend=auto, split_size=4 * 1024) as runner:
            job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))
            runner.run(job, "/in", "/out")
            assert auto._executor is None  # checked before shutdown

    def test_pooled_work_joins_in_order_after_flip_to_serial(self, monkeypatch):
        """A job placed on the pool, then one placed inline: the inline
        work runs at once, and every callback joins in submission order."""
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 2)
        auto = create_backend("auto", 2)
        done = []
        record = lambda handle: done.append(handle.result())  # noqa: E731
        try:
            assert auto.pools(None)
            auto.submit(functools.partial(_echo, "pooled-1"), record, submit_time=1.0)
            auto.submit(functools.partial(_echo, "pooled-2"), record, submit_time=2.0)
            assert not auto.pools(0)
            inline = auto.submit(
                functools.partial(_echo, "inline"), record, submit_time=3.0, inline=True
            )
            assert inline.result() == "inline"  # ran at submit
            assert done == [] and auto.pending_since() == 1.0
            auto.join_all()
            assert done == ["pooled-1", "pooled-2", "inline"]
            assert auto.pending_since() is None
        finally:
            auto.shutdown()

    def test_usable_cores_positive(self):
        assert usable_cores() >= 1

    def test_default_pool_size_is_the_usable_cores_not_the_hosts(self, monkeypatch):
        """Under a cgroup/affinity limit the pool forks one worker per
        schedulable core — the same number ``auto`` decides from."""
        monkeypatch.setattr(backend_mod.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            backend_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        assert usable_cores() == 2
        for name in BACKEND_NAMES:
            assert create_backend(name, 0).workers == 2
        assert create_backend("pooled", 3).workers == 3


SMALL_TEXT = "tiny job words here\n" * 500  # 10 KB
BIG_TEXT = "the quick brown fox jumps over the lazy dog\n" * 28_000  # 1.2 MB


def _job_name(work) -> str:
    """The job an attempt's work belongs to (in the partial's arguments)."""
    while isinstance(work, functools.partial):
        for arg in (*work.args, *work.keywords.values()):
            if isinstance(arg, Job):
                return arg.name
        work = work.func
    raise AssertionError(f"no job in {work!r}")


def _two_jobs_at_once(backend):
    """A small and a large job submitted before the first heartbeat.
    Returns outputs, reports, every attempt's ``(job, inline)`` and
    whether running them changed any of the backend's decisions."""
    placed = []
    submit = backend.submit

    def spy(work, on_done, **kwargs):
        placed.append((_job_name(work), kwargs.get("inline", False)))
        return submit(work, on_done, **kwargs)

    backend.submit = spy
    with make_mr(block_size=256 * 1024, backend=backend) as mr:
        mr.client().put_text("/small.txt", SMALL_TEXT)
        mr.client().put_text("/big.txt", BIG_TEXT)
        decisions = _decisions(backend)
        jobs = [
            mr.submit(
                WordCountWithCombinerJob(JobConf(name=name, num_reduces=2)),
                f"/{name}.txt",
                f"/out-{name}",
            )
            for name in ("small", "big")
        ]
        for job in jobs:
            mr.wait_for_job(job)
        changed = _decisions(backend) != decisions
        reports = [job.report() for job in jobs]
        outputs = [sorted(mr.read_output(f"/out-{n}")) for n in ("small", "big")]
        return (
            outputs,
            [(r.succeeded, r.elapsed, r.counters.as_dict()) for r in reports],
            placed,
            changed,
        )


class TestPerJobPlacement:
    """Where a job runs is decided once, at its submission, and every
    attempt of that job follows it — a later job's decision does not
    move an earlier job's attempts."""

    def test_concurrent_auto_jobs_keep_their_own_placement(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 2)
        assert len(SMALL_TEXT) < AUTO_MIN_PARALLEL_BYTES <= len(BIG_TEXT)
        serial_out, serial_reports, _, _ = _two_jobs_at_once(
            create_backend("serial")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            auto = create_backend("auto", 2)
            outputs, reports, placed, changed = _two_jobs_at_once(auto)
        small = [inline for name, inline in placed if name == "small"]
        big = [inline for name, inline in placed if name == "big"]
        assert len(small) >= 3 and all(small)  # one map, two reduces
        assert len(big) >= 7 and not any(big)  # five maps, two reduces
        assert not changed  # only the pool and the counters moved
        assert auto.inline_fallbacks == 0
        assert outputs == serial_out
        assert reports == serial_reports


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
                    lambda e: reported.append(
                        (e.data["block_id"], e.data["datanode"])
                    ),
                )
                job = SetupRaisesJob(JobConf(name="boom", max_attempts=2))
                report = mr.run_job(job, "/in", "/out")
                assert not report.succeeded
                return reads, reported

    def test_failing_setup_reads_and_reports_identically(self, monkeypatch):
        serial_reads, serial_reported = self._run("serial", monkeypatch)
        pooled_reads, pooled_reported = self._run("pooled", monkeypatch)
        assert serial_reads and serial_reported
        assert pooled_reads == serial_reads
        assert pooled_reported == serial_reported


def _answer_or_die(parent_pid):
    """Kill any pool worker this lands on; answer only in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return "survived"


def _fails_on_rerun(marker):
    """Answer the first run; raise on every later one, in any process."""
    if os.path.exists(marker):
        raise TaskFailedError("real failure on the rerun")
    open(marker, "w").close()
    return "first"


def _echo(value):
    return value


def _double_factory(i):
    return functools.partial(_double, i)


def _double(i):
    return i * 2
