"""The shared-memory shuffle plane: segments, scopes, leaks.

Three contracts:

1. blobs published into a segment — a private file, on the shared-memory
   tmpfs where the host has one — read back bit-exactly through
   :func:`attach_slice`, via a per-process attach cache that maps each
   segment at most once, and a slice outside its segment is rejected
   with :class:`WireFormatError`;
2. an :class:`ShmScope` unlinks everything it owns exactly once — the
   segments it adopted *and* the orphans a crashed worker left behind —
   and a run starts no helper process and writes nothing to stderr;
3. a published :class:`MapOutput` is observationally identical to a
   framed one.
"""

import errno
import functools
import os
import signal
import stat
import subprocess
import sys
import tempfile
import textwrap

import pytest

from repro.mapreduce import shm, wire
from repro.mapreduce.backend import create_backend
from repro.mapreduce.counters import PerfStats
from repro.mapreduce.shuffle import MapOutput, merge_for_reduce
from repro.mapreduce.types import IntWritable, Text
from repro.util.errors import WireFormatError

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="shm plane tests assume a POSIX host"
)


def _pairs(n=8):
    """``n`` one-record key runs."""
    return [(Text(f"k{i:03d}"), [IntWritable(i)]) for i in range(n)]


def _blob(n=8):
    blob, _ = wire.encode_runs(_pairs(n))
    return blob


def _runs(buf):
    return [(k.value, [v.value for v in vs]) for k, vs in wire.decode_runs(buf)]


def _merged(output, partition):
    groups, records, nbytes = merge_for_reduce([output], partition)
    return [(k.value, [v.value for v in vs]) for k, vs in groups], records, nbytes


@pytest.fixture
def scope():
    s = shm.ShmScope()
    yield s
    s.release()


# -- 1. publish / attach ----------------------------------------------------

class TestPublishAttach:
    def test_blobs_read_back_bit_exact(self):
        scope = shm.ShmScope()
        try:
            frames = {0: _blob(4), 2: _blob(9)}
            descs = shm.publish_frames(frames, scope.token)
            assert sorted(descs) == [0, 2]
            for p, blob in frames.items():
                view = shm.attach_slice(descs[p])
                assert bytes(view) == blob
                assert _runs(view) == _runs(blob)
        finally:
            scope.release()
        assert scope.live_segments() == []

    def test_empty_frames_do_not_publish(self, scope):
        assert shm.publish_frames({}, scope.token) is None
        assert shm.publish_frames({0: b""}, scope.token) is None

    def test_publish_counts_perf(self, scope):
        perf = PerfStats()
        frames = {0: _blob(3), 1: _blob(5)}
        shm.publish_frames(frames, scope.token, perf)
        assert perf.segments_created == 1
        assert perf.shm_bytes == sum(len(b) for b in frames.values())

    def test_attach_cache_maps_each_segment_once(self, scope):
        frames = {0: _blob(3), 1: _blob(5)}
        descs = shm.publish_frames(frames, scope.token)
        perf = PerfStats()
        shm.attach_slice(descs[0], perf)
        shm.attach_slice(descs[1], perf)
        shm.attach_slice(descs[0], perf)
        assert perf.segments_attached == 1  # same segment, one mapping

    def test_out_of_range_descriptor_rejected(self, scope):
        good = shm.publish_frames({0: _blob(2)}, scope.token)[0]
        for bad in (
            good._replace(length=good.length + 1),
            good._replace(offset=good.offset + 1),
            good._replace(offset=-1),
            good._replace(offset=-2, length=1),  # would wrap as a Python slice
            good._replace(length=-1),
        ):
            with pytest.raises(WireFormatError, match="out of range"):
                shm.attach_slice(bad)

    def test_scope_directory_and_segments_are_private(self, scope):
        desc = shm.publish_frames({0: _blob(2)}, scope.token)[0]
        assert os.path.dirname(desc.segment) == scope.token
        assert stat.S_IMODE(os.stat(scope.token).st_mode) == 0o700
        assert stat.S_IMODE(os.stat(desc.segment).st_mode) == 0o600

    @pytest.mark.skipif(
        not os.access("/dev/shm", os.W_OK), reason="no writable /dev/shm"
    )
    def test_scope_lives_on_the_shm_tmpfs(self, scope):
        assert os.path.dirname(scope.token) == "/dev/shm"

    def test_falls_back_to_the_system_temp_dir(self, monkeypatch, tmp_path):
        """No usable /dev/shm (macOS, a read-only container): segments
        go under TMPDIR and everything else is unchanged."""
        monkeypatch.setattr(shm, "_TMPFS_DIR", str(tmp_path / "absent"))
        scope = shm.ShmScope()
        try:
            assert os.path.dirname(scope.token) == tempfile.gettempdir()
            desc = shm.publish_frames({0: _blob(3)}, scope.token)[0]
            assert bytes(shm.attach_slice(desc)) == _blob(3)
        finally:
            scope.release()
        assert not os.path.exists(scope.token)

    def test_failed_write_leaves_no_file_and_output_framed(
        self, scope, monkeypatch
    ):
        """The tmpfs fills up between two blobs: the half-written
        segment is unlinked and the map output stays framed."""
        real_fdopen = os.fdopen

        def full_after_one_write(fd, mode):
            segment = real_fdopen(fd, mode)
            real_write, written = segment.write, []

            def write(blob):
                if written:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(real_write(blob))

            segment.write = write
            return segment

        monkeypatch.setattr(shm.os, "fdopen", full_after_one_write)
        output = MapOutput(task_index=0, node="n")
        output.partitions = {0: _pairs(4), 1: _pairs(6)}
        assert output.freeze()
        framed = dict(output.frames)
        assert not output.publish_shm(scope.token)
        assert output.frames == framed
        assert scope.live_segments() == []

    def test_attach_cache_evicts_lru(self, scope, monkeypatch):
        monkeypatch.setattr(shm, "ATTACH_CACHE_SEGMENTS", 2)
        descs = [
            shm.publish_frames({0: _blob(3)}, scope.token)[0] for _ in range(4)
        ]
        before = shm.attached_segment_count()
        for desc in descs:
            view = shm.attach_slice(desc)
            del view  # release the export so eviction can unmap
        assert shm.attached_segment_count() <= max(before, 2)

    def test_release_after_publish_failure_is_clean(self):
        """A token whose backing directory is gone: publish degrades to
        None (the output stays framed) instead of raising."""
        scope = shm.ShmScope()
        scope.release()  # rmtree's the directory
        assert not os.path.isdir(scope.token)
        assert shm.publish_frames({0: _blob(2)}, scope.token) is None


# -- 2. scopes, orphans, crashed workers ------------------------------------

class TestScopeLifecycle:
    def test_release_unlinks_adopted_segments(self):
        scope = shm.ShmScope()
        output = MapOutput(task_index=0, node="n")
        output.partitions = {0: _pairs(4)}
        assert output.freeze()
        assert output.publish_shm(scope.token)
        scope.adopt_output(output)
        assert scope.live_segments()
        scope.release()
        assert scope.live_segments() == []
        scope.release()  # idempotent

    def test_release_purges_unadopted_orphans(self):
        """Segments published but never adopted (the worker died before
        its result reached the parent) still go away at release."""
        scope = shm.ShmScope()
        shm.publish_frames({0: _blob(4)}, scope.token)  # never adopted
        assert scope.live_segments()
        scope.release()
        assert scope.live_segments() == []

    def test_scope_registry_and_release_all(self):
        scope = shm.ShmScope()
        assert scope.token in shm.live_scope_tokens()
        shm.release_all_scopes()
        assert scope.released
        assert scope.token not in shm.live_scope_tokens()

    def test_worker_killed_mid_shuffle_leaks_nothing(self, tmp_path):
        """The ISSUE's regression drill: a pool worker publishes a
        segment and dies; recovery answers on a fresh worker; release
        leaves no segment behind."""
        scope = shm.ShmScope()
        sentinel = str(tmp_path / "died-once")
        backend = create_backend("pooled", 1)
        try:
            seen = []
            backend.submit(
                functools.partial(_publish_and_die, scope.token, sentinel),
                lambda h: seen.append(h.result()),
            )
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                backend.join_all()
            assert seen == ["published"]
            assert backend.worker_crash_recoveries == 1
            # both attempts' segments exist: the dead worker's orphan
            # and the successful retry's.
            assert len(scope.live_segments()) >= 2
        finally:
            backend.shutdown()
        scope.release()
        assert scope.live_segments() == []

    def test_backend_shutdown_releases_scopes(self):
        backend = create_backend("pooled", 1)
        scope = shm.ShmScope()
        shm.publish_frames({0: _blob(3)}, scope.token)
        backend.shutdown()
        assert scope.released
        assert scope.live_segments() == []

    def test_run_starts_no_helper_process(self):
        """A pooled shm job starts nothing but its pool workers — in
        particular not ``multiprocessing``'s resource tracker, which
        ``SharedMemory`` would."""
        proc = _pooled_shm_wordcounts(jobs=1, lines=400, start_tracker=False)
        assert proc.stdout.split() == ["tracker_fd=None"], proc.stderr

    def test_resource_tracker_stays_silent(self):
        """With a resource tracker already running, shared by parent
        and forked workers, shm jobs must write nothing to stderr.
        (Unregistering ``SharedMemory`` names from a shared tracker
        made it print ``KeyError`` tracebacks about once per six
        1 MiB jobs.)"""
        proc = _pooled_shm_wordcounts(jobs=8, lines=1 << 16, start_tracker=True)
        assert proc.stderr == ""

    def test_interrupted_run_releases_segments(self, monkeypatch):
        """KeyboardInterrupt surfacing through join_all still hits the
        runner's finally: no segment survives."""
        from repro.hdfs.localfs import LinuxFileSystem
        from repro.jobs.wordcount import WordCountJob
        from repro.mapreduce import runtime
        from repro.mapreduce.config import JobConf, MapReduceConfig
        from repro.mapreduce.local_runner import LocalJobRunner

        fs = LinuxFileSystem()
        fs.write_file("/data/c.txt", "a b c\n" * 200)
        mr = MapReduceConfig(shuffle_transport="shm")
        before = shm.live_scope_tokens()
        with LocalJobRunner(
            localfs=fs,
            backend=create_backend("pooled", 2),
            mr_config=mr,
            split_size=512,
        ) as runner:
            monkeypatch.setattr(runtime, "reduce_attempt_work", _interrupt)
            job = WordCountJob(JobConf(name="wc", num_reduces=2))
            with pytest.raises(KeyboardInterrupt):
                runner.run(job, "/data/c.txt", "/out")
        assert shm.live_scope_tokens() == before


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def _pooled_shm_wordcounts(jobs, lines, start_tracker):
    """Run ``jobs`` pooled shm wordcounts over a ``16 * lines``-byte
    corpus in a fresh interpreter, which then prints whether a resource
    tracker process is running."""
    script = textwrap.dedent(
        f"""
        from multiprocessing import resource_tracker
        if {start_tracker}:
            resource_tracker.ensure_running()

        from repro.hdfs.localfs import LinuxFileSystem
        from repro.jobs.wordcount import WordCountJob
        from repro.mapreduce.backend import create_backend
        from repro.mapreduce.config import JobConf, MapReduceConfig
        from repro.mapreduce.local_runner import LocalJobRunner

        fs = LinuxFileSystem()
        fs.write_file("/data/c.txt", "a b c d e f g h\\n" * {lines})
        mr = MapReduceConfig(shuffle_transport="shm")
        with LocalJobRunner(localfs=fs, mr_config=mr,
                            backend=create_backend("pooled", 2),
                            split_size=64 * 1024) as runner:
            for n in range({jobs}):
                job = WordCountJob(JobConf(name="wc", num_reduces=4))
                runner.run(job, "/data/c.txt", f"/out{{n}}")
        print(f"tracker_fd={{resource_tracker._resource_tracker._fd}}")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        env=dict(os.environ, PYTHONPATH="src"),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _publish_and_die(token, sentinel):
    """Pool payload: publish a segment; die hard on the first attempt."""
    blob, _ = wire.encode_runs([(Text("k"), [IntWritable(1)])])
    shm.publish_frames({0: blob}, token)
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return "published"


# -- 3. published MapOutput ------------------------------------------------

class TestMapOutputDescriptorForm:
    def _published(self, scope):
        output = MapOutput(task_index=3, node="n")
        output.partitions = {0: _pairs(5), 2: _pairs(7)}
        assert output.freeze()
        framed = {p: output.frames[p] for p in output.frames}
        assert output.publish_shm(scope.token)
        scope.adopt_output(output)
        return output, framed

    def test_accessors_match_framed_form(self, scope):
        output, framed = self._published(scope)
        reference = MapOutput(task_index=3, node="n")
        reference.partitions = {0: _pairs(5), 2: _pairs(7)}
        assert reference.freeze()
        assert reference.frames == framed
        assert output.frozen
        assert all(isinstance(v, shm.ShmSlice) for v in output.frames.values())
        assert sorted(output.frames) == sorted(reference.frames)
        for p in (0, 1, 2):
            assert _merged(output, p) == _merged(reference, p)
        assert (output.records, output.nbytes) == (reference.records, reference.nbytes)

    def test_slice_for_carries_one_descriptor(self, scope):
        output, _ = self._published(scope)
        sliced = output.slice_for(2)
        assert sliced.frames == {2: output.frames[2]}
        assert _merged(sliced, 2) == _merged(output, 2)
        assert _merged(sliced, 0) == ([], 0, 0)
        empty = output.slice_for(1)
        assert empty.frames == {}
        assert empty.frozen

    def test_publish_requires_frozen(self, scope):
        output = MapOutput(task_index=0, node="n")
        output.partitions = {0: _pairs(2)}
        assert not output.publish_shm(scope.token)  # not frozen yet
        assert output.partitions is not None

    def test_decode_counts_zero_copy_bytes(self, scope):
        output, _ = self._published(scope)
        perf = PerfStats()
        merge_for_reduce([output], 0, perf)
        merge_for_reduce([output], 2, perf)
        total = sum(d.length for d in output.frames.values())
        assert perf.copy_avoided_bytes == total
        assert perf.blobs_decoded == 2
