"""Property: the shared-memory shuffle plane is invisible to results.

The shm transport (``repro.mapreduce.shm``) changes only *where* frozen
RWF2 partition blobs live while crossing the pool — a mapped segment
file instead of a pickled bytes payload.  Everything observable —
counters, output pairs, simulated clocks, event counts — must be
bit-identical between ``shuffle_transport="shm"``, ``"framed"`` and the
serial backend (the transport oracle: object-form outputs, nothing
framed), on the local runner and the cluster, and under every chaos
drill with the runtime sanitizer watching.  Each run must also leave
zero live segments behind.
"""

import warnings

import pytest

from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import WordCountJob, WordCountWithCombinerJob
from repro.mapreduce import shm
from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import perf_stats
from repro.mapreduce.local_runner import LocalJobRunner

ALL_DRILLS = tuple(SCENARIOS)

CORPUS = (
    "the quick brown fox jumps over the lazy dog\n" * 300
    + "pack my box with five dozen liquor jugs\n" * 200
)


def _mr_config(transport, backend="pooled"):
    """``(config, backend name)`` for the fingerprint helpers."""
    return MapReduceConfig(shuffle_transport=transport), backend


def _local_fingerprint(setup, job_cls=WordCountWithCombinerJob):
    mr_config, backend = setup
    fs = LinuxFileSystem()
    fs.write_file("/data/corpus.txt", CORPUS)
    with LocalJobRunner(
        localfs=fs,
        backend=create_backend(backend, 2),
        mr_config=mr_config,
        split_size=8 * 1024,
    ) as runner:
        job = job_cls(JobConf(name="wc", num_reduces=3))
        result = runner.run(job, "/data/corpus.txt", "/out")
        return (
            result.simulated_seconds,
            result.counters.as_dict(),
            tuple(sorted(result.pairs)),
            result.num_splits,
        )


def _cluster_fingerprint(setup):
    mr_config, backend = setup
    with MapReduceCluster(
        num_workers=4,
        seed=11,
        mr_config=mr_config,
        backend=create_backend(backend, 2),
    ) as mr:
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


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Every test in this module must end with zero live scopes."""
    yield
    assert shm.live_scope_tokens() == []


class TestShmEqualsOtherTransports:
    @pytest.mark.parametrize("job_cls", [WordCountJob, WordCountWithCombinerJob])
    def test_local_runner_bit_identical(self, job_cls):
        with warnings.catch_warnings():
            # an inline/pickle fallback would mask a broken shm path
            warnings.simplefilter("error", RuntimeWarning)
            shared = _local_fingerprint(_mr_config("shm"), job_cls)
            framed = _local_fingerprint(_mr_config("framed"), job_cls)
            plain = _local_fingerprint(
                _mr_config("shm", backend="serial"), job_cls
            )
        assert shared == framed == plain

    def test_local_runner_matches_serial(self):
        shared = _local_fingerprint(_mr_config("shm"))
        serial = _local_fingerprint(_mr_config("shm", backend="serial"))
        assert shared == serial

    def test_file_arena_bit_identical(self):
        """Map output that really went through mapped segment files
        (not the silent stay-framed fallback) answers exactly like
        framed — only the blobs' address changes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            before = perf_stats().snapshot()
            filed = _local_fingerprint(_mr_config("shm"))
            moved = perf_stats().delta_since(before)
            framed = _local_fingerprint(_mr_config("framed"))
        assert filed == framed
        assert moved["segments_created"] == filed[3]  # one per map task
        assert moved["copy_avoided_bytes"] == moved["shm_bytes"]

    def test_cluster_bit_identical(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            shared = _cluster_fingerprint(_mr_config("shm"))
            plain = _cluster_fingerprint(_mr_config("shm", backend="serial"))
        assert shared == plain

    def test_cluster_shm_matches_serial(self):
        shared = _cluster_fingerprint(_mr_config("shm"))
        serial = _cluster_fingerprint(_mr_config("shm", backend="serial"))
        assert shared == serial

    def test_unpublished_is_invisible(self, monkeypatch):
        """Outputs whose publish failed (tmpfs full) stay framed blobs
        under the shm transport; not one observable bit may change."""
        published = _local_fingerprint(_mr_config("shm"))
        # Patched before the pool forks, so its workers see it too.
        monkeypatch.setattr(shm, "publish_frames", lambda *args: None)
        framed = _local_fingerprint(_mr_config("shm"))
        assert framed == published


class TestChaosDrillsShm:
    """The five drills, pooled + shm + sanitizer: heal and match."""

    @pytest.mark.parametrize("name", ALL_DRILLS)
    def test_drill_heals_shm(self, name):
        result = run_scenario(
            name, seed=0, backend="pooled", sanitize=True, transport="shm"
        )
        assert result.ok, result.summary()

    @pytest.mark.parametrize("name", ALL_DRILLS)
    def test_shm_drill_matches_object_drill(self, name):
        shared = run_scenario(
            name, seed=0, backend="pooled", sanitize=True, transport="shm"
        )
        plain = run_scenario(name, seed=0, backend="serial", sanitize=True)
        assert shared.output_files == plain.output_files
        assert shared.baseline_files == plain.baseline_files
        assert shared.fault_log == plain.fault_log
