"""Property: the zero-copy HDFS data path is invisible to results.

The verified-block cache, chunk memos, and ranged continuation reads
only change where *host* time goes.  Everything the simulation can
observe — counters, output pairs, simulated clocks, event counts —
must be bit-identical cache-on vs cache-off, on the cluster, across
repeated jobs over the same dataset (where the cache actually hits),
and under every chaos drill.  ``read_range`` itself must agree with
the plain byte slices it replaces at every chunk boundary +-1.  The
cache's ``block_id -> generations`` index is likewise invisible: on any
operation sequence the indexed cache equals the scan-based one it
replaced (``tests/hdfs/blockcache_oracle.py``), tally for tally.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.hdfs.block import Block, StoredBlock
from repro.hdfs.config import HdfsConfig
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import WordCountWithCombinerJob
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf
from repro.mapreduce.local_runner import LocalJobRunner
from tests.hdfs.blockcache_oracle import run_in_step

ALL_DRILLS = tuple(SCENARIOS)

CACHE_ON = 64 * 1024 * 1024
CACHE_OFF = 0

#: Short lines plus one line far longer than the 2048-byte block size,
#: so continuation reads span whole blocks mid-line.
CORPUS = (
    "the quick brown fox jumps over the lazy dog\n" * 120
    + "x" * 5000
    + " end\n"
    + "pack my box with five dozen liquor jugs\n" * 80
)


def _cluster_fingerprint(block_cache_bytes: int):
    """Two identical jobs over one dataset: the second runs warm when
    the cache is on, and nothing observable may move."""
    hdfs_config = HdfsConfig(
        block_size=2048, replication=2, block_cache_bytes=block_cache_bytes
    )
    with MapReduceCluster(num_workers=4, seed=11, hdfs_config=hdfs_config) as mr:
        mr.client().put_text("/in/corpus.txt", CORPUS)
        fingerprint = []
        for run in range(2):
            job = WordCountWithCombinerJob(JobConf(name=f"wc{run}", num_reduces=3))
            report = mr.run_job(job, "/in", f"/out{run}", require_success=True)
            fingerprint.append(
                (
                    report.elapsed,
                    report.counters.as_dict(),
                    tuple(sorted(mr.read_output(f"/out{run}"))),
                )
            )
        fingerprint.append((mr.sim.now, mr.sim.events_processed))
        return fingerprint


class TestCacheOnEqualsCacheOff:
    def test_cluster_bit_identical(self):
        warm = _cluster_fingerprint(CACHE_ON)
        cold = _cluster_fingerprint(CACHE_OFF)
        assert warm == cold

    def test_cache_actually_hit_during_warm_run(self):
        """Guard against the property above passing vacuously."""
        hdfs_config = HdfsConfig(
            block_size=2048, replication=2, block_cache_bytes=CACHE_ON
        )
        with MapReduceCluster(num_workers=4, seed=11, hdfs_config=hdfs_config) as mr:
            mr.client().put_text("/in/corpus.txt", CORPUS)
            for run in range(2):
                job = WordCountWithCombinerJob(
                    JobConf(name=f"wc{run}", num_reduces=3)
                )
                mr.run_job(job, "/in", f"/out{run}", require_success=True)
            hits = sum(
                dn.cache.hits for dn in mr.hdfs.datanodes.values()
            )
            assert hits > 0

    def test_local_runner_output_split_size_invariant(self):
        """Ranged continuation probes reassemble boundary lines exactly:
        the same corpus yields the same records at any split size."""
        outputs = []
        for split_size in (512, 2048, 64 * 1024):
            fs = LinuxFileSystem()
            fs.write_file("/data/corpus.txt", CORPUS)
            with LocalJobRunner(localfs=fs, split_size=split_size) as runner:
                job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))
                result = runner.run(job, "/data/corpus.txt", "/out")
                outputs.append(tuple(sorted(result.pairs)))
        assert outputs[0] == outputs[1] == outputs[2]


class TestChaosDrillsCacheOnOff:
    """All five drills heal identically with the cache on and off."""

    @pytest.mark.parametrize("name", ALL_DRILLS)
    def test_drill_bit_identical(self, name):
        warm = run_scenario(name, seed=0, block_cache_bytes=CACHE_ON)
        cold = run_scenario(name, seed=0, block_cache_bytes=CACHE_OFF)
        assert warm.ok, warm.summary()
        assert cold.ok, cold.summary()
        assert warm.output_files == cold.output_files
        assert warm.baseline_files == cold.baseline_files
        assert warm.fault_log == cold.fault_log
        assert (
            warm.report.counters.as_dict() == cold.report.counters.as_dict()
        )
        assert warm.report.elapsed == cold.report.elapsed


# ---------------------------------------------------------------------------
# read_range at chunk boundaries +-1

CHUNK = st.integers(min_value=1, max_value=9)
DATA = st.binary(min_size=0, max_size=64)


@settings(max_examples=150, deadline=None)
@given(data=DATA, chunk_size=CHUNK, boundary=st.integers(0, 8), delta=st.integers(-1, 1), length=st.integers(0, 64))
def test_read_range_at_chunk_boundaries(data, chunk_size, boundary, delta, length):
    stored = StoredBlock(Block(1, 1, len(data)), data, chunk_size=chunk_size)
    offset = max(0, boundary * chunk_size + delta)
    assert bytes(stored.read_range(offset, length)) == data[offset : offset + length]


@settings(max_examples=100, deadline=None)
@given(data=DATA, chunk_size=CHUNK, cuts=st.lists(st.integers(0, 64), max_size=6))
def test_ranged_reads_reassemble_whole_block(data, chunk_size, cuts):
    """Any partition of a block into ranges concatenates back to the
    same bytes a whole-block read returns."""
    stored = StoredBlock(Block(1, 1, len(data)), data, chunk_size=chunk_size)
    points = sorted({0, len(data), *[c % (len(data) + 1) for c in cuts]})
    pieces = [
        bytes(stored.read_range(start, end - start))
        for start, end in zip(points, points[1:])
    ]
    assert b"".join(pieces) == stored.read()


# ---------------------------------------------------------------------------
# the indexed cache against the scan-based one, operation by operation

_IDS = st.integers(min_value=0, max_value=4)
_GENERATIONS = st.integers(min_value=1, max_value=2)
_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _IDS, _GENERATIONS, st.sampled_from((0, 40, 100, 260))),
        st.tuples(st.just("get"), _IDS, _GENERATIONS),
        st.tuples(st.just("invalidate"), _IDS),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.sampled_from((0, 100, 250, 1000)), ops=_CACHE_OPS)
def test_indexed_cache_equals_the_scan_based_cache(capacity, ops):
    """Random put/get/invalidate/clear over few ids and two generations
    (so replacement, LRU eviction of one generation of an id, refused
    oversized puts and double invalidation all occur): ``stats()``, key
    order and ``used_bytes`` agree after every step, and the index holds
    exactly the ids the ``OrderedDict`` does."""
    script = [
        ("put", StoredBlock(Block(*args), bytes(args[2]))) if op == "put" else (op, *args)
        for op, *args in ops
    ]
    run_in_step(capacity, script)
