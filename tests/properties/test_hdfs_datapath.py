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
replaced (``tests/hdfs/blockcache_oracle.py``), tally for tally.  And
the one replica reader every HDFS read goes through equals, float for
float, the three loops it replaced (``tests/hdfs/datapath_oracle.py``).
"""

import ast
import dataclasses
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings, strategies as st

import pytest

from repro.cluster.builder import build_hadoop_cluster
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.hdfs import datanode
from repro.hdfs.block import Block, StoredBlock
from repro.hdfs.client import ReadResult
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.config import HdfsConfig
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import WordCountWithCombinerJob
from repro.mapreduce.blockio import BlockFetcher, BlockRead
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf
from repro.mapreduce.local_runner import LocalJobRunner
from repro.util.errors import HdfsError
from tests.hdfs import datapath_oracle
from tests.hdfs.blockcache_oracle import run_in_step

REPO_SRC = Path(__file__).parent.parent.parent / "src"

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


@contextmanager
def _cache_bytes(capacity: int):
    """Build every DataNode inside the block with this cache capacity."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datanode, "BLOCK_CACHE_BYTES", capacity)
        yield


def _cluster_fingerprint(block_cache_bytes: int):
    """Two identical jobs over one dataset: the second runs warm when
    the cache is on, and nothing observable may move."""
    hdfs_config = HdfsConfig(block_size=2048, replication=2)
    with _cache_bytes(block_cache_bytes), MapReduceCluster(
        num_workers=4, seed=11, hdfs_config=hdfs_config
    ) as mr:
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
        hdfs_config = HdfsConfig(block_size=2048, replication=2)
        with _cache_bytes(CACHE_ON), MapReduceCluster(
            num_workers=4, seed=11, hdfs_config=hdfs_config
        ) as mr:
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
        with _cache_bytes(CACHE_ON):
            warm = run_scenario(name, seed=0)
        with _cache_bytes(CACHE_OFF):
            cold = run_scenario(name, seed=0)
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


# ---------------------------------------------------------------------------
# the one replica reader against the three loops it replaced

_READER = st.sampled_from((None, "node0", "node3", "node5"))
_READS = st.lists(
    st.one_of(
        st.tuples(st.just("whole")),
        st.tuples(
            st.just("pread"), st.integers(0, 5000), st.none() | st.integers(0, 5000)
        ),
        # (block pick, max_bytes, offset); the pick lands one past the last
        # block now and then, which is an IndexError on both sides
        st.tuples(
            st.just("task"),
            st.integers(0, 40),
            st.none() | st.integers(0, 900),
            st.integers(0, 900),
        ),
    ),
    min_size=1,
    max_size=6,
)


def _datapath_cluster(block_size, replication, data, corrupt, crash):
    """Six DataNodes over three racks (so all three locality classes
    occur) holding ``/f``; optionally one corrupted replica and one
    crashed DataNode the NameNode has not noticed yet."""
    cluster = HdfsCluster(
        hardware=build_hadoop_cluster(num_workers=6, nodes_per_rack=2),
        config=HdfsConfig(block_size=block_size, replication=replication),
        seed=5,
    )
    cluster.client(node="node1").put_bytes("/f", data)
    block_ids = sorted(cluster.namenode.block_map)
    if corrupt is not None and block_ids:
        block_id = block_ids[corrupt[0] % len(block_ids)]
        holders = sorted(cluster.namenode.block_map[block_id].locations)
        cluster.datanode(holders[corrupt[1] % len(holders)]).corrupt_block(block_id)
    if crash is not None:
        cluster.crash_datanode(f"node{crash}")
    reported = []
    cluster.sim.bus.subscribe(
        "hdfs.namenode.corrupt_replica",
        lambda event: reported.append(
            (event.data["block_id"], event.data["datanode"])
        ),
    )
    return cluster, reported


def _outcome(read):
    """What a read returned, or which of the two expected errors it raised."""
    try:
        result = read()
    except (HdfsError, IndexError) as exc:
        return type(exc)
    if isinstance(result, BlockRead):
        return (result.data, result.elapsed, result.locality, result.source)
    if isinstance(result, ReadResult):
        return dataclasses.astuple(result)
    return result  # the oracle's task read is already that 4-tuple


@settings(max_examples=120, deadline=None)
@given(
    size=st.integers(0, 4000),
    block_size=st.sampled_from((256, 700, 1024)),
    replication=st.integers(1, 3),
    reader=_READER,
    corrupt=st.none() | st.tuples(st.integers(0, 20), st.integers(0, 2)),
    crash=st.none() | st.integers(0, 5),
    reads=_READS,
)
def test_one_reader_equals_the_three_loops_it_replaced(
    size, block_size, replication, reader, corrupt, crash, reads
):
    """``read_bytes``, ``pread`` and ``BlockFetcher.read_block`` through
    ``read_replica`` against their pre-merge bodies
    (``tests/hdfs/datapath_oracle.py``) on twin clusters: the same bytes,
    ``elapsed`` equal as floats, the same locality and source, the same
    corrupt replicas reported in the same order, the same wire traffic —
    and an unreadable block is an ``HdfsError`` on both sides."""
    data = bytes(i * 31 % 251 for i in range(size))
    blocks = -(-size // block_size)
    old, old_reported = _datapath_cluster(block_size, replication, data, corrupt, crash)
    new, new_reported = _datapath_cluster(block_size, replication, data, corrupt, crash)
    client = new.client(node=reader, charge_time=False)
    fetcher = BlockFetcher(new.namenode, new.datanode, new.network)
    for kind, *args in reads:
        if kind == "whole":
            expected = _outcome(lambda: datapath_oracle.read_bytes(old, reader, "/f"))
            got = _outcome(lambda: client.read_bytes("/f"))
        elif kind == "pread":
            expected = _outcome(lambda: datapath_oracle.pread(old, reader, "/f", *args))
            got = _outcome(lambda: client.open("/f").pread(*args))
        else:
            pick, max_bytes, offset = args
            index = pick % (blocks + 1)
            task = ("/f", index, reader, max_bytes, offset)
            expected = _outcome(lambda: datapath_oracle.read_block(old, *task))
            got = _outcome(lambda: fetcher.read_block(*task))
        assert got == expected
    assert new_reported == old_reported
    assert new.network.counters.rack_local == old.network.counters.rack_local
    assert new.network.counters.off_rack == old.network.counters.off_rack


@settings(max_examples=60, deadline=None)
@given(
    prev=st.sampled_from((None, "laptop", "node0", "node1", "node4")),
    target=st.sampled_from(("node0", "node1", "node4")),
    nbytes=st.integers(0, 1 << 26),
)
def test_network_prices_an_outsider_like_the_copied_formula(prev, target, nbytes):
    """``pipeline_write``'s ``else:`` arm and the two client-side copies
    of it are ``NetworkModel.transfer_time`` with an endpoint outside
    the topology: the same float, the same ``off_rack`` tally."""
    old = build_hadoop_cluster(num_workers=6, nodes_per_rack=2).network
    new = build_hadoop_cluster(num_workers=6, nodes_per_rack=2).network
    assert new.transfer_time(prev, target, nbytes) == datapath_oracle.pipeline_hop(
        old, prev, target, nbytes
    )
    assert new.transfer_time(target, prev, nbytes) == datapath_oracle.client_transfer_in(
        old, prev, target, nbytes
    )
    assert new.counters == old.counters


class TestOneHomeForTheReadPath:
    def test_one_failover_loop_and_one_outsider_rule(self):
        """Who skips a corrupt replica, and what a party outside the
        cluster pays, are each written once: a second ``except
        CorruptBlockError`` is a second HDFS client, and a cost formula
        outside ``repro.cluster`` reading ``rack_oversubscription`` is a
        second network model."""
        handlers, oversubscription_readers = [], set()
        for path in sorted((REPO_SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    if "CorruptBlockError" in ast.unparse(node.type):
                        handlers.append(f"{path.name}:{node.lineno}")
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr == "rack_oversubscription"
                ):
                    oversubscription_readers.add(path.parent.name)
        assert len(handlers) == 1 and handlers[0].startswith("client.py"), handlers
        assert oversubscription_readers == {"cluster"}
