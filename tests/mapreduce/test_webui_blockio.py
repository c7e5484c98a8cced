"""Web-UI renderings and the task-side block fetcher."""

import pytest

from repro.hdfs.namenode import LocatedBlock
from repro.jobs.wordcount import WordCountWithCombinerJob
from repro.mapreduce.blockio import BlockFetcher
from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import C
from repro.mapreduce.streaming import streaming_job
from repro.mapreduce.webui import (
    render_cluster_status,
    render_integration_view,
    render_job_page,
)
from repro.util.errors import HdfsError
from tests.conftest import make_hdfs, make_mr


def wc():
    return streaming_job(
        "wc",
        lambda k, v: ((w, 1) for w in v.split()),
        lambda k, vs: [(k, sum(vs))],
    )


class TestWebUi:
    def test_cluster_status_lists_trackers_and_jobs(self, mr):
        mr.client().put_text("/in.txt", "a b\n")
        mr.run_job(wc(), "/in.txt", "/out", require_success=True)
        text = render_cluster_status(mr)
        assert "JobTracker status" in text
        for name in mr.tasktrackers:
            assert name in text
        assert "job_0001" in text

    def test_job_page_shows_attempts_and_events(self, mr):
        mr.client().put_text("/in.txt", "a b\n" * 50)
        running = mr.submit(wc(), "/in.txt", "/out")
        mr.wait_for_job(running)
        text = render_job_page(running)
        assert "task_job_0001_m_000000" in text
        assert "task_job_0001_r_000000" in text
        assert "Event log" in text

    def test_integration_view_without_job(self, mr):
        mr.client().put_text("/data/f.txt", "x" * 5000)
        text = render_integration_view(mr, path="/data")
        assert "blk_" in text
        assert "JobTracker" not in text  # no job passed

    def test_crashed_tracker_visible(self, mr):
        mr.tasktrackers["node1"].crash()
        text = render_cluster_status(mr)
        assert "crashed" in text


class TestBlockFetcher:
    def make_fetcher(self, cluster):
        return BlockFetcher(
            namenode=cluster.namenode,
            dn_lookup=cluster.datanode,
            network=cluster.network,
        )

    def test_block_layout(self):
        cluster = make_hdfs(block_size=1000, replication=2)
        cluster.client().put_bytes("/f", b"z" * 2500)
        fetcher = self.make_fetcher(cluster)
        lengths, locations = fetcher.block_layout("/f")
        assert lengths == [1000, 1000, 500]
        assert all(len(locs) == 2 for locs in locations)

    def test_node_local_read_classified(self):
        cluster = make_hdfs(block_size=1000, replication=2)
        cluster.client(node="node0").put_bytes("/f", b"z" * 1000)
        fetcher = self.make_fetcher(cluster)
        read = fetcher.read_block("/f", 0, "node0")
        assert read.locality == "node_local"
        assert read.source == "node0"
        assert read.data == b"z" * 1000

    def test_partial_read_respects_max_bytes(self):
        cluster = make_hdfs(block_size=1000)
        cluster.client().put_bytes("/f", b"z" * 1000)
        fetcher = self.make_fetcher(cluster)
        read = fetcher.read_block("/f", 0, None, max_bytes=64)
        assert len(read.data) == 64

    def test_out_of_range_block_raises_indexerror(self):
        cluster = make_hdfs(block_size=1000)
        cluster.client().put_bytes("/f", b"z" * 500)
        fetcher = self.make_fetcher(cluster)
        with pytest.raises(IndexError):
            fetcher.read_block("/f", 5, None)

    def test_corrupt_replica_failover_and_report(self):
        cluster = make_hdfs(block_size=1000, replication=2)
        cluster.client().put_bytes("/f", b"z" * 1000)
        block_id = next(iter(cluster.namenode.block_map))
        first = sorted(cluster.namenode.block_map[block_id].locations)[0]
        cluster.datanode(first).corrupt_block(block_id)
        fetcher = self.make_fetcher(cluster)
        read = fetcher.read_block("/f", 0, first)
        assert read.data == b"z" * 1000
        assert first in cluster.namenode.block_map[block_id].corrupt_on

    def test_no_replicas_raises_hdfs_error(self):
        cluster = make_hdfs(block_size=1000, replication=1, num_datanodes=2)
        cluster.client().put_bytes("/f", b"z" * 500)
        holder = next(n for n, d in cluster.datanodes.items() if d.blocks)
        cluster.crash_datanode(holder)
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        fetcher = self.make_fetcher(cluster)
        with pytest.raises(HdfsError):
            fetcher.read_block("/f", 0, None)

    def test_read_whole_file(self):
        """A side-file read is ``read_bytes`` on the uncharged client
        ``TaskTracker._side_reader`` already holds (the fetcher's own
        ``read_whole_file`` is gone): same text, a positive cost, the
        clock left alone."""
        cluster = make_hdfs(block_size=7)
        cluster.client().put_text("/f", "hello block world")
        before = cluster.sim.now
        read = cluster.client(charge_time=False).read_bytes("/f")
        assert read.text() == "hello block world"
        assert read.elapsed > 0
        assert cluster.sim.now == before

    def test_public_surface(self):
        """A task's handle on HDFS, not a second client."""
        public = {n for n in vars(BlockFetcher) if not n.startswith("_")}
        assert public == {"block_layout", "read_block", "make_fetch"}


class TestTaskReadsAreTallied:
    def test_node_local_map_reads_reach_the_traffic_counters(self):
        """One worker, one replica: every map read is node-local, and
        ``TrafficCounters`` — the artifact Table V's "observe how data
        layout affects communication costs" points at — sees all of it.
        Before PR 20 a task's node-local read skipped the network model
        and the job added only its (combined) shuffle and output write."""
        with make_mr(num_workers=1, replication=1) as mr:
            mr.client(node="node0").put_text("/in.txt", "a b c d\n" * 2000)
            before = mr.hdfs.network.counters.as_dict()
            job = WordCountWithCombinerJob(JobConf(name="wc"))
            report = mr.run_job(job, "/in.txt", "/out", require_success=True)
            after = mr.hdfs.network.counters.as_dict()
        read = report.counters.get(C.HDFS_BYTES_READ)
        assert read > 0
        assert after["node_local"] - before["node_local"] >= read
        assert after["rack_local"] == before["rack_local"]
        assert after["off_rack"] == before["off_rack"]


class TestBlockLookupsStayLinear:
    """Counting cost guard: a task that reads one block asks the
    NameNode to locate one block.  Before PR 20 every read located the
    whole file — 2N^2 ``LocatedBlock``s for a job over N blocks."""

    @pytest.fixture
    def located_blocks(self, monkeypatch):
        built = []
        init = LocatedBlock.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LocatedBlock, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("blocks", [25, 100])
    def test_wordcount_locates_at_most_three_blocks_per_block(
        self, located_blocks, blocks
    ):
        with make_mr(num_workers=4, block_size=2048, replication=2) as mr:
            line = "the quick brown fox jumps over the dog\n"
            text = line * (blocks * 2048 // len(line))
            mr.client().put_text("/in.txt", text)
            assert len(mr.fetcher.block_layout("/in.txt")[0]) == blocks
            del located_blocks[:]
            job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))
            mr.run_job(job, "/in.txt", "/out", require_success=True)
        # Split planning, one read per map, one continuation probe.
        assert len(located_blocks) <= 3 * blocks

    def test_side_file_read_is_one_listing(self, located_blocks):
        with make_mr(num_workers=4, block_size=2048, replication=2) as mr:
            mr.client().put_bytes("/side.dat", b"s" * (12 * 2048))
            del located_blocks[:]
            tracker = mr.tasktrackers["node2"]
            text, elapsed = tracker._side_reader("/side.dat")
        assert text == "s" * (12 * 2048)
        assert elapsed > 0
        assert len(located_blocks) == 12  # one listing, not N(N+1)
