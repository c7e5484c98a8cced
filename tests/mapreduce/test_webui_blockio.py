"""Web-UI renderings and the task-side block fetcher."""

import pytest

from repro.mapreduce.blockio import BlockFetcher
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
        cluster = make_hdfs(block_size=7)
        cluster.client().put_text("/f", "hello block world")
        fetcher = self.make_fetcher(cluster)
        text, elapsed = fetcher.read_whole_file("/f", None)
        assert text == "hello block world"
        assert elapsed > 0
