"""NameNode/DataNode interaction: liveness, reports, commands, restart."""

import pytest

from repro.hdfs.datanode import DataNodeState
from repro.hdfs.namenode import BYTES_PER_BLOCK
from repro.util.errors import (
    BlockNotFoundError,
    DataNodeDownError,
    SafeModeException,
)
from tests.conftest import make_hdfs


class TestStartup:
    def test_fresh_cluster_leaves_safemode(self):
        cluster = make_hdfs()
        assert not cluster.namenode.safemode.active
        assert len(cluster.namenode.datanodes) == 4

    def test_all_datanodes_registered_and_live(self):
        cluster = make_hdfs(num_datanodes=3)
        assert cluster.namenode.liveness.alive == set(cluster.namenode.datanodes)
        assert len(cluster.namenode.datanodes) == 3

    def test_heartbeats_flow(self):
        cluster = make_hdfs()
        before = cluster.datanode("node0").heartbeats_sent
        cluster.sim.run_for(30)
        assert cluster.datanode("node0").heartbeats_sent > before


class TestDeadNodeDetection:
    def test_crashed_node_declared_dead(self):
        cluster = make_hdfs()
        cluster.crash_datanode("node1")
        timeout = cluster.config.dead_node_timeout
        cluster.sim.run_for(timeout + 3 * cluster.config.heartbeat_interval)
        assert "node1" not in cluster.namenode.liveness.alive

    def test_dead_node_locations_removed(self):
        cluster = make_hdfs(replication=3)
        client = cluster.client()
        client.put_bytes("/f", b"x" * 3000)
        victim = next(
            name for name, dn in cluster.datanodes.items() if dn.blocks
        )
        cluster.crash_datanode(victim)
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        for meta in cluster.namenode.block_map.values():
            assert victim not in meta.locations

    def test_returning_node_reregisters(self):
        cluster = make_hdfs()
        cluster.stop_datanode("node2")
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        assert "node2" not in cluster.namenode.liveness.alive
        cluster.restart_datanode("node2")
        cluster.wait_until(
            lambda: "node2" in cluster.namenode.liveness.alive, timeout=120
        )
        assert cluster.datanode("node2").state == DataNodeState.UP


class TestBlockReports:
    def test_orphan_blocks_invalidated(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.put_bytes("/f", b"y" * 2048)
        holder_name = next(
            name for name, dn in cluster.datanodes.items() if dn.blocks
        )
        holder = cluster.datanode(holder_name)
        # Delete the file while the node is offline; on return its blocks
        # are orphans and must be scrubbed.
        blocks_before = set(holder.blocks)
        holder.stop()
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        client.delete("/f")
        holder.start()
        cluster.wait_until(
            lambda: not (set(holder.blocks) & blocks_before), timeout=300
        )
        assert not set(holder.blocks) & blocks_before

    def test_corrupt_replica_reported_in_block_report(self):
        cluster = make_hdfs(replication=2)
        client = cluster.client()
        client.put_bytes("/f", b"z" * 1024)
        holder_name = next(
            name for name, dn in cluster.datanodes.items() if dn.blocks
        )
        holder = cluster.datanode(holder_name)
        block_id = next(iter(holder.blocks))
        holder.corrupt_block(block_id)
        bad = holder.verify_all()
        assert bad == [block_id]
        meta = cluster.namenode.block_map[block_id]
        assert holder_name in meta.corrupt_on
        assert holder_name not in meta.locations


class TestSafeModeOnRestart:
    def test_restart_reenters_safemode(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.put_bytes("/f", b"q" * 4096)
        cluster.restart_cluster()
        assert cluster.namenode.safemode.active
        with pytest.raises(SafeModeException):
            cluster.namenode.mkdirs("/blocked")
        cluster.wait_until(
            lambda: not cluster.namenode.safemode.active, timeout=3600
        )
        # Data survives the restart.
        assert client.read_bytes("/f").data == b"q" * 4096

    def test_restart_preserves_namespace(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.put_bytes("/a/b/file", b"keep")
        cluster.restart_cluster()
        cluster.wait_until(
            lambda: not cluster.namenode.safemode.active, timeout=3600
        )
        assert cluster.namenode.exists("/a/b/file")

    def test_ballast_lengthens_startup_scan(self):
        cluster = make_hdfs()
        cluster.datanode("node0").ballast_bytes = int(
            cluster.config.startup_scan_bw * 120
        )
        cluster.stop_datanode("node0")
        scan = cluster.restart_datanode("node0")
        assert scan == pytest.approx(120.0, rel=0.01)


class TestDataNodeDataPath:
    def test_read_from_down_node_raises(self):
        cluster = make_hdfs()
        cluster.stop_datanode("node0")
        with pytest.raises(DataNodeDownError):
            cluster.datanode("node0").read_block(1)

    def test_read_missing_block_raises(self):
        cluster = make_hdfs()
        with pytest.raises(BlockNotFoundError):
            cluster.datanode("node0").read_block(424242)

    def test_write_refused_when_full(self):
        cluster = make_hdfs()
        datanode = cluster.datanode("node0")
        limit = datanode.node.spec.disk_bytes
        datanode.node.disk.allocate(int(limit * 0.99))
        from repro.hdfs.block import Block

        assert not datanode.write_block(Block(777, 1, 64 * 1024), b"x" * 65536)

    def test_physical_listing_shows_blk_files(self):
        cluster = make_hdfs()
        cluster.client().put_bytes("/f", b"m" * 1024)
        listings = [
            cluster.datanode(n).physical_listing() for n in cluster.datanodes
        ]
        names = [name for listing in listings for name in listing]
        assert names and all(name.startswith("blk_") for name in names)


class TestNameNodeMetrics:
    def test_heap_usage_tracks_block_count(self):
        cluster = make_hdfs()
        base = cluster.namenode.heap_used_bytes()
        cluster.client().put_bytes("/f", b"n" * 5000)  # 5 blocks
        assert cluster.namenode.heap_used_bytes() == base + 5 * BYTES_PER_BLOCK

    def test_capacity_report_consistent(self):
        cluster = make_hdfs(num_datanodes=3)
        report = cluster.namenode.capacity_report()
        assert report["live_datanodes"] == 3
        assert report["capacity"] > 0
        assert report["remaining"] <= report["capacity"]
