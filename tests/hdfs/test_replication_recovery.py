"""Re-replication after failures — the recovery machinery the paper's
students inadvertently load-tested."""

from repro.hdfs.fsck import fsck
from tests.conftest import make_hdfs


def fully_replicated(cluster) -> bool:
    """fsck finds every block at its target: none missing, none under."""
    report = fsck(cluster.namenode)
    return report.missing_blocks == 0 and report.under_replicated == 0


class TestReplicationHealth:
    def test_healthy_after_write(self):
        cluster = make_hdfs(replication=2)
        cluster.client().put_bytes("/f", b"a" * 3000)
        report = fsck(cluster.namenode)
        assert (
            report.missing_blocks, report.under_replicated, report.over_replicated
        ) == (0, 0, 0)
        assert report.total_blocks == 3
        assert all(
            len(meta.locations) == 2
            for meta in cluster.namenode.block_map.values()
        )

    def test_under_replication_detected_on_crash(self):
        cluster = make_hdfs(replication=2)
        cluster.client().put_bytes("/f", b"b" * 3000)
        victim = next(n for n, d in cluster.datanodes.items() if d.blocks)
        # Sample the under-replication count at the instant the NameNode
        # declares the node dead — before the repair sweeps heal it.
        observed = {}
        cluster.sim.bus.subscribe(
            "hdfs.namenode.node_dead",
            lambda e: observed.setdefault(
                "under", len(cluster.namenode.under_replicated)
            ),
        )
        cluster.crash_datanode(victim)
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        assert observed["under"] > 0

    def test_rereplication_converges(self):
        cluster = make_hdfs(replication=2, num_datanodes=4)
        cluster.client().put_bytes("/f", b"c" * 5000)
        victim = next(n for n, d in cluster.datanodes.items() if d.blocks)
        cluster.crash_datanode(victim)
        # Let the NameNode notice the death before demanding convergence.
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        assert cluster.wait_until(lambda: fully_replicated(cluster), timeout=1200)
        # Replicas must live on surviving nodes only.
        for meta in cluster.namenode.block_map.values():
            assert victim not in meta.locations

    def test_data_still_readable_after_recovery(self):
        cluster = make_hdfs(replication=2, num_datanodes=4)
        payload = b"d" * 4096
        cluster.client().put_bytes("/f", payload)
        victim = next(n for n, d in cluster.datanodes.items() if d.blocks)
        cluster.crash_datanode(victim)
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        cluster.wait_until(lambda: fully_replicated(cluster), timeout=1200)
        assert cluster.client().read_bytes("/f").data == payload

    def test_missing_blocks_when_all_replicas_lost(self):
        cluster = make_hdfs(replication=1, num_datanodes=3)
        cluster.client().put_bytes("/f", b"e" * 1000)
        holders = {
            name for name, dn in cluster.datanodes.items() if dn.blocks
        }
        for name in holders:
            cluster.crash_datanode(name)
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        assert cluster.namenode.missing_blocks()
        assert fsck(cluster.namenode).missing_blocks > 0

    def test_missing_block_recovers_when_node_returns(self):
        cluster = make_hdfs(replication=1, num_datanodes=3)
        cluster.client().put_bytes("/f", b"f" * 1000)
        holder = next(n for n, d in cluster.datanodes.items() if d.blocks)
        cluster.crash_datanode(holder)
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        assert cluster.namenode.missing_blocks()
        cluster.restart_datanode(holder)
        cluster.wait_until(
            lambda: not cluster.namenode.missing_blocks(), timeout=600
        )
        assert cluster.client().read_bytes("/f").data == b"f" * 1000

    def test_over_replication_trimmed(self):
        cluster = make_hdfs(replication=2, num_datanodes=4)
        cluster.client().put_bytes("/f", b"g" * 1000)
        block_id = next(iter(cluster.namenode.block_map))
        meta = cluster.namenode.block_map[block_id]
        # A node that went away and came back re-reports an old replica.
        extra = next(
            name
            for name in cluster.datanodes
            if name not in meta.locations
        )
        stored = next(iter(
            cluster.datanode(sorted(meta.locations)[0]).blocks.values()
        ))
        cluster.datanode(extra).write_block(stored.block, stored.data)
        cluster.namenode.block_received(extra, stored.block)
        assert block_id in cluster.namenode.over_replicated
        cluster.wait_until(
            lambda: len(meta.locations) == 2, timeout=600
        )
        assert block_id not in cluster.namenode.over_replicated
