"""The balancer: skew correction without breaking replication."""

import pytest

from repro.hdfs.balancer import Balancer
from repro.hdfs.fsck import fsck
from tests.conftest import make_hdfs


def skewed_cluster():
    """All first replicas on node0 (writer-local placement)."""
    cluster = make_hdfs(num_datanodes=4, block_size=1024, replication=1)
    client = cluster.client(node="node0")
    for i in range(12):
        client.put_bytes(f"/data/f{i}", bytes([i]) * 1024)
    return cluster


class TestBalancer:
    def test_detects_imbalance(self):
        cluster = skewed_cluster()
        balancer = Balancer(cluster, threshold=1e-9)
        util = balancer.utilization()
        assert util["node0"] > 0
        assert not balancer.is_balanced()

    def test_run_reduces_spread(self):
        cluster = skewed_cluster()
        balancer = Balancer(cluster, threshold=1e-9)
        before = balancer.utilization()
        report = balancer.run()
        assert report.blocks_moved > 0
        before_spread = max(before.values()) - min(before.values())
        assert report.spread_after() < before_spread

    def test_replication_invariant_preserved(self):
        cluster = make_hdfs(num_datanodes=4, block_size=1024, replication=2)
        client = cluster.client(node="node0")
        for i in range(8):
            client.put_bytes(f"/d/f{i}", bytes([i]) * 1500)
        Balancer(cluster, threshold=0.01).run()
        for meta in cluster.namenode.block_map.values():
            assert len(meta.locations) == 2
            assert len(set(meta.locations)) == 2

    def test_data_still_readable_after_balancing(self):
        cluster = skewed_cluster()
        Balancer(cluster, threshold=0.01).run()
        client = cluster.client()
        for i in range(12):
            assert client.read_bytes(f"/data/f{i}").data == bytes([i]) * 1024

    def test_balanced_cluster_is_noop(self):
        cluster = make_hdfs(num_datanodes=4)
        report = Balancer(cluster, threshold=0.1).run()
        assert report.converged
        assert report.blocks_moved == 0

    def test_invalid_threshold(self):
        cluster = make_hdfs(num_datanodes=2)
        with pytest.raises(ValueError):
            Balancer(cluster, threshold=0.0)

    def test_moves_charged_to_network(self):
        cluster = skewed_cluster()
        before = cluster.network.counters.total_bytes
        report = Balancer(cluster, threshold=0.01).run()
        assert cluster.network.counters.total_bytes >= (
            before + report.blocks_moved * 1024
        )

    def test_corrupt_source_is_reported_not_laundered(self):
        # write_block checksums whatever bytes it is handed, so copying
        # a corrupt replica would mint a clean-looking bad copy.
        cluster = make_hdfs(num_datanodes=4, block_size=1024, replication=2)
        client = cluster.client(node="node0")
        for i in range(8):
            client.put_bytes(f"/d/f{i}", bytes([i + 1]) * 1024)
        source = cluster.datanode("node0")
        block_id = min(source.blocks)  # the balancer's first candidate
        good = source.blocks[block_id].data
        source.corrupt_block(block_id)

        report = Balancer(cluster, threshold=1e-9).run()
        assert report.blocks_moved > 0  # it moved on to other replicas

        def holders():
            return [
                dn.blocks[block_id]
                for dn in cluster.datanodes.values()
                if block_id in dn.blocks
            ]

        assert all(s.data == good for s in holders() if s.verify())
        meta = cluster.namenode.block_map[block_id]
        assert "node0" in meta.corrupt_on
        assert "node0" not in meta.locations
        # Re-replication heals from the surviving good replica.
        cluster.wait_until(lambda: len(meta.locations) == 2, timeout=600)
        cluster.sim.run_for(30)  # let node0's invalidate command land
        assert [s.data for s in holders()] == [good, good]
        assert fsck(cluster.namenode).healthy
        for i in range(8):
            assert client.read_bytes(f"/d/f{i}").data == bytes([i + 1]) * 1024

    def test_moves_keep_the_namenodes_replica_bookkeeping_exact(self):
        """A move goes through the NameNode's own add/drop path.  The
        parent's balancer discarded the source from ``locations``
        itself, so ``_blocks_on[source]`` kept every moved block id
        (40 listed on node0 against 10 really there) and a later
        decommission or node death iterated blocks that had left."""
        cluster = make_hdfs(num_datanodes=4, block_size=1024, replication=1)
        client = cluster.client(node="node0")
        for i in range(40):
            client.put_bytes(f"/data/f{i}", bytes([i]) * 1024)
        namenode = cluster.namenode
        before = {bid: set(meta.locations) for bid, meta in namenode.block_map.items()}
        assert all(locations == {"node0"} for locations in before.values())

        report = Balancer(cluster, threshold=1e-9).run()

        assert report.blocks_moved == 30
        moved = [
            meta for bid, meta in namenode.block_map.items()
            if meta.locations != before[bid]
        ]
        assert len(moved) == 30 and all(meta.safe for meta in moved)
        for datanode in cluster.datanodes:
            assert namenode._blocks_on[datanode] == {
                bid for bid, meta in namenode.block_map.items()
                if datanode in meta.locations
            }, datanode
        assert len(namenode._blocks_on["node0"]) == 10
        assert namenode.under_replicated == namenode.over_replicated == set()
        # What tripped over the stale index: draining the source node.
        namenode.start_decommission("node0")
        assert len(namenode.under_replicated) == 10
