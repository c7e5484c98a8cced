"""Quotas and DataNode decommissioning."""

import pytest

from repro.util.errors import QuotaExceededError
from tests.conftest import make_hdfs


class TestNamespaceQuota:
    def test_file_count_capped(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.mkdirs("/q")
        cluster.namenode.set_quota("/q", namespace_quota=2)
        client.put_bytes("/q/a", b"1")
        client.put_bytes("/q/b", b"2")
        with pytest.raises(QuotaExceededError):
            client.put_bytes("/q/c", b"3")

    def test_subdirectories_count(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.mkdirs("/q")
        cluster.namenode.set_quota("/q", namespace_quota=2)
        client.mkdirs("/q/sub")
        client.put_bytes("/q/sub/f", b"1")
        with pytest.raises(QuotaExceededError):
            client.mkdirs("/q/other")

    def test_outside_quota_dir_unaffected(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.mkdirs("/q")
        cluster.namenode.set_quota("/q", namespace_quota=1)
        for i in range(5):
            client.put_bytes(f"/free/f{i}", b"x")

    def test_delete_frees_namespace_quota(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.mkdirs("/q")
        cluster.namenode.set_quota("/q", namespace_quota=1)
        client.put_bytes("/q/a", b"1")
        client.delete("/q/a")
        client.put_bytes("/q/b", b"2")  # slot freed

    def test_clear_quota(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.mkdirs("/q")
        cluster.namenode.set_quota("/q", namespace_quota=1)
        client.put_bytes("/q/a", b"1")
        cluster.namenode.set_quota("/q")  # clear
        client.put_bytes("/q/b", b"2")

    def test_quota_on_missing_dir_rejected(self):
        cluster = make_hdfs()
        from repro.util.errors import FileNotFoundInHdfs

        with pytest.raises(FileNotFoundInHdfs):
            cluster.namenode.set_quota("/ghost", namespace_quota=1)


class TestSpaceQuota:
    def test_space_counts_replication(self):
        cluster = make_hdfs(replication=2, block_size=1024)
        client = cluster.client()
        client.mkdirs("/q")
        # 3 KB of quota = 1.5 KB of data at replication 2.
        cluster.namenode.set_quota("/q", space_quota=3 * 1024)
        client.put_bytes("/q/a", b"x" * 1024)  # uses 2048 of 3072
        with pytest.raises(QuotaExceededError):
            client.put_bytes("/q/b", b"x" * 1024)  # would need 2048 more

    def test_partial_write_rolls_back_cleanly(self):
        cluster = make_hdfs(replication=1, block_size=1024)
        client = cluster.client()
        client.mkdirs("/q")
        cluster.namenode.set_quota("/q", space_quota=1536)
        # Second block of this 2-block write violates the quota.
        with pytest.raises(QuotaExceededError):
            client.put_bytes("/q/big", b"x" * 2048)

    def test_setrep_checks_space_quota(self):
        cluster = make_hdfs(replication=1, block_size=1024, num_datanodes=4)
        client = cluster.client()
        client.mkdirs("/q")
        cluster.namenode.set_quota("/q", space_quota=1024)
        client.put_bytes("/q/f", b"x" * 1024)
        with pytest.raises(QuotaExceededError):
            client.set_replication("/q/f", 3)

    def test_dfsadmin_wrappers(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.mkdirs("/q")
        admin = cluster.dfsadmin()
        assert "Set quota" in admin.set_quota("/q", namespace_quota=5)
        assert "Cleared" in admin.set_quota("/q")


class TestDecommission:
    def _loaded_cluster(self):
        cluster = make_hdfs(num_datanodes=4, replication=2, block_size=1024)
        cluster.client().put_bytes("/data/f", b"d" * 8192)
        return cluster

    def test_drain_copies_blocks_away(self):
        cluster = self._loaded_cluster()
        victim = next(
            name for name, dn in cluster.datanodes.items() if dn.blocks
        )
        cluster.namenode.start_decommission(victim)
        cluster.wait_until(
            lambda: cluster.namenode.decommission_complete(victim),
            timeout=1200,
        )
        assert cluster.namenode.decommission_complete(victim)
        # Every block the victim held is now safe without it.
        for meta in cluster.namenode.block_map.values():
            others = [
                d
                for d in meta.locations
                if d != victim and d in cluster.namenode.liveness.alive
            ]
            assert len(others) >= meta.expected_replication

    def test_no_new_replicas_on_decommissioning_node(self):
        cluster = self._loaded_cluster()
        victim = "node0"
        cluster.namenode.start_decommission(victim)
        cluster.client().put_bytes("/data/new", b"n" * 4096)
        namenode = cluster.namenode
        for block in namenode.namespace.get_file("/data/new").blocks:
            assert victim not in namenode.block_map[block.block_id].locations

    def test_reads_work_during_drain(self):
        cluster = self._loaded_cluster()
        victim = next(
            name for name, dn in cluster.datanodes.items() if dn.blocks
        )
        cluster.namenode.start_decommission(victim)
        assert cluster.client().read_bytes("/data/f").data == b"d" * 8192

    def test_safe_shutdown_after_drain_loses_nothing(self):
        cluster = self._loaded_cluster()
        victim = next(
            name for name, dn in cluster.datanodes.items() if dn.blocks
        )
        cluster.namenode.start_decommission(victim)
        cluster.wait_until(
            lambda: cluster.namenode.decommission_complete(victim),
            timeout=1200,
        )
        cluster.stop_datanode(victim)
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        assert cluster.namenode.missing_blocks() == []
        assert cluster.client().read_bytes("/data/f").data == b"d" * 8192

    def test_stop_decommission_reverts(self):
        cluster = self._loaded_cluster()
        cluster.namenode.start_decommission("node0")
        cluster.namenode.stop_decommission("node0")
        assert "node0" not in cluster.namenode.decommissioning
        status = cluster.dfsadmin().decommission_status("node0")
        assert "Normal" in status

    def test_status_progression(self):
        cluster = self._loaded_cluster()
        victim = next(
            name for name, dn in cluster.datanodes.items() if dn.blocks
        )
        admin = cluster.dfsadmin()
        assert "Normal" in admin.decommission_status(victim)
        admin.decommission(victim)
        cluster.wait_until(
            lambda: cluster.namenode.decommission_complete(victim),
            timeout=1200,
        )
        assert "Decommissioned" in admin.decommission_status(victim)

    def test_unknown_node_rejected(self):
        cluster = make_hdfs()
        from repro.util.errors import HdfsError

        with pytest.raises(HdfsError):
            cluster.namenode.start_decommission("ghost")
