"""DFSClient write/read paths: splitting, locality, failover, staging."""

import pytest

from repro.hdfs.fsck import fsck
from repro.hdfs.localfs import LinuxFileSystem
from repro.util.errors import (
    FileAlreadyExists,
    FileNotFoundInHdfs,
    HdfsError,
    OutputExistsError,
    ReplicationError,
)
from tests.conftest import make_hdfs


class TestWritePath:
    def test_block_splitting(self):
        cluster = make_hdfs(block_size=1000)
        client = cluster.client()
        result = client.put_bytes("/f", b"a" * 2500)
        assert result.blocks == 3
        inode = cluster.namenode.namespace.get_file("/f")
        assert [b.length for b in inode.blocks] == [1000, 1000, 500]

    def test_replication_factor_honored(self):
        cluster = make_hdfs(replication=3, num_datanodes=4)
        client = cluster.client()
        result = client.put_bytes("/f", b"b" * 500)
        for locations in result.locations.values():
            assert len(locations) == 3

    def test_exact_block_multiple(self):
        cluster = make_hdfs(block_size=1000)
        client = cluster.client()
        result = client.put_bytes("/f", b"c" * 2000)
        assert result.blocks == 2

    def test_empty_file(self):
        cluster = make_hdfs()
        client = cluster.client()
        result = client.put_bytes("/empty", b"")
        assert result.blocks == 0
        assert client.read_bytes("/empty").data == b""

    def test_overwrite_flag(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.put_bytes("/f", b"one")
        with pytest.raises(FileAlreadyExists):
            client.put_bytes("/f", b"two")
        client.put_bytes("/f", b"two", overwrite=True)
        assert client.read_bytes("/f").data == b"two"

    def test_writer_local_first_replica(self):
        cluster = make_hdfs(replication=2)
        client = cluster.client(node="node2")
        result = client.put_bytes("/f", b"d" * 800)
        for locations in result.locations.values():
            assert locations[0] == "node2"

    def test_too_much_replication_fails_cleanly(self):
        cluster = make_hdfs(num_datanodes=2, replication=2)
        client = cluster.client()
        # min_replicas=1 so 2 replicas on 2 nodes works even if one dies.
        cluster.stop_datanode("node0")
        cluster.stop_datanode("node1")
        cluster.sim.run_for(cluster.config.dead_node_timeout + 10)
        with pytest.raises(ReplicationError):
            client.put_bytes("/f", b"e" * 100)

    def test_write_time_charged_to_clock(self):
        cluster = make_hdfs()
        t0 = cluster.sim.now
        cluster.client().put_bytes("/f", b"f" * 100_000)
        assert cluster.sim.now > t0


class TestReadPath:
    def test_round_trip_multi_block(self):
        cluster = make_hdfs(block_size=700)
        client = cluster.client()
        payload = bytes(range(256)) * 20
        client.put_bytes("/bin", payload)
        assert client.read_bytes("/bin").data == payload

    def test_reads_prefer_local_replica(self):
        cluster = make_hdfs(replication=3, num_datanodes=4)
        client = cluster.client(node="node1")
        client.put_bytes("/f", b"g" * 4000)
        result = client.read_bytes("/f")
        assert result.node_local_blocks == result.blocks

    def test_corrupt_replica_failover_and_report(self):
        cluster = make_hdfs(replication=2)
        client = cluster.client()
        client.put_bytes("/f", b"h" * 1000)
        block_id = next(iter(cluster.namenode.block_map))
        meta = cluster.namenode.block_map[block_id]
        first = sorted(meta.locations)[0]
        cluster.datanode(first).corrupt_block(block_id)
        result = cluster.client(node=first).read_bytes("/f")
        assert result.data == b"h" * 1000
        assert result.corrupt_replicas_hit == 1
        assert first in cluster.namenode.block_map[block_id].corrupt_on

    def test_all_replicas_corrupt_raises(self):
        cluster = make_hdfs(replication=2)
        client = cluster.client()
        client.put_bytes("/f", b"i" * 500)
        block_id = next(iter(cluster.namenode.block_map))
        meta = cluster.namenode.block_map[block_id]
        for name in list(meta.locations):
            cluster.datanode(name).corrupt_block(block_id)
        with pytest.raises(HdfsError):
            client.read_bytes("/f")

    def test_read_with_down_replica_fails_over(self):
        cluster = make_hdfs(replication=2)
        client = cluster.client()
        client.put_bytes("/f", b"j" * 1500)
        block_id = next(iter(cluster.namenode.block_map))
        holder = sorted(cluster.namenode.block_map[block_id].locations)[0]
        cluster.datanode(holder).stop()  # not yet marked dead at the NN
        assert client.read_bytes("/f").data == b"j" * 1500

    def test_read_missing_file(self):
        cluster = make_hdfs()
        with pytest.raises(FileNotFoundInHdfs):
            cluster.client().read_bytes("/ghost")


class TestStaging:
    def test_copy_from_and_to_local(self):
        cluster = make_hdfs()
        client = cluster.client()
        localfs = LinuxFileSystem()
        localfs.write_file("/home/u/in.txt", "payload")
        client.copy_from_local(localfs, "/home/u/in.txt", "/data/in.txt")
        client.copy_to_local(localfs, "/data/in.txt", "/home/u/back.txt")
        assert localfs.read_text("/home/u/back.txt") == "payload"


class TestNamespacePassthroughs:
    def test_mkdirs_exists_delete(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.mkdirs("/x/y")
        assert client.exists("/x/y")
        client.delete("/x", recursive=True)
        assert not client.exists("/x")

    def test_delete_frees_datanode_space(self):
        cluster = make_hdfs(replication=2)
        client = cluster.client()
        client.put_bytes("/big", b"k" * 10_000)
        used_before = cluster.total_stored_bytes()
        assert used_before >= 20_000
        client.delete("/big")
        # Invalidations ride heartbeat responses: give them a few beats.
        cluster.sim.run_for(cluster.config.heartbeat_interval * 4)
        assert cluster.total_stored_bytes() == 0

    def test_setrep_triggers_rereplication(self):
        cluster = make_hdfs(replication=1, num_datanodes=4)
        client = cluster.client()
        client.put_bytes("/f", b"l" * 900)
        client.set_replication("/f", 3)
        assert cluster.wait_until(
            lambda: fsck(cluster.namenode).under_replicated == 0, timeout=600
        )
        for meta in cluster.namenode.block_map.values():
            assert len(meta.locations) == 3

    def test_du(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.put_bytes("/d/a", b"m" * 100)
        client.put_bytes("/d/b", b"m" * 50)
        assert client.du("/d") == 150
