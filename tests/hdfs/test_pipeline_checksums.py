"""A block's chunk CRCs are computed once per pipeline, not per replica.

``pipeline_write`` hands the same immutable ``bytes`` object to every
DataNode in the chain, and each replica adopts the upstream replica's
CRC list when — and only when — it holds that very object, cut at the
same chunk size.  Sharing the list must never leak damage: ``corrupt()``
replaces one replica's ``data`` and nothing else.
"""

import dataclasses

import pytest

from repro.hdfs import block as block_module
from repro.hdfs.block import Block, StoredBlock, checksum
from repro.util.errors import CorruptBlockError
from tests.conftest import make_hdfs

CHUNK = 512
BLOCK = 4096


def _fresh_crcs(data: bytes, chunk_size: int) -> list[int]:
    return [checksum(data[i : i + chunk_size]) for i in range(0, len(data), chunk_size)]


def _cluster(num_datanodes: int = 4):
    return make_hdfs(
        num_datanodes=num_datanodes, block_size=BLOCK, replication=3,
        checksum_chunk_size=CHUNK,
    )


def _replicas(cluster, path: str) -> list[list[StoredBlock]]:
    """Per block of ``path``, its replicas in DataNode-name order."""
    namenode = cluster.namenode
    return [
        [
            cluster.datanode(name).blocks[block.block_id]
            for name in sorted(namenode.block_map[block.block_id].locations)
        ]
        for block in namenode.namespace.get_file(path).blocks
    ]


class TestStoredBlockAdoption:
    def test_same_bytes_object_same_chunk_size_adopts(self):
        data = bytes(range(256)) * 8
        upstream = StoredBlock(Block(1, 1, len(data)), data, chunk_size=CHUNK)
        downstream = StoredBlock(
            Block(1, 1, len(data)), data, chunk_size=CHUNK, upstream=upstream
        )
        assert downstream.chunk_crcs is upstream.chunk_crcs
        assert downstream.chunk_crcs == _fresh_crcs(data, CHUNK)
        assert downstream.unverified_bytes == 0 and downstream.verify()

    def test_equal_but_different_bytes_object_computes_its_own(self):
        data = bytes(range(256)) * 8
        upstream = StoredBlock(Block(1, 1, len(data)), data, chunk_size=CHUNK)
        copy = bytes(bytearray(data))
        assert copy == data and copy is not data
        for other in (copy, memoryview(data)):
            downstream = StoredBlock(
                Block(1, 1, len(data)), other, chunk_size=CHUNK, upstream=upstream
            )
            assert downstream.chunk_crcs is not upstream.chunk_crcs
            assert downstream.chunk_crcs == upstream.chunk_crcs

    def test_different_chunk_size_computes_its_own(self):
        data = bytes(range(256)) * 8
        upstream = StoredBlock(Block(1, 1, len(data)), data, chunk_size=CHUNK)
        downstream = StoredBlock(
            Block(1, 1, len(data)), data, chunk_size=CHUNK * 2, upstream=upstream
        )
        assert downstream.chunk_crcs == _fresh_crcs(data, CHUNK * 2)
        assert len(downstream.chunk_crcs) == len(upstream.chunk_crcs) // 2

    def test_a_corrupted_upstream_is_not_adopted_from(self):
        # corrupt() swapped upstream.data for a new object, so the
        # identity test fails and nothing stale can be inherited.
        data = bytes(range(256)) * 8
        upstream = StoredBlock(Block(1, 1, len(data)), data, chunk_size=CHUNK)
        upstream.corrupt(700)
        downstream = StoredBlock(
            Block(1, 1, len(data)), data, chunk_size=CHUNK, upstream=upstream
        )
        assert downstream.chunk_crcs is not upstream.chunk_crcs
        assert downstream.verify() and not upstream.verify()

    def test_damage_does_not_travel_through_the_shared_list(self):
        data = bytes(range(256)) * 8
        first = StoredBlock(Block(1, 1, len(data)), data, chunk_size=CHUNK)
        second = StoredBlock(Block(1, 1, len(data)), data, chunk_size=CHUNK, upstream=first)
        third = StoredBlock(Block(1, 1, len(data)), data, chunk_size=CHUNK, upstream=second)
        assert first.chunk_crcs is third.chunk_crcs
        crcs_before = list(first.chunk_crcs)
        second.corrupt(700)
        assert first.chunk_crcs == crcs_before  # the shared list was not written
        assert first.read() == data and third.read() == data
        assert first.data is data and third.data is data
        with pytest.raises(CorruptBlockError):
            second.read()
        # Only the touched chunk lost its verdict, and only on this replica.
        assert second.unverified_bytes == 0
        assert not second.verify_range(CHUNK, 1) and second.verify_range(0, CHUNK)


class TestPipelineChecksumsOnce:
    def test_every_replica_carries_the_right_crcs(self):
        cluster = _cluster()
        payload = bytes(range(251)) * 40  # 10 040 bytes: 3 blocks, ragged tail
        cluster.client().put_bytes("/f", payload)
        offset = 0
        for replicas in _replicas(cluster, "/f"):
            assert len(replicas) == 3
            expected = payload[offset : offset + replicas[0].length]
            for stored in replicas:
                assert stored.data == expected
                assert stored.chunk_crcs == _fresh_crcs(expected, CHUNK)
                assert stored.chunk_crcs is replicas[0].chunk_crcs
                assert stored.data is replicas[0].data
            offset += replicas[0].length
        assert offset == len(payload)

    def test_one_block_is_checksummed_once_for_three_replicas(self, monkeypatch):
        cluster = _cluster()
        calls = []

        def counting(data):
            calls.append(len(data))
            return checksum(data)

        monkeypatch.setattr(block_module, "checksum", counting)
        cluster.client().put_bytes("/f", b"z" * BLOCK)
        monkeypatch.undo()
        ((first, second, third),) = _replicas(cluster, "/f")
        assert first.n_chunks == BLOCK // CHUNK == 8
        assert calls == [CHUNK] * first.n_chunks  # not 3 x n_chunks

    def test_corruption_is_detected_on_that_replica_only(self):
        cluster = _cluster()
        payload = b"q" * BLOCK
        cluster.client().put_bytes("/f", payload)
        namenode = cluster.namenode
        block_id = namenode.namespace.get_file("/f").blocks[0].block_id
        holders = sorted(namenode.block_map[block_id].locations)
        victim, *clean = holders
        cluster.datanode(victim).corrupt_block(block_id)
        with pytest.raises(CorruptBlockError):
            cluster.datanode(victim).read_block(block_id)
        for name in clean:
            assert cluster.datanode(name).read_block(block_id) == payload
            assert cluster.datanode(name).verify_all() == []
        assert cluster.datanode(victim).verify_all() == [block_id]
        assert cluster.client().read_bytes("/f").data == payload

    def test_a_datanode_with_another_chunk_size_computes_its_own(self):
        cluster = _cluster(num_datanodes=3)  # every node holds a replica
        odd = cluster.datanode("node1")
        odd.config = dataclasses.replace(odd.config, checksum_chunk_size=CHUNK * 4)
        payload = bytes(range(256)) * 16
        cluster.client().put_bytes("/f", payload)
        (replicas,) = _replicas(cluster, "/f")
        for stored in replicas:
            assert stored.chunk_crcs == _fresh_crcs(payload, stored.chunk_size)
            assert stored.verify()
        assert {stored.chunk_size for stored in replicas} == {CHUNK, CHUNK * 4}

    def test_re_replication_from_a_damaged_and_healed_block(self):
        # The replica copied later is built from whatever bytes object
        # the source holds then; it is never handed stale CRCs.
        cluster = _cluster()
        payload = b"r" * BLOCK
        cluster.client().put_bytes("/f", payload)
        namenode = cluster.namenode
        block_id = namenode.namespace.get_file("/f").blocks[0].block_id
        victim = sorted(namenode.block_map[block_id].locations)[0]
        cluster.datanode(victim).corrupt_block(block_id)
        assert cluster.datanode(victim).verify_all() == [block_id]
        cluster.wait_until(
            lambda: len(namenode.block_map[block_id].locations) == 3
            and not namenode.under_replicated,
            timeout=600,
        )
        (replicas,) = _replicas(cluster, "/f")
        assert len(replicas) == 3
        for stored in replicas:
            assert stored.read() == payload
            assert stored.chunk_crcs == _fresh_crcs(payload, CHUNK)
