"""The verified-block cache: LRU mechanics, generation keying, and the
strict-eviction rules that keep cached bytes honest."""

from collections import OrderedDict

import pytest

from repro.hdfs.block import Block, StoredBlock
from repro.hdfs.blockcache import BlockCache
from repro.hdfs.protocol import InvalidateCommand
from repro.util.errors import CorruptBlockError
from tests.conftest import make_hdfs
from tests.hdfs.blockcache_oracle import run_in_step


def _stored(block_id: int, size: int, generation: int = 1) -> StoredBlock:
    return StoredBlock(Block(block_id, generation, size), bytes(size))


class TestBlockCacheUnit:
    def test_hit_and_miss_tallies(self):
        cache = BlockCache(1024)
        assert cache.get(1, 1) is None
        stored = _stored(1, 100)
        cache.put(stored)
        assert cache.get(1, 1) is stored
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_generation_keyed(self):
        cache = BlockCache(1024)
        cache.put(_stored(1, 100, generation=1))
        assert cache.get(1, 2) is None  # newer generation: never stale bytes

    def test_lru_eviction_order(self):
        cache = BlockCache(300)
        a, b, c = _stored(1, 100), _stored(2, 100), _stored(3, 100)
        cache.put(a)
        cache.put(b)
        cache.put(c)
        assert cache.get(1, 1) is a  # promote a
        cache.put(_stored(4, 100))  # evicts b, the LRU entry
        assert cache.get(2, 1) is None
        assert cache.get(1, 1) is a
        assert cache.used_bytes == 300

    def test_zero_capacity_disables(self):
        cache = BlockCache(0)
        cache.put(_stored(1, 10))
        assert len(cache) == 0
        assert cache.get(1, 1) is None

    def test_oversized_entry_refused(self):
        cache = BlockCache(100)
        cache.put(_stored(1, 50))
        cache.put(_stored(2, 101))  # bigger than the whole cache
        assert (2, 1) not in cache
        assert (1, 1) in cache  # and nothing was flushed to admit it

    def test_invalidate_drops_every_generation(self):
        cache = BlockCache(1024)
        cache.put(_stored(1, 100, generation=1))
        cache.put(_stored(1, 100, generation=2))
        cache.put(_stored(2, 100))
        cache.invalidate(1)
        assert (1, 1) not in cache
        assert (1, 2) not in cache
        assert (2, 1) in cache
        assert cache.used_bytes == 100

    def test_replace_same_key_keeps_bytes_consistent(self):
        cache = BlockCache(1024)
        cache.put(_stored(1, 100))
        cache.put(_stored(1, 100))
        assert cache.used_bytes == 100
        assert len(cache) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(-1)


class TestGenerationIndex:
    """``invalidate`` looks ids up in an index instead of scanning every
    key; the index must never disagree with the ``OrderedDict``."""

    def test_two_generations_of_one_id(self):
        old, new, other = _stored(1, 100, 1), _stored(1, 100, 2), _stored(2, 100)
        cache = run_in_step(
            1024,
            [("put", old), ("put", new), ("put", other), ("get", 1, 1),
             ("invalidate", 1), ("get", 1, 1), ("get", 1, 2), ("get", 2, 1)],
        )
        assert cache._generations == {2: [1]}
        assert cache.stats()["evictions"] == 2

    def test_lru_eviction_leaves_no_id_behind(self):
        cache = run_in_step(
            250,
            [("put", _stored(1, 100, 1)), ("put", _stored(1, 100, 2)),
             ("put", _stored(2, 100)),  # evicts (1, 1): id 1 keeps one generation
             ("invalidate", 1), ("put", _stored(3, 200)),  # evicts (2, 1)
             ("invalidate", 2), ("invalidate", 7)],
        )
        assert cache._generations == {3: [1]}

    def test_replacing_a_key_indexes_it_once(self):
        cache = run_in_step(
            1024,
            [("put", _stored(1, 100)), ("put", _stored(1, 100)), ("invalidate", 1)],
        )
        assert len(cache) == 0 and cache.used_bytes == 0
        assert cache.stats()["evictions"] == 1

    def test_clear_and_refused_puts(self):
        cache = run_in_step(
            100,
            [("put", _stored(1, 50)), ("put", _stored(2, 101)), ("clear",),
             ("invalidate", 1), ("put", _stored(1, 50)), ("invalidate", 1)],
        )
        assert cache._generations == {}
        run_in_step(0, [("put", _stored(1, 10)), ("invalidate", 1), ("clear",)])

    def test_invalidate_does_not_scan_the_cache(self):
        class NoScan(OrderedDict):
            def __iter__(self):
                raise AssertionError("invalidate scanned every cached key")

        cache = BlockCache(1 << 20)
        for block_id in range(50):
            cache.put(_stored(block_id, 10))
        cache._entries = NoScan(cache._entries)
        cache.invalidate(17)
        cache.invalidate(999)
        assert len(cache) == 49 and (17, 1) not in cache


class TestDataNodeCache:
    def _cluster_with_file(self, **kwargs):
        cluster = make_hdfs(**kwargs)
        client = cluster.client()
        client.put_bytes("/f", b"z" * 3000)  # 3 blocks at block_size=1024
        return cluster, client

    def _replica_holder(self, cluster):
        return next(dn for dn in cluster.datanodes.values() if dn.blocks)

    def test_warm_read_hits_cache(self):
        cluster, client = self._cluster_with_file()
        client.read_bytes("/f")
        hits_before = sum(dn.cache.hits for dn in cluster.datanodes.values())
        assert client.read_bytes("/f").data == b"z" * 3000
        hits_after = sum(dn.cache.hits for dn in cluster.datanodes.values())
        assert hits_after >= hits_before + 3  # every block served warm

    def test_cache_off_still_reads(self):
        cluster, client = self._cluster_with_file(block_cache_bytes=0)
        client.read_bytes("/f")
        assert client.read_bytes("/f").data == b"z" * 3000
        assert all(dn.cache.hits == 0 for dn in cluster.datanodes.values())

    def test_corrupt_after_population_evicts_and_detects(self):
        cluster, client = self._cluster_with_file()
        client.read_bytes("/f")  # populate caches
        holder = self._replica_holder(cluster)
        block_id = next(iter(holder.blocks))
        holder.corrupt_block(block_id)
        assert (block_id, 1) not in holder.cache
        with pytest.raises(CorruptBlockError):
            holder.read_block(block_id)

    def test_corrupt_replica_reported_despite_warm_caches(self):
        cluster, client = self._cluster_with_file()
        client.read_bytes("/f")  # every replica holder may now be warm
        holder = self._replica_holder(cluster)
        block_id = next(iter(holder.blocks))
        holder.corrupt_block(block_id)
        result = client.read_bytes("/f")  # fails over to the good replica
        assert result.data == b"z" * 3000
        assert result.corrupt_replicas_hit == 1
        assert holder.name in cluster.namenode.block_map[block_id].corrupt_on

    def test_invalidate_command_evicts(self):
        cluster, client = self._cluster_with_file()
        client.read_bytes("/f")
        holder = self._replica_holder(cluster)
        block_id = next(iter(holder.blocks))
        holder._execute(InvalidateCommand(block_ids=(block_id,)))
        assert block_id not in holder.blocks
        assert (block_id, 1) not in holder.cache

    def test_drop_block_keeps_counter_and_cache_in_sync(self):
        cluster, client = self._cluster_with_file()
        client.read_bytes("/f")
        holder = self._replica_holder(cluster)
        block_id = next(iter(holder.blocks))
        before = holder.used_bytes
        dropped = holder.drop_block(block_id)
        assert dropped is not None
        assert holder.used_bytes == before - dropped.length
        assert (block_id, 1) not in holder.cache


class TestUsedBytesCounter:
    def _assert_counter_invariant(self, cluster):
        for dn in cluster.datanodes.values():
            assert dn.used_bytes == sum(
                b.length for b in dn.blocks.values()
            ), dn.name

    def test_counter_tracks_writes(self):
        cluster = make_hdfs()
        cluster.client().put_bytes("/f", b"a" * 5000)
        self._assert_counter_invariant(cluster)

    def test_counter_tracks_invalidates(self):
        cluster = make_hdfs()
        client = cluster.client()
        client.put_bytes("/f", b"b" * 5000)
        client.delete("/f")
        cluster.sim.run_for(60)  # invalidate commands ride heartbeats
        self._assert_counter_invariant(cluster)
        assert all(dn.used_bytes == 0 for dn in cluster.datanodes.values())

    def test_counter_tracks_rereplication(self):
        cluster = make_hdfs(replication=3)
        client = cluster.client()
        client.put_bytes("/f", b"c" * 4000)
        victim = next(
            name for name, dn in cluster.datanodes.items() if dn.blocks
        )
        cluster.crash_datanode(victim)
        cluster.sim.run_for(cluster.config.dead_node_timeout + 120)
        self._assert_counter_invariant(cluster)

    def test_counter_tracks_balancer_moves(self):
        from repro.hdfs.balancer import Balancer

        cluster = make_hdfs(num_datanodes=5, replication=1, seed=3)
        client = cluster.client(node="node0")  # writer-local pile-up
        for i in range(8):
            client.put_bytes(f"/skew/{i}", b"d" * 2048)
        report = Balancer(cluster, threshold=1e-9).run()
        assert report.blocks_moved > 0
        self._assert_counter_invariant(cluster)
