"""Reference oracle: the block cache with the scan-based ``invalidate``.

This is ``repro.hdfs.blockcache.BlockCache`` as it was before it grew a
``block_id -> generations`` index: ``invalidate`` finds a block's
entries by scanning every cached key.  It defines what the indexed
cache must reproduce exactly — ``stats()``, key order and
``used_bytes`` after every operation; the model-based properties in
``test_blockcache.py`` and ``tests/properties/test_hdfs_datapath.py``
compare the two.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.hdfs.block import StoredBlock
from repro.hdfs.blockcache import BlockCache


class ScanBlockCache:
    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[int, int], StoredBlock] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, block_id: int, generation: int) -> StoredBlock | None:
        entry = self._entries.get((block_id, generation))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((block_id, generation))
        self.hits += 1
        return entry

    def put(self, stored: StoredBlock) -> None:
        if self.capacity_bytes == 0 or stored.length > self.capacity_bytes:
            return
        key = (stored.block_id, stored.generation)
        old = self._entries.pop(key, None)
        if old is not None:
            self.used_bytes -= old.length
        self._entries[key] = stored
        self.used_bytes += stored.length
        while self.used_bytes > self.capacity_bytes:
            _, victim = self._entries.popitem(last=False)
            self.used_bytes -= victim.length
            self.evictions += 1

    def invalidate(self, block_id: int) -> None:
        stale = [key for key in self._entries if key[0] == block_id]
        for key in stale:
            victim = self._entries.pop(key)
            self.used_bytes -= victim.length
            self.evictions += 1

    def clear(self) -> None:
        self.evictions += len(self._entries)
        self._entries.clear()
        self.used_bytes = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "used_bytes": self.used_bytes,
        }


def run_in_step(capacity: int, script) -> BlockCache:
    """Run ``(method, *args)`` steps on the indexed cache and on the
    scan-based reference, requiring them to stay in step throughout."""
    cache, reference = BlockCache(capacity), ScanBlockCache(capacity)
    for op, *args in script:
        assert getattr(cache, op)(*args) is getattr(reference, op)(*args)
        assert_in_step(cache, reference)
    return cache


def assert_in_step(cache: BlockCache, reference: ScanBlockCache) -> None:
    """The indexed cache and the scan-based one are indistinguishable,
    and the index names exactly the keys the ``OrderedDict`` holds."""
    assert cache.stats() == reference.stats()
    assert list(cache._entries) == list(reference._entries)  # LRU order too
    assert cache.used_bytes == reference.used_bytes
    indexed = [
        (block_id, generation)
        for block_id, generations in cache._generations.items()
        for generation in generations
    ]
    assert len(indexed) == len(set(indexed))
    assert set(indexed) == set(cache._entries)
    assert all(cache._generations.values())  # no id lingers with no entry
