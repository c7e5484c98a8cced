"""Generation-keyed LRU cache of verified block bytes.

One :class:`BlockCache` hangs off each simulated DataNode.  A hit hands
back the same verified ``StoredBlock`` the DataNode holds, skipping the
memo walk and dictionary plumbing of a cold read — a *host-side*
shortcut only.  The determinism contract (PR 1/PR 4 convention):

* A hit is only taken when the replica is already fully attested
  (every chunk memo OK), so the memo-state trajectory — and with it the
  memo-driven restart-scan cost model — is bit-identical cache-on vs
  cache-off.
* The cache never touches the event bus, simulated clocks, Counters,
  or locality tallies.  Simulated disk/network time for a cached read
  is charged exactly as for an uncached one.
* Entries are keyed by ``(block_id, generation)`` and strictly evicted
  whenever the replica can change out from under the key:
  ``corrupt_block``, ``InvalidateCommand``, re-replication/balancer
  moves, and any ``write_block`` over an existing id.

Hit/miss/eviction tallies live on the cache object itself so callers
(benchmarks, PerfStats merges) can read them without the hdfs layer
importing ``repro.mapreduce``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hdfs.block import StoredBlock


class BlockCache:
    """Byte-bounded LRU over verified replicas, keyed by (id, generation).

    ``capacity_bytes == 0`` disables the cache: every lookup misses and
    ``put`` is a no-op, so a disabled cache is indistinguishable from
    no cache at all.
    """

    __slots__ = (
        "capacity_bytes", "_entries", "_generations", "used_bytes",
        "hits", "misses", "evictions",
    )

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[int, int], "StoredBlock"] = OrderedDict()
        #: block_id -> cached generations, in step with ``_entries`` so
        #: ``invalidate`` looks one id up instead of scanning every key.
        self._generations: dict[int, list[int]] = {}
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._entries

    def get(self, block_id: int, generation: int) -> "StoredBlock | None":
        """Return the cached replica, promoting it to most-recent."""
        entry = self._entries.get((block_id, generation))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((block_id, generation))
        self.hits += 1
        return entry

    def put(self, stored: "StoredBlock") -> None:
        """Admit a fully-verified replica, evicting LRU entries to fit.

        Oversized replicas (bigger than the whole cache) are refused
        rather than flushing everything for a single entry.
        """
        if self.capacity_bytes == 0 or stored.length > self.capacity_bytes:
            return
        key = (stored.block_id, stored.generation)
        old = self._entries.pop(key, None)
        if old is not None:
            self.used_bytes -= old.length
        else:
            self._generations.setdefault(key[0], []).append(key[1])
        self._entries[key] = stored
        self.used_bytes += stored.length
        while self.used_bytes > self.capacity_bytes:
            (block_id, generation), victim = self._entries.popitem(last=False)
            generations = self._generations[block_id]
            generations.remove(generation)
            if not generations:
                del self._generations[block_id]
            self.used_bytes -= victim.length
            self.evictions += 1

    def invalidate(self, block_id: int) -> None:
        """Drop every generation of ``block_id`` (corrupt/invalidate/move)."""
        for generation in self._generations.pop(block_id, ()):
            victim = self._entries.pop((block_id, generation))
            self.used_bytes -= victim.length
            self.evictions += 1

    def clear(self) -> None:
        self.evictions += len(self._entries)
        self._entries.clear()
        self._generations.clear()
        self.used_bytes = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "used_bytes": self.used_bytes,
        }
