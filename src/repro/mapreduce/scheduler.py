"""Locality-indexed pending maps for the JobTracker.

:class:`PendingMapQueue` keeps campus-scale scheduling O(active) instead
of O(everything).  The historical ``_pick_pending_map`` scanned every
pending map and looked up its locality per candidate — O(pending ×
locality) per free slot per heartbeat.  The queue maintains per-node and
per-rack FIFO heaps incrementally on add/launch/requeue, so a pick is
O(log pending) and provably reproduces the scan's choice (see
:meth:`PendingMapQueue.pick_for`).  Jobs themselves are served in
submission (FIFO) order by the JobTracker.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Iterable

from repro.cluster.topology import ClusterTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.tasks import MapTask


class PendingMapQueue:
    """FIFO of pending map indices with incremental locality buckets.

    Semantics proven equal to the historical scan (first pending map of
    the best achievable rank, in enqueue order):

    - *node bucket hit* → some pending map is node-local; the heap top
      is the enqueue-earliest of them, exactly what the scan's rank-0
      early exit picked.
    - *rack bucket hit* (node bucket empty) → no pending map is
      node-local, so every map in the rack bucket ranks ``rack_local``
      and the top is the enqueue-earliest — the scan's first best-rank
      match.
    - *global head* (both buckets empty) → every pending map ranks
      ``off_rack``; first-in-FIFO wins, which is the global heap top.

    Entries are invalidated lazily: membership maps index → enqueue
    seq, and stale heap entries (launched or re-enqueued since) are
    discarded on pop.  A re-queued map gets a fresh, larger seq — the
    deque-append behaviour of the original.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        map_tasks: "list[MapTask]",
        initial: Iterable[int] = (),
    ):
        self._topology = topology
        #: index -> replica nodes (split locations, stable order).
        self._locations: list[tuple[str, ...]] = [
            tuple(task.split.locations) for task in map_tasks
        ]
        #: index -> racks of those nodes (deduped, sorted).
        self._racks: list[tuple[str, ...]] = [
            tuple(
                sorted({topology.rack_of(n) for n in locs if n in topology})
            )
            for locs in self._locations
        ]
        #: index -> current enqueue seq; insertion order is FIFO order.
        self._membership: dict[int, int] = {}
        self._seq = itertools.count()
        self._by_node: dict[str, list[tuple[int, int]]] = {}
        self._by_rack: dict[str, list[tuple[int, int]]] = {}
        self._all: list[tuple[int, int]] = []
        for index in initial:
            self.add(index)

    # -- container protocol (what the JobTracker relies on) ------------
    def __len__(self) -> int:
        return len(self._membership)

    def __bool__(self) -> bool:
        return bool(self._membership)

    def __contains__(self, index: int) -> bool:
        return index in self._membership

    def __iter__(self):
        """Indices in FIFO order (for reports/tests, not the hot path)."""
        return iter(
            idx
            for _seq, idx in sorted(
                (seq, idx) for idx, seq in self._membership.items()
            )
        )

    # -- mutation ------------------------------------------------------
    def add(self, index: int) -> None:
        """Enqueue a map index (idempotent, like the guarded appends)."""
        if index in self._membership:
            return
        seq = next(self._seq)
        self._membership[index] = seq
        entry = (seq, index)
        heapq.heappush(self._all, entry)
        for node in self._locations[index]:
            heapq.heappush(self._by_node.setdefault(node, []), entry)
        for rack in self._racks[index]:
            heapq.heappush(self._by_rack.setdefault(rack, []), entry)

    def _pop_valid(self, heap: list[tuple[int, int]] | None) -> int | None:
        """Pop stale entries; pop and return the first live index."""
        if heap is None:
            return None
        while heap:
            seq, index = heap[0]
            if self._membership.get(index) != seq:
                heapq.heappop(heap)  # launched or re-enqueued since
                continue
            heapq.heappop(heap)
            return index
        return None

    def pick_for(self, node: str) -> tuple[int, str] | None:
        """Dequeue the best-locality pending map for ``node``."""
        if not self._membership:
            return None
        index = self._pop_valid(self._by_node.get(node))
        if index is not None:
            del self._membership[index]
            return index, "node_local"
        if node in self._topology:
            rack = self._topology.rack_of(node)
            index = self._pop_valid(self._by_rack.get(rack))
            if index is not None:
                del self._membership[index]
                return index, "rack_local"
        index = self._pop_valid(self._all)
        assert index is not None  # membership non-empty ⇒ live global head
        del self._membership[index]
        return index, "off_rack"
