"""The DataNode daemon: block storage, heartbeats, reports, failures.

Everything the paper's HDFS lab has students observe lives here: the
``blk_xxx`` files on the Linux file system (:meth:`DataNode.physical_listing`),
the heartbeat/report traffic to the NameNode, the startup integrity scan
that delays cluster restarts, and the abrupt-crash failure mode that the
students' leaky jobs kept triggering.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable

from repro.cluster.hardware import Node
from repro.hdfs.block import Block, StoredBlock
from repro.hdfs.blockcache import BlockCache
from repro.hdfs.config import HdfsConfig
from repro.hdfs.protocol import (
    BlockReport,
    DatanodeInfo,
    HeartbeatResponse,
    InvalidateCommand,
    ReplicateCommand,
)
from repro.sim.engine import Simulation
from repro.util.errors import (
    BlockNotFoundError,
    CorruptBlockError,
    DataNodeDownError,
)
from repro.util.units import MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hdfs.namenode import NameNode


#: Fraction of the disk that may be used before a DataNode refuses writes.
DATANODE_FULL_FRACTION = 0.95
#: Capacity of each DataNode's verified-block cache (LRU, keyed by
#: (block_id, generation)); 0 disables it.  Cache state is host-side
#: only: hits and misses charge identical simulated time.
BLOCK_CACHE_BYTES = 64 * MB


class DataNodeState(enum.Enum):
    STOPPED = "stopped"
    STARTING = "starting"  # running the startup integrity scan
    UP = "up"
    CRASHED = "crashed"


class DataNode:
    """One DataNode daemon bound to a physical :class:`Node`."""

    def __init__(
        self,
        node: Node,
        namenode: "NameNode",
        sim: Simulation,
        config: HdfsConfig,
        peer_lookup: Callable[[str], "DataNode"],
    ):
        self.node = node
        self.name = node.name
        self.namenode = namenode
        self.sim = sim
        self.config = config
        self.peer_lookup = peer_lookup
        self.state = DataNodeState.STOPPED
        self.blocks: dict[int, StoredBlock] = {}
        #: Running byte total of live replicas — kept in lock-step with
        #: ``blocks`` by write_block/drop_block so every heartbeat's
        #: ``info()`` is O(1) instead of an O(#blocks) sum.
        self._used_bytes = 0
        #: Host-side cache of fully-attested replicas (LRU, keyed by
        #: (block_id, generation)).  Hits skip the per-read memo walk;
        #: simulated time and counters are charged identically either way.
        self.cache = BlockCache(BLOCK_CACHE_BYTES)
        #: Pre-existing on-disk data (other tenants' blocks, staged
        #: course datasets) that the startup integrity scan must verify
        #: but that is not modeled as live block objects.  This is what
        #: makes a near-full 850 GB HDD take ~15 minutes to rescan.
        self.ballast_bytes: int = 0
        self._cancel_heartbeat: Callable[[], None] | None = None
        #: Latency multiplier applied to simulated block reads (>= 1.0);
        #: the slow-disk fault injector raises it (see ``repro.faults``).
        self.disk_slow_factor: float = 1.0
        self.heartbeats_sent = 0
        self.blocks_served = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    @property
    def is_serving(self) -> bool:
        return self.state == DataNodeState.UP and self.node.is_up

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def info(self) -> DatanodeInfo:
        return DatanodeInfo(
            name=self.name,
            rack=self.node.rack_name,
            capacity=self.node.spec.disk_bytes,
            used=self.used_bytes,
        )

    def has_space_for(self, nbytes: int) -> bool:
        # The whole disk counts, not just HDFS blocks: scratch data and
        # other tenants share the same spindle.
        limit = self.node.spec.disk_bytes * DATANODE_FULL_FRACTION
        return self.node.disk.used + nbytes <= limit

    # -- lifecycle -------------------------------------------------------
    def start(self) -> float:
        """Start the daemon.  Returns the startup-scan duration.

        A restarting DataNode first verifies every local replica (the
        integrity check the paper blames for 15-minute restarts); only
        then does it register and send its block report.
        """
        if self.state in (DataNodeState.UP, DataNodeState.STARTING):
            return 0.0
        self.restarts += 1
        self.state = DataNodeState.STARTING
        # The integrity scan only has to CRC bytes whose chunk memos
        # hold no verdict; attested replicas re-register at disk-walk
        # cost (modeled as free next to the CRC work).  Ballast is
        # never attested — it is other tenants' data.
        scan_bytes = self.ballast_bytes + sum(
            stored.unverified_bytes for stored in self.blocks.values()
        )
        scan_time = scan_bytes / self.config.startup_scan_bw
        self.sim.bus.publish(
            "hdfs.datanode.starting",
            self.sim.now,
            datanode=self.name,
            scan_seconds=scan_time,
            blocks=len(self.blocks),
        )
        self.sim.schedule(scan_time, self._finish_startup)
        return scan_time

    def _finish_startup(self) -> None:
        if self.state != DataNodeState.STARTING:
            return  # crashed or stopped mid-scan
        self.state = DataNodeState.UP
        self.namenode.register_datanode(self.info())
        self.send_block_report()
        # All DataNodes with the same interval share one timer wheel:
        # a 10k-node heartbeat instant is one engine event, not 10k.
        self._cancel_heartbeat = self.sim.wheel(
            self.config.heartbeat_interval
        ).subscribe(self._heartbeat)
        self.sim.bus.publish("hdfs.datanode.up", self.sim.now, datanode=self.name)

    def stop(self) -> None:
        """Graceful shutdown: stop heartbeating, keep data on disk."""
        self._halt(DataNodeState.STOPPED, "hdfs.datanode.stopped")

    def crash(self) -> None:
        """Abrupt death (the Java-heap-leak scenario): identical to a
        stop from the NameNode's point of view — silence."""
        self._halt(DataNodeState.CRASHED, "hdfs.datanode.crashed")

    def _halt(self, state: DataNodeState, topic: str) -> None:
        if self._cancel_heartbeat is not None:
            self._cancel_heartbeat()
            self._cancel_heartbeat = None
        self.state = state
        self.sim.bus.publish(topic, self.sim.now, datanode=self.name)

    # -- heartbeat & commands ---------------------------------------------
    def _heartbeat(self) -> None:
        if not self.is_serving:
            return
        self.heartbeats_sent += 1
        response = self.namenode.heartbeat(self.info())
        if response.re_register:
            self.namenode.register_datanode(self.info())
            self.send_block_report()
            return
        for command in response.commands:
            self._execute(command)

    def _execute(self, command) -> None:
        if isinstance(command, InvalidateCommand):
            for block_id in command.block_ids:
                self.drop_block(block_id)
            self.sim.bus.publish(
                "hdfs.datanode.invalidated",
                self.sim.now,
                datanode=self.name,
                block_ids=list(command.block_ids),
            )
        elif isinstance(command, ReplicateCommand):
            self._replicate(command.block_id, command.target)

    def _replicate(self, block_id: int, target_name: str) -> None:
        try:
            target = self.peer_lookup(target_name)
        except KeyError:
            return
        if self.copy_replica(block_id, target):
            self.sim.bus.publish(
                "hdfs.block.replicated",
                self.sim.now,
                block_id=block_id,
                source=self.name,
                target=target_name,
            )

    def copy_replica(self, block_id: int, target: "DataNode") -> bool:
        """Copy my replica of a block onto ``target`` and tell the
        NameNode it landed — the one copy routine, for re-replication
        and the balancer alike.  False when nothing was copied: the
        source is lost or corrupt (a copy re-checksums the bytes it is
        handed and never forwards CRCs, so a corrupt source must not be
        copied; the NameNode retries elsewhere), or the target is down
        or out of space."""
        stored = self.blocks.get(block_id)
        if stored is None or not stored.verify():
            return False
        if not target.write_block(stored.block, stored.data):
            return False
        self.namenode.block_received(target.name, stored.block)
        return True

    def send_block_report(self) -> None:
        # verify() is memoised per chunk: a report over clean, already
        # attested replicas costs a memo walk, not a full re-CRC.
        good, corrupt = [], []
        for block_id, stored in self.blocks.items():
            (good if stored.verify() else corrupt).append(block_id)
        report = BlockReport(
            datanode=self.name,
            block_ids=tuple(sorted(good)),
            corrupt_ids=tuple(sorted(corrupt)),
        )
        self.namenode.process_block_report(report)

    # -- data path ---------------------------------------------------------
    def write_block(
        self, block: Block, data, upstream: StoredBlock | None = None
    ) -> bool:
        """Store one replica; False if down or out of space.

        ``data`` may be any bytes-like object (``memoryview`` slices
        from the client split loop land here); the ``StoredBlock``
        constructor is the single copy boundary.  ``upstream`` is the
        replica that forwarded the bytes; its chunk CRCs come with them.
        """
        if not self.is_serving:
            return False
        if block.block_id in self.blocks:
            return True  # idempotent re-write of the same replica
        if not self.has_space_for(block.length):
            return False
        if not self.node.disk.allocate(block.length):
            return False
        # A re-arriving id (re-replication after an earlier invalidate)
        # must not serve stale cached bytes for any generation.
        self.cache.invalidate(block.block_id)
        self.blocks[block.block_id] = StoredBlock(block, data, upstream=upstream)
        self._used_bytes += block.length
        return True

    def drop_block(self, block_id: int) -> StoredBlock | None:
        """Remove a replica: blocks dict, disk, byte counter, cache.

        The one sanctioned removal path — invalidate commands and the
        balancer both use it so ``used_bytes`` and the cache can never
        drift from ``blocks``.
        """
        stored = self.blocks.pop(block_id, None)
        if stored is not None:
            self.node.disk.release(stored.length)
            self._used_bytes -= stored.length
        self.cache.invalidate(block_id)
        return stored

    def read_block(self, block_id: int) -> bytes:
        """Read and checksum-verify one replica.

        A cache hit returns the attested bytes without walking the
        chunk memos; entries are admitted only after a fully verified
        read and evicted on any mutation, so hits occur exactly when a
        cold read would have found every memo already OK — the memo
        trajectory is bit-identical cache-on vs cache-off.
        """
        if not self.is_serving:
            raise DataNodeDownError(f"{self.name} is {self.state.value}")
        stored = self.blocks.get(block_id)
        if stored is None:
            raise BlockNotFoundError(f"blk_{block_id} not on {self.name}")
        cached = self.cache.get(block_id, stored.generation)
        if cached is not None:
            self.blocks_served += 1
            return cached.data
        data = stored.read()  # raises CorruptBlockError on bad checksum
        self.blocks_served += 1
        self.cache.put(stored)
        return data

    def read_block_range(self, block_id: int, offset: int, length: int | None) -> memoryview:
        """Ranged read: verify and return only the touched chunks.

        Zero-copy — the caller gets a ``memoryview`` into the replica.
        Ranged reads skip the cache: partial verification is already
        proportional to the range, and partially-read replicas are not
        admitted.
        """
        if not self.is_serving:
            raise DataNodeDownError(f"{self.name} is {self.state.value}")
        stored = self.blocks.get(block_id)
        if stored is None:
            raise BlockNotFoundError(f"blk_{block_id} not on {self.name}")
        view = stored.read_range(offset, length)  # raises CorruptBlockError
        self.blocks_served += 1
        return view

    def has_block(self, block_id: int) -> bool:
        return block_id in self.blocks

    def corrupt_block(self, block_id: int) -> None:
        """Fault injection: silently damage a replica on disk."""
        stored = self.blocks.get(block_id)
        if stored is None:
            raise BlockNotFoundError(f"blk_{block_id} not on {self.name}")
        stored.corrupt()
        self.cache.invalidate(block_id)

    def verify_all(self) -> list[int]:
        """Run the block scanner; returns ids of corrupt replicas.

        Memoised: only chunks with no remembered verdict are re-CRC'd.
        """
        bad = [bid for bid, stored in self.blocks.items() if not stored.verify()]
        for bid in bad:
            self.namenode.report_bad_block(bid, self.name)
        return sorted(bad)

    # -- observability -------------------------------------------------------
    def physical_listing(self) -> list[str]:
        """The Linux-FS view of this DataNode's storage directory —
        the ``blk_xxx`` files in the paper's Figure 2."""
        return sorted(f"blk_{bid}" for bid in self.blocks)
