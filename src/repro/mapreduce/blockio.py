"""Task-side HDFS block I/O with locality accounting.

Map tasks do not read whole files; they read *their block*, ideally from
the local disk.  The :class:`BlockFetcher` implements that path: nearest
live replica, checksum verification, corrupt-replica failover and
reporting, and per-read locality classification — the numbers behind the
DATA_LOCAL/RACK_LOCAL/OFF_RACK map counters in the job report.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable

from repro.cluster.network import NetworkModel
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.util.errors import (
    BlockNotFoundError,
    CorruptBlockError,
    DataNodeDownError,
    HdfsError,
)


class MappedFile:
    """A host file read back zero-copy through one read-only ``mmap``.

    The shm shuffle plane (:mod:`repro.mapreduce.shm`) maps, with
    :meth:`open`, the segment file a map worker published.  These are
    host files, not simulated HDFS blocks; the simulated cost of
    shuffling is priced separately by the CostModel.
    """

    __slots__ = ("_file", "_mmap")

    def __init__(self, file):
        """Map all of ``file``, which this object then owns."""
        try:
            self._mmap = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            file.close()
            raise
        self._file = file

    @classmethod
    def open(cls, path: str) -> "MappedFile":
        """Map an existing file (a published shuffle segment)."""
        return cls(open(path, "rb"))

    def view(self) -> memoryview:
        """The file's bytes, zero-copy."""
        return memoryview(self._mmap)

    def __len__(self) -> int:
        return len(self._mmap)

    def close(self) -> bool:
        """Unmap and close; ``False`` when live views still pin the
        mapping (``BufferError``), leaving it open for a later retry."""
        try:
            self._mmap.close()
        except BufferError:
            return False
        self._file.close()
        return True


@dataclass
class BlockRead:
    """Result of one block (or partial block) read."""

    data: bytes
    elapsed: float
    locality: str  # node_local | rack_local | off_rack
    source: str


class BlockFetcher:
    """Reads file blocks on behalf of tasks running on cluster nodes."""

    def __init__(
        self,
        namenode: NameNode,
        dn_lookup: Callable[[str], DataNode],
        network: NetworkModel,
    ):
        self.namenode = namenode
        self.dn_lookup = dn_lookup
        self.network = network

    # ------------------------------------------------------------------
    def block_layout(self, path: str) -> tuple[list[int], list[tuple[str, ...]]]:
        """Lengths and replica locations of a file's blocks (for splits)."""
        located = self.namenode.get_block_locations(path)
        lengths = [lb.block.length for lb in located]
        locations = [tuple(lb.locations) for lb in located]
        return lengths, locations

    def read_block(
        self,
        path: str,
        block_index: int,
        node: str | None,
        max_bytes: int | None = None,
        offset: int = 0,
    ) -> BlockRead:
        """Read one block — or the range ``[offset, offset+max_bytes)``
        of it — from the nearest live replica.

        Ranged reads verify only the checksum chunks the range touches
        and move only the range's bytes over the simulated network, so
        record-continuation probes stop paying for block prefixes the
        task already holds.  Whole-block reads (``offset == 0``,
        ``max_bytes is None``) keep the DataNode's verified-block cache
        in play.
        """
        located = self.namenode.get_block_locations(path, client_node=node)
        if block_index >= len(located):
            raise IndexError(
                f"{path} has {len(located)} blocks, asked for {block_index}"
            )
        lb = located[block_index]
        whole_block = offset == 0 and max_bytes is None
        errors: list[str] = []
        for dn_name in lb.locations:
            try:
                datanode = self.dn_lookup(dn_name)
                if whole_block:
                    data = datanode.read_block(lb.block.block_id)
                else:
                    data = bytes(
                        datanode.read_block_range(lb.block.block_id, offset, max_bytes)
                    )
            except CorruptBlockError:
                self.namenode.report_bad_block(lb.block.block_id, dn_name)
                errors.append(f"{dn_name}: corrupt")
                continue
            except (DataNodeDownError, BlockNotFoundError, KeyError) as exc:
                errors.append(f"{dn_name}: {exc}")
                continue
            elapsed = datanode.node.disk.read_time(len(data)) * datanode.disk_slow_factor
            locality = self._classify(node, dn_name)
            if locality != "node_local":
                if node is not None and node in self.network.topology:
                    elapsed += self.network.transfer_time(dn_name, node, len(data))
                else:
                    self.network.counters.off_rack += len(data)
                    slowest = self.network.nic_bw / self.network.rack_oversubscription
                    elapsed += self.network.latency + len(data) / slowest
            return BlockRead(
                data=data, elapsed=elapsed, locality=locality, source=dn_name
            )
        raise HdfsError(
            f"no readable replica for block {block_index} of {path}: {errors}"
        )

    def _classify(self, node: str | None, source: str) -> str:
        if node is None or node not in self.network.topology:
            return "off_rack"
        distance = self.network.topology.distance(node, source)
        return {0: "node_local", 2: "rack_local"}.get(distance, "off_rack")

    # ------------------------------------------------------------------
    def make_fetch(self, node: str | None):
        """Adapt to the :data:`~repro.mapreduce.inputformat.BlockFetch`
        signature for a task running on ``node``."""

        def fetch(path: str, block_index: int, max_bytes: int | None, offset: int = 0):
            read = self.read_block(path, block_index, node, max_bytes, offset)
            return read.data, read.elapsed

        return fetch

    def read_whole_file(self, path: str, node: str | None) -> tuple[str, float]:
        """Side-file read: stream every block to the task's node."""
        located = self.namenode.get_block_locations(path, client_node=node)
        pieces: list[bytes] = []
        elapsed = 0.0
        for index in range(len(located)):
            read = self.read_block(path, index, node)
            pieces.append(read.data)
            elapsed += read.elapsed
        return b"".join(pieces).decode("utf-8"), elapsed
