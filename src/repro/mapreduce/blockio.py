"""Task-side HDFS block I/O with locality accounting.

Map tasks do not read whole files; they read *their block*, ideally from
the local disk.  :class:`BlockFetcher` is the task's handle on that: it
asks the NameNode to locate the one block and reads it through
:func:`repro.hdfs.client.read_replica` — the same failover, checksum
reporting and pricing every HDFS reader gets — keeping only the
per-read locality class behind the DATA_LOCAL/RACK_LOCAL/OFF_RACK map
counters in the job report.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable

from repro.cluster.network import NetworkModel
from repro.hdfs.client import read_replica
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode


class MappedFile:
    """A host file read back zero-copy through one read-only ``mmap``.

    The shm shuffle plane (:mod:`repro.mapreduce.shm`) maps, with
    :meth:`open`, the segment file a map worker published.  These are
    host files, not simulated HDFS blocks; the simulated cost of
    shuffling is priced separately by the timing model.
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


@dataclass(slots=True)
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
        located = self.namenode.get_block_locations(
            path, client_node=node, block_index=block_index
        )
        if not located:
            raise IndexError(f"{path} has no block {block_index}")
        data, elapsed, source, locality, _corrupt = read_replica(
            located[0], node, self.namenode, self.dn_lookup, self.network,
            offset, max_bytes,
        )
        # A ranged read hands back a view into the replica; bytes() of a
        # whole block's bytes is the same object, not a copy.
        return BlockRead(
            data=bytes(data), elapsed=elapsed, locality=locality, source=source
        )

    # ------------------------------------------------------------------
    def make_fetch(self, node: str | None):
        """Adapt to the :data:`~repro.mapreduce.inputformat.BlockFetch`
        signature for a task running on ``node``."""

        def fetch(path: str, block_index: int, max_bytes: int | None, offset: int = 0):
            read = self.read_block(path, block_index, node, max_bytes, offset)
            return read.data, read.elapsed

        return fetch
