"""DFSClient: the file-level read/write path, and the one replica reader.

Writes split data into blocks, ask the NameNode for targets, and push
each block through the replica pipeline.  Reads all go through
:func:`read_replica` — ``hadoop fs -cat`` (:meth:`DFSClient.read_bytes`),
positional reads (:meth:`DFSInputStream.pread`) and a map task's block
read (``repro.mapreduce.blockio.BlockFetcher``) alike — so "nearest
live replica, fail over past a dead or corrupt one, report the bad
checksum to the NameNode, pay for the disk and the hop" is decided
once, and a slow disk or a corrupt replica means the same thing to
every reader.

Every operation returns an ``elapsed`` simulated duration computed from
the disk and network cost models; by default the client also advances
the shared simulation clock by that amount (interactive, shell-style
use).  The MapReduce engine constructs clients with
``charge_time=False`` and folds the elapsed time into task durations
instead.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.network import NetworkModel
from repro.cluster.topology import LOCALITY_OF_DISTANCE
from repro.hdfs.config import HdfsConfig
from repro.hdfs.datanode import DataNode
from repro.hdfs.localfs import LinuxFileSystem
from repro.hdfs.namenode import NameNode
from repro.hdfs.pipeline import pipeline_write
from repro.sim.engine import Simulation
from repro.util.errors import (
    CorruptBlockError,
    DataNodeDownError,
    BlockNotFoundError,
    HdfsError,
    ReplicationError,
)


@dataclass
class WriteResult:
    """Outcome of one file write."""

    path: str
    length: int
    blocks: int
    elapsed: float
    locations: dict[int, list[str]] = field(default_factory=dict)


@dataclass
class ReadResult:
    """Outcome of one file read."""

    path: str
    data: bytes
    elapsed: float
    blocks: int
    node_local_blocks: int = 0
    rack_local_blocks: int = 0
    off_rack_blocks: int = 0
    corrupt_replicas_hit: int = 0

    def text(self) -> str:
        return self.data.decode("utf-8")


def read_replica(
    located_block,
    reader_node: str | None,
    namenode: NameNode,
    dn_lookup: Callable[[str], DataNode],
    network: NetworkModel,
    offset: int = 0,
    length: int | None = None,
):
    """Read one located block — or its range ``[offset, offset+length)``
    — for ``reader_node``, from the nearest replica that can serve it.

    ``located_block.locations`` is already nearest-first.  A corrupt
    replica is reported to the NameNode and skipped; a dead DataNode or
    a replica that has gone missing is skipped.  A whole block
    (``offset == 0 and length is None``) goes through
    ``DataNode.read_block`` and so the verified-block cache; a range
    verifies and moves only the checksum chunks it touches.  The read
    costs the serving disk (times its ``disk_slow_factor``) plus the
    network hop, both for the bytes actually moved.

    Returns ``(data, elapsed, source, locality, corrupt_replicas_hit)``
    or raises :class:`HdfsError` when no replica could be read.
    """
    block_id = located_block.block.block_id
    whole_block = offset == 0 and length is None
    corrupt = 0
    errors = ""
    for source in located_block.locations:
        try:
            datanode = dn_lookup(source)
        except KeyError:
            continue
        try:
            if whole_block:
                data = datanode.read_block(block_id)
            else:
                data = datanode.read_block_range(block_id, offset, length)
        except CorruptBlockError:
            corrupt += 1
            namenode.report_bad_block(block_id, source)
            errors += f" {source}: corrupt;"
            continue
        except (DataNodeDownError, BlockNotFoundError) as exc:
            errors += f" {source}: {exc};"
            continue
        nbytes = len(data)
        disk_time = datanode.node.disk.read_time(nbytes) * datanode.disk_slow_factor
        distance = network.distance(source, reader_node)
        elapsed = disk_time + network.hop_time(distance, nbytes)
        return data, elapsed, source, LOCALITY_OF_DISTANCE[distance], corrupt
    span = "" if whole_block else f"[{offset}:+{length}]"
    raise HdfsError(
        f"could not read blk_{block_id}{span}: tried "
        f"{located_block.locations or 'no replicas'} ({errors.strip()})"
    )


class DFSClient:
    """A client handle, optionally pinned to a cluster node."""

    #: Pipeline retries when every target of an allocation fails.
    MAX_BLOCK_RETRIES = 3

    def __init__(
        self,
        namenode: NameNode,
        dn_lookup: Callable[[str], DataNode],
        network: NetworkModel,
        sim: Simulation,
        node: str | None = None,
        charge_time: bool = True,
    ):
        self.namenode = namenode
        self.dn_lookup = dn_lookup
        self.network = network
        self.sim = sim
        self.node = node
        self.charge_time = charge_time
        self.config: HdfsConfig = namenode.config

    # ------------------------------------------------------------------
    def _charge(self, elapsed: float) -> None:
        if self.charge_time and elapsed > 0:
            self.sim.run_for(elapsed)

    # ------------------------------------------------------------------
    # write path
    def put_bytes(
        self,
        path: str,
        data: bytes,
        replication: int | None = None,
        overwrite: bool = False,
    ) -> WriteResult:
        """Create ``path`` from ``data``, splitting into blocks."""
        self.namenode.create_file(path, replication=replication, overwrite=overwrite)
        block_size = self.config.block_size
        elapsed = 0.0
        locations: dict[int, list[str]] = {}
        # Zero-copy split: each block chunk is a memoryview slice of the
        # caller's buffer; bytes are only materialised once, inside the
        # replica pipeline (a zero-length file completes with no blocks).
        view = memoryview(data)
        for start in range(0, len(data), block_size):
            chunk = view[start : start + block_size]
            result = self._write_one_block(path, chunk)
            elapsed += result[1]
            locations[result[0]] = result[2]
        self.namenode.complete_file(path)
        self._charge(elapsed)
        return WriteResult(
            path=path,
            length=len(data),
            blocks=len(locations),
            elapsed=elapsed,
            locations=locations,
        )

    def _write_one_block(
        self, path: str, chunk
    ) -> tuple[int, float, list[str]]:
        exclude: tuple[str, ...] = ()
        last_error: Exception | None = None
        for _ in range(self.MAX_BLOCK_RETRIES):
            try:
                block, targets = self.namenode.add_block(
                    path, length=len(chunk), writer=self.node, exclude=exclude
                )
            except ReplicationError as exc:
                last_error = exc
                break
            result = pipeline_write(
                block,
                chunk,
                targets,
                self.dn_lookup,
                self.network,
                self.namenode,
                client_node=self.node,
            )
            if result.ok:
                return block.block_id, result.elapsed, result.locations
            self.namenode.abandon_block(path, block)
            exclude = exclude + tuple(result.failed)
            last_error = ReplicationError(
                f"pipeline failed on all targets {result.failed} for {path}"
            )
        raise last_error or ReplicationError(f"could not write a block of {path}")

    def put_text(self, path: str, text: str, **kwargs) -> WriteResult:
        return self.put_bytes(path, text.encode("utf-8"), **kwargs)

    # ------------------------------------------------------------------
    # read path
    def read_bytes(self, path: str) -> ReadResult:
        located = self.namenode.get_block_locations(path, client_node=self.node)
        result = ReadResult(
            path=path, data=b"", elapsed=0.0, blocks=len(located)
        )
        result.data = b"".join([self._read(lb, result) for lb in located])
        self._charge(result.elapsed)
        return result

    def _read(self, located_block, result: ReadResult, offset=0, length=None):
        """One block (or range) through :func:`read_replica`, its time,
        locality and corrupt replicas tallied into ``result``."""
        data, elapsed, _source, locality, corrupt = read_replica(
            located_block, self.node, self.namenode, self.dn_lookup, self.network,
            offset, length,
        )
        result.elapsed += elapsed
        result.corrupt_replicas_hit += corrupt
        if locality == "node_local":
            result.node_local_blocks += 1
        elif locality == "rack_local":
            result.rack_local_blocks += 1
        else:
            result.off_rack_blocks += 1
        return data

    def read_text(self, path: str) -> str:
        return self.read_bytes(path).text()

    def open(self, path: str) -> "DFSInputStream":
        """Open a positional-read stream over ``path``.

        Block locations are fetched once (one NameNode round trip);
        every subsequent ``pread`` goes straight to DataNodes, with the
        usual replica failover if the snapshot has gone stale.
        """
        located = self.namenode.get_block_locations(path, client_node=self.node)
        return DFSInputStream(self, path, located)

    # ------------------------------------------------------------------
    # local <-> HDFS staging
    def copy_from_local(
        self, localfs: LinuxFileSystem, local_path: str, hdfs_path: str, **kwargs
    ) -> WriteResult:
        return self.put_bytes(hdfs_path, localfs.read_file(local_path), **kwargs)

    def copy_to_local(
        self, localfs: LinuxFileSystem, hdfs_path: str, local_path: str
    ) -> ReadResult:
        result = self.read_bytes(hdfs_path)
        localfs.write_file(local_path, result.data)
        return result

    # ------------------------------------------------------------------
    # namespace passthroughs
    def mkdirs(self, path: str) -> bool:
        return self.namenode.mkdirs(path)

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def delete(self, path: str, recursive: bool = False) -> bool:
        return self.namenode.delete(path, recursive=recursive)

    def rename(self, src: str, dst: str) -> None:
        self.namenode.rename(src, dst)

    def list_status(self, path: str):
        return self.namenode.list_status(path)

    def status(self, path: str):
        return self.namenode.status(path)

    def du(self, path: str) -> int:
        return self.namenode.namespace.du(path)

    def set_replication(self, path: str, replication: int) -> None:
        self.namenode.set_replication(path, replication)


class DFSInputStream:
    """Positional reads against a cached block-location snapshot.

    ``pread(offset, length)`` touches only the blocks the range
    overlaps, and each DataNode verifies only the checksum chunks the
    range covers (``read_block_range``) — a continuation probe over the
    first kilobyte of a 64 MB block no longer CRCs 64 MB.  Each piece
    is one :func:`read_replica` call, so failover, corrupt-replica
    reporting, locality and simulated time are the whole-block read's,
    charged for the bytes actually moved.
    """

    def __init__(self, client: DFSClient, path: str, located):
        self.client = client
        self.path = path
        self.located = list(located)
        self._starts: list[int] = []
        offset = 0
        for lb in self.located:
            self._starts.append(offset)
            offset += lb.block.length
        #: Total file length, from the location snapshot.
        self.length = offset

    def pread(self, offset: int, length: int | None = None) -> ReadResult:
        """Read ``length`` bytes starting at file offset ``offset``.

        ``length=None`` reads to end-of-file; ranges past EOF clamp.
        """
        if offset < 0:
            raise ValueError("offset must be >= 0")
        offset = min(offset, self.length)
        if length is None:
            length = self.length - offset
        if length < 0:
            raise ValueError("length must be >= 0")
        length = min(length, self.length - offset)
        result = ReadResult(path=self.path, data=b"", elapsed=0.0, blocks=0)
        pieces: list = []
        index = bisect.bisect_right(self._starts, offset) - 1 if self._starts else 0
        remaining = length
        while remaining > 0 and index < len(self.located):
            lb = self.located[index]
            block_offset = offset - self._starts[index]
            take = min(remaining, lb.block.length - block_offset)
            if take > 0:
                pieces.append(self.client._read(lb, result, block_offset, take))
                result.blocks += 1
                offset += take
                remaining -= take
            index += 1
        result.data = b"".join(pieces)
        self.client._charge(result.elapsed)
        return result
