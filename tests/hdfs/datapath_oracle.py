"""The three HDFS read loops and three outsider-hop formulas that
``repro.hdfs.client.read_replica`` and ``NetworkModel.distance``
replaced, kept verbatim as test oracles.

Before PR 20 "read a replica" was written three times —
``DFSClient._read_one_block``, ``DFSInputStream._read_range`` and
``BlockFetcher.read_block`` — each with its own copy of "a party
outside the cluster pays the off-rack rate" (a third sat in
``pipeline_write``).  The bodies below are those copies with ``self``
spelled out, so the differential suite in
``tests/properties/test_hdfs_datapath.py`` can hold the single path to
them float for float.  Two things the copies disagreed on are *not*
reproduced by the merged path, on purpose: only the task-side loop
applied ``disk_slow_factor``, and only the client loops tallied a
node-local read in ``TrafficCounters.node_local``.
"""

from __future__ import annotations

import bisect

from repro.hdfs.client import ReadResult
from repro.util.errors import (
    BlockNotFoundError,
    CorruptBlockError,
    DataNodeDownError,
    HdfsError,
)


# -- DFSClient ---------------------------------------------------------------
def client_transfer_in(network, node, source_dn: str, nbytes: int) -> float:
    """Network time to pull bytes from a DataNode to this client."""
    if node is not None and node in network.topology:
        return network.transfer_time(source_dn, node, nbytes)
    # Client outside the cluster (login node / laptop): off-rack rate.
    network.counters.off_rack += nbytes
    slowest = network.nic_bw / network.rack_oversubscription
    return network.latency + nbytes / slowest


def client_tally_locality(network, node, dn_name: str, result: ReadResult) -> None:
    if node is None or node not in network.topology:
        result.off_rack_blocks += 1
        return
    distance = network.topology.distance(node, dn_name)
    if distance == 0:
        result.node_local_blocks += 1
    elif distance == 2:
        result.rack_local_blocks += 1
    else:
        result.off_rack_blocks += 1


def _read_one_block(cluster, node, located_block, result: ReadResult):
    block = located_block.block
    errors: list[str] = []
    for dn_name in located_block.locations:
        try:
            datanode = cluster.datanode(dn_name)
        except KeyError:
            continue
        try:
            data = datanode.read_block(block.block_id)
        except CorruptBlockError:
            result.corrupt_replicas_hit += 1
            cluster.namenode.report_bad_block(block.block_id, dn_name)
            errors.append(f"{dn_name}: corrupt")
            continue
        except (DataNodeDownError, BlockNotFoundError) as exc:
            errors.append(f"{dn_name}: {exc}")
            continue
        elapsed = datanode.node.disk.read_time(block.length)
        elapsed += client_transfer_in(cluster.network, node, dn_name, block.length)
        client_tally_locality(cluster.network, node, dn_name, result)
        return data, elapsed
    raise HdfsError(
        f"could not read blk_{block.block_id} of {result.path}: "
        f"tried {located_block.locations or 'no replicas'} ({errors})"
    )


def read_bytes(cluster, node, path: str) -> ReadResult:
    """``DFSClient.read_bytes`` of a ``charge_time=False`` client."""
    located = cluster.namenode.get_block_locations(path, client_node=node)
    pieces: list[bytes] = []
    elapsed = 0.0
    result = ReadResult(path=path, data=b"", elapsed=0.0, blocks=len(located))
    for lb in located:
        data, block_elapsed = _read_one_block(cluster, node, lb, result)
        pieces.append(data)
        elapsed += block_elapsed
    result.data = b"".join(pieces)
    result.elapsed = elapsed
    return result


# -- DFSInputStream ----------------------------------------------------------
def _read_range(cluster, node, path, located_block, offset, length, result):
    block = located_block.block
    errors: list[str] = []
    for dn_name in located_block.locations:
        try:
            datanode = cluster.datanode(dn_name)
        except KeyError:
            continue
        try:
            view = datanode.read_block_range(block.block_id, offset, length)
        except CorruptBlockError:
            result.corrupt_replicas_hit += 1
            cluster.namenode.report_bad_block(block.block_id, dn_name)
            errors.append(f"{dn_name}: corrupt")
            continue
        except (DataNodeDownError, BlockNotFoundError) as exc:
            errors.append(f"{dn_name}: {exc}")
            continue
        elapsed = datanode.node.disk.read_time(length)
        elapsed += client_transfer_in(cluster.network, node, dn_name, length)
        client_tally_locality(cluster.network, node, dn_name, result)
        return view, elapsed
    raise HdfsError(
        f"could not read blk_{block.block_id}[{offset}:{offset + length}] "
        f"of {path}: tried {located_block.locations or 'no replicas'} "
        f"({errors})"
    )


def pread(cluster, node, path: str, offset: int, length: int | None) -> ReadResult:
    """``DFSClient.open(path).pread(offset, length)``, uncharged."""
    located = list(cluster.namenode.get_block_locations(path, client_node=node))
    starts: list[int] = []
    total = 0
    for lb in located:
        starts.append(total)
        total += lb.block.length
    if offset < 0:
        raise ValueError("offset must be >= 0")
    offset = min(offset, total)
    if length is None:
        length = total - offset
    if length < 0:
        raise ValueError("length must be >= 0")
    length = min(length, total - offset)
    result = ReadResult(path=path, data=b"", elapsed=0.0, blocks=0)
    pieces: list = []
    elapsed = 0.0
    index = bisect.bisect_right(starts, offset) - 1 if starts else 0
    remaining = length
    while remaining > 0 and index < len(located):
        lb = located[index]
        block_offset = offset - starts[index]
        take = min(remaining, lb.block.length - block_offset)
        if take > 0:
            view, block_elapsed = _read_range(
                cluster, node, path, lb, block_offset, take, result
            )
            pieces.append(view)
            elapsed += block_elapsed
            result.blocks += 1
            offset += take
            remaining -= take
        index += 1
    result.data = b"".join(pieces)
    result.elapsed = elapsed
    return result


# -- BlockFetcher ------------------------------------------------------------
def _classify(network, node, source: str) -> str:
    if node is None or node not in network.topology:
        return "off_rack"
    distance = network.topology.distance(node, source)
    return {0: "node_local", 2: "rack_local"}.get(distance, "off_rack")


def read_block(cluster, path, block_index, node, max_bytes=None, offset=0):
    """``BlockFetcher.read_block`` as ``(data, elapsed, locality, source)``."""
    network = cluster.network
    located = cluster.namenode.get_block_locations(path, client_node=node)
    if block_index >= len(located):
        raise IndexError(
            f"{path} has {len(located)} blocks, asked for {block_index}"
        )
    lb = located[block_index]
    whole_block = offset == 0 and max_bytes is None
    errors: list[str] = []
    for dn_name in lb.locations:
        try:
            datanode = cluster.datanode(dn_name)
            if whole_block:
                data = datanode.read_block(lb.block.block_id)
            else:
                data = bytes(
                    datanode.read_block_range(lb.block.block_id, offset, max_bytes)
                )
        except CorruptBlockError:
            cluster.namenode.report_bad_block(lb.block.block_id, dn_name)
            errors.append(f"{dn_name}: corrupt")
            continue
        except (DataNodeDownError, BlockNotFoundError, KeyError) as exc:
            errors.append(f"{dn_name}: {exc}")
            continue
        elapsed = datanode.node.disk.read_time(len(data)) * datanode.disk_slow_factor
        locality = _classify(network, node, dn_name)
        if locality != "node_local":
            if node is not None and node in network.topology:
                elapsed += network.transfer_time(dn_name, node, len(data))
            else:
                network.counters.off_rack += len(data)
                slowest = network.nic_bw / network.rack_oversubscription
                elapsed += network.latency + len(data) / slowest
        return data, elapsed, locality, dn_name
    raise HdfsError(
        f"no readable replica for block {block_index} of {path}: {errors}"
    )


# -- pipeline_write ----------------------------------------------------------
def pipeline_hop(network, prev, target_name: str, nbytes: int) -> float:
    """The network hop ``pipeline_write`` charged per landed replica."""
    if prev is not None and prev in network.topology:
        return network.transfer_time(prev, target_name, nbytes)
    # Client outside the cluster: charge an off-rack-rate ingest hop.
    network.counters.off_rack += nbytes
    slowest = network.nic_bw / network.rack_oversubscription
    return network.latency + nbytes / slowest
