"""The HDFS write pipeline.

A client writes a block once; the DataNodes forward it down a chain
(client → dn1 → dn2 → dn3).  Because the stages stream concurrently,
elapsed time is governed by the slowest hop, not the sum — the detail
that makes replication-3 writes affordable and that the HDFS lecture
uses to explain why the third replica goes in the same rack as the
second (only one cross-rack hop).

A failed or full DataNode is dropped from the pipeline and the write
continues with the survivors, as in Hadoop's pipeline recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.network import NetworkModel
from repro.hdfs.block import Block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hdfs.datanode import DataNode
    from repro.hdfs.namenode import NameNode


@dataclass(slots=True)
class PipelineResult:
    """Outcome of writing one block through the pipeline."""

    block: Block
    locations: list[str]
    failed: list[str]
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.locations)


def pipeline_write(
    block: Block,
    data,
    targets: list[str],
    dn_lookup: Callable[[str], "DataNode"],
    network: NetworkModel,
    namenode: "NameNode",
    client_node: str | None = None,
) -> PipelineResult:
    """Write one block's bytes through the replica pipeline.

    ``data`` may be a ``memoryview`` slice of the client's buffer; it
    is materialised to ``bytes`` exactly once here, and every replica
    in the chain shares that one immutable object (``StoredBlock``
    keeps a reference; ``corrupt()`` copies-on-write per replica).
    The chunk CRCs are computed once too and forwarded with the data.

    Every replica that lands is confirmed to the NameNode via
    ``block_received`` (in Hadoop the receiving DataNode sends this).
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    locations: list[str] = []
    failed: list[str] = []
    hop_times: list[float] = []
    prev = client_node
    upstream = None

    for target_name in targets:
        try:
            datanode = dn_lookup(target_name)
        except KeyError:
            failed.append(target_name)
            continue
        if not datanode.write_block(block, data, upstream):
            failed.append(target_name)
            continue
        upstream = datanode.blocks[block.block_id]

        # Network hop from the previous pipeline stage (a client outside
        # the cluster is priced off-rack by the network model).
        hop_times.append(network.transfer_time(prev, target_name, block.length))
        # Disk write at this stage (overlapped with forwarding).
        hop_times.append(datanode.node.disk.write_time(block.length))

        namenode.block_received(target_name, block)
        locations.append(target_name)
        prev = target_name

    elapsed = max(hop_times) if hop_times else 0.0
    return PipelineResult(
        block=block, locations=locations, failed=failed, elapsed=elapsed
    )
