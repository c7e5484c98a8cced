"""``hadoop balancer`` — even out DataNode disk utilization.

After a node joins (or a hot client writes everything locally — the
writer-local first replica makes this easy to trigger in class), block
distribution skews.  The balancer iteratively moves replicas from
over-utilized DataNodes to under-utilized ones until every node sits
within ``threshold`` of the cluster-average utilization, preserving the
replication invariant (never two replicas of a block on one node).  A
move is :meth:`DataNode.copy_replica` (the routine re-replication uses)
followed by the NameNode's own ``_drop_replica`` for the source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdfs.cluster import HdfsCluster


@dataclass
class BalancerReport:
    """What one balancer run did."""

    iterations: int = 0
    blocks_moved: int = 0
    bytes_moved: int = 0
    converged: bool = False
    utilization_before: dict[str, float] = field(default_factory=dict)
    utilization_after: dict[str, float] = field(default_factory=dict)

    def spread_after(self) -> float:
        if not self.utilization_after:
            return 0.0
        values = list(self.utilization_after.values())
        return max(values) - min(values)


class Balancer:
    """Iteratively move block replicas toward even utilization."""

    def __init__(self, cluster: HdfsCluster, threshold: float = 0.10):
        if not (0.0 < threshold < 1.0):
            raise ValueError("threshold must be in (0, 1)")
        self.cluster = cluster
        self.threshold = threshold

    # ------------------------------------------------------------------
    def utilization(self) -> dict[str, float]:
        """HDFS-bytes-used / capacity per live DataNode."""
        out = {}
        for name, datanode in self.cluster.datanodes.items():
            if datanode.is_serving:
                out[name] = datanode.used_bytes / datanode.node.spec.disk_bytes
        return out

    def _average(self) -> float:
        util = self.utilization()
        return sum(util.values()) / len(util) if util else 0.0

    def is_balanced(self) -> bool:
        average = self._average()
        return all(
            abs(value - average) <= self.threshold
            for value in self.utilization().values()
        )

    # ------------------------------------------------------------------
    def run(self, max_iterations: int = 1000) -> BalancerReport:
        """Move blocks until balanced (or out of moves/iterations)."""
        report = BalancerReport(utilization_before=self.utilization())
        namenode = self.cluster.namenode
        for _ in range(max_iterations):
            report.iterations += 1
            if self.is_balanced():
                report.converged = True
                break
            util = self.utilization()
            average = sum(util.values()) / len(util)
            sources = sorted(
                (n for n, u in util.items() if u > average),
                key=lambda n: -util[n],
            )
            targets = sorted(
                (n for n, u in util.items() if u < average),
                key=lambda n: util[n],
            )
            moved = self._move_one(namenode, sources, targets)
            if not moved:
                break  # no legal move exists
            report.blocks_moved += 1
            report.bytes_moved += moved
        report.utilization_after = self.utilization()
        if self.is_balanced():
            report.converged = True
        return report

    def _move_one(self, namenode, sources: list[str], targets: list[str]) -> int:
        """Move one replica from the fullest legal source to the
        emptiest legal target; returns the bytes moved (0 when stuck)."""
        for source_name in sources:
            source = self.cluster.datanode(source_name)
            for block_id, stored in sorted(source.blocks.items()):
                meta = namenode.block_map.get(block_id)
                if meta is None or source_name not in meta.locations:
                    continue
                # A corrupt source is never copied (copy_replica refuses
                # it too): report it and let re-replication heal from a
                # good replica.
                if not stored.verify():
                    namenode.report_bad_block(block_id, source_name)
                    continue
                for target_name in targets:
                    target = self.cluster.datanode(target_name)
                    if target.has_block(block_id):
                        continue  # would violate one-replica-per-node
                    if not source.copy_replica(block_id, target):
                        continue  # target down or out of space
                    # Commit: the target has the replica, the source
                    # loses it.  drop_block keeps the source's byte
                    # counter and block cache consistent with the removal.
                    namenode._drop_replica(meta, source_name, invalidate=False)
                    source.drop_block(block_id)
                    # Charge the transfer to the network model.
                    self.cluster.network.transfer_time(
                        source_name, target_name, stored.length
                    )
                    return stored.length
        return 0
