"""``hadoop dfsadmin`` — the administrator's view of the cluster.

The second assignment has students run ``dfsadmin -report`` and
``-safemode get`` and record what they see; the Version-1 instructors
needed the same commands while their cluster melted down.
"""

from __future__ import annotations

from repro.hdfs.namenode import NameNode
from repro.util.errors import ConfigError
from repro.util.units import format_size


class DfsAdmin:
    """Administrative commands over a NameNode."""

    def __init__(self, namenode: NameNode):
        self.namenode = namenode

    # ------------------------------------------------------------------
    def report(self) -> str:
        """``dfsadmin -report``: capacity and per-DataNode status."""
        nn = self.namenode
        caps = nn.capacity_report()
        used_pct = (
            100.0 * caps["used"] / caps["capacity"] if caps["capacity"] else 0.0
        )
        lines = [
            f"Configured Capacity: {caps['capacity']} ({format_size(caps['capacity'])})",
            f"DFS Used: {caps['used']} ({format_size(caps['used'])})",
            f"DFS Remaining: {caps['remaining']} ({format_size(caps['remaining'])})",
            f"DFS Used%: {used_pct:.2f}%",
            f"Under replicated blocks: {caps['under_replicated']}",
            f"Missing blocks: {caps['missing']}",
            "",
            f"Datanodes available: {caps['live_datanodes']} "
            f"({caps['live_datanodes']} live, {caps['dead_datanodes']} dead)",
            "",
        ]
        for name in sorted(nn.datanodes):
            info = nn.datanodes[name]
            state = "In Service" if name in nn.liveness.alive else "Dead"
            lines += [
                f"Name: {name} (rack {info.rack})",
                f"State: {state}",
                f"Configured Capacity: {info.capacity}",
                f"DFS Used: {info.used}",
                f"DFS Remaining: {info.remaining}",
                f"Last contact: t={nn.liveness.last_beat[name]:.1f}s",
                "",
            ]
        return "\n".join(lines).rstrip()

    # ------------------------------------------------------------------
    def safemode(self, action: str) -> str:
        """``dfsadmin -safemode get|enter|leave``."""
        sm = self.namenode.safemode
        if action == "get":
            return sm.describe()
        if action == "enter":
            sm.enter_manual()
            return "Safe mode is ON"
        if action == "leave":
            sm.leave_manual()
            return "Safe mode is OFF"
        raise ConfigError(f"unknown safemode action {action!r}")

    def set_quota(
        self,
        path: str,
        namespace_quota: int | None = None,
        space_quota: int | None = None,
    ) -> str:
        """``dfsadmin -setQuota`` / ``-setSpaceQuota`` (None/None clears)."""
        self.namenode.set_quota(path, namespace_quota, space_quota)
        if namespace_quota is None and space_quota is None:
            return f"Cleared quotas on {path}"
        return (
            f"Set quota on {path}: namespace={namespace_quota} "
            f"space={space_quota}"
        )

    def decommission(self, datanode: str) -> str:
        """Start draining a DataNode (the refreshNodes/exclude flow)."""
        self.namenode.start_decommission(datanode)
        return f"Decommission in progress: {datanode}"

    def decommission_status(self, datanode: str) -> str:
        if datanode not in self.namenode.decommissioning:
            return f"{datanode}: Normal"
        if self.namenode.decommission_complete(datanode):
            return f"{datanode}: Decommissioned"
        return f"{datanode}: Decommission in progress"

    def save_namespace(self) -> str:
        """``dfsadmin -saveNamespace``: roll a checkpoint (new fsimage,
        atomic swap, edit-log truncation)."""
        stats = self.namenode.save_namespace()
        return (
            f"Save namespace successful: fsimage holds "
            f"{stats.image_inodes} inodes / {stats.image_blocks} blocks; "
            f"truncated {stats.edits_truncated} edit records"
        )

    def metasave(self) -> str:
        """A compact dump of NameNode metadata (for Figure 2)."""
        nn = self.namenode
        lines = [
            f"Blocks in memory: {len(nn.block_map)} "
            f"(~{nn.heap_used_bytes()} bytes of NameNode heap)",
            nn.journal.describe(),
        ]
        path_of = {
            block.block_id: file_path
            for file_path, inode in nn.namespace.walk_files("/")
            for block in inode.blocks
        }
        for block_id in sorted(nn.block_map):
            meta = nn.block_map[block_id]
            locs = ",".join(sorted(meta.locations)) or "<none>"
            lines.append(
                f"blk_{block_id} len={meta.block.length} "
                f"repl={nn.census(meta)[0]}/{meta.expected_replication} "
                f"file={path_of[block_id]} on=[{locs}]"
            )
        return "\n".join(lines)
