"""The NameNode <-> DataNode wire protocol (as plain dataclasses).

In Hadoop, the NameNode never contacts DataNodes; it piggybacks
commands on heartbeat *responses*.  We preserve that direction of
control because it is exactly what the course's HDFS lecture diagrams
(Figure 2: "DataNodes report block information to NameNode").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class InvalidateCommand:
    """Delete these block replicas from local storage."""

    block_ids: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ReplicateCommand:
    """Push one block replica to another DataNode."""

    block_id: int
    target: str


Command = InvalidateCommand | ReplicateCommand


@dataclass(frozen=True, slots=True)
class HeartbeatResponse:
    """What the NameNode returns to a heartbeating DataNode."""

    commands: tuple[Command, ...] = ()
    re_register: bool = False  # NameNode restarted and lost this node


@dataclass(frozen=True, slots=True)
class BlockReport:
    """Full inventory of one DataNode's replicas."""

    datanode: str
    block_ids: tuple[int, ...]
    corrupt_ids: tuple[int, ...] = ()


@dataclass(slots=True)
class DatanodeInfo:
    """Registration/heartbeat payload: identity + storage stats."""

    name: str
    rack: str
    capacity: int
    used: int = 0

    @property
    def remaining(self) -> int:
        return self.capacity - self.used
