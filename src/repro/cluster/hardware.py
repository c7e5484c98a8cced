"""Node hardware: specs, state and attached local disk.

The default spec matches the paper's dedicated teaching cluster: eight
nodes, each with dual 8-core CPUs, 64 GB RAM and an 850 GB HDD.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cluster.storage import LocalDisk
from repro.util.units import GB, MB


@dataclass(frozen=True)
class NodeSpec:
    """Static hardware description of one node."""

    cores: int = 16
    ram_bytes: int = 64 * GB
    disk_bytes: int = 850 * GB
    disk_read_bw: float = 120 * MB  # bytes/second, a 2012-era HDD
    disk_write_bw: float = 100 * MB
    nic_bw: float = 125 * MB  # gigabit ethernet

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        for name in ("ram_bytes", "disk_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("disk_read_bw", "disk_write_bw", "nic_bw"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


#: The per-node hardware of the dedicated 8-node cluster in the paper
#: (Section II.A): dual 8-core CPUs, 64GB RAM, 850GB HDD.
CLEMSON_NODE_SPEC = NodeSpec()


class NodeState(enum.Enum):
    UP = "up"
    DOWN = "down"


@dataclass
class Node:
    """A physical node: spec + mutable runtime state + local disk."""

    name: str
    spec: NodeSpec = CLEMSON_NODE_SPEC
    rack_name: str = "default-rack"
    state: NodeState = NodeState.UP
    disk: LocalDisk = field(init=False)

    def __post_init__(self) -> None:
        self.disk = LocalDisk(
            capacity=self.spec.disk_bytes,
            read_bw=self.spec.disk_read_bw,
            write_bw=self.spec.disk_write_bw,
        )

    @property
    def is_up(self) -> bool:
        return self.state == NodeState.UP
