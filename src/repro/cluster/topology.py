"""Rack-aware cluster topology.

Implements Hadoop's notion of network distance, which drives both HDFS
replica placement and the JobTracker's locality-aware task scheduling:

=====================  ========
relationship           distance
=====================  ========
same node              0
same rack              2
different rack         4
=====================  ========
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hardware import Node, NodeSpec, CLEMSON_NODE_SPEC
from repro.util.errors import ConfigError


#: Network distance -> locality class: the one table behind the
#: scheduler's DATA_LOCAL/RACK_LOCAL counters and the locality every
#: HDFS read reports.
LOCALITY_OF_DISTANCE = {0: "node_local", 2: "rack_local", 4: "off_rack"}


@dataclass
class Rack:
    """A rack: a named group of nodes behind one top-of-rack switch."""

    name: str
    nodes: list[Node] = field(default_factory=list)

    def add_node(self, node: Node) -> None:
        node.rack_name = self.name
        self.nodes.append(node)


class ClusterTopology:
    """The set of racks and nodes, with distance queries.

    >>> topo = ClusterTopology.regular(num_nodes=4, nodes_per_rack=2)
    >>> topo.distance("node0", "node0")
    0
    >>> topo.distance("node0", "node1")
    2
    >>> topo.distance("node0", "node2")
    4
    """

    def __init__(self) -> None:
        self.racks: dict[str, Rack] = {}
        self._nodes: dict[str, Node] = {}

    # ------------------------------------------------------------------
    @classmethod
    def regular(
        cls,
        num_nodes: int,
        nodes_per_rack: int = 8,
        spec: NodeSpec = CLEMSON_NODE_SPEC,
        name_prefix: str = "node",
    ) -> "ClusterTopology":
        """Build ``num_nodes`` identical nodes packed into racks."""
        if num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if nodes_per_rack <= 0:
            raise ConfigError("nodes_per_rack must be positive")
        topo = cls()
        for i in range(num_nodes):
            rack_name = f"rack{i // nodes_per_rack}"
            node = Node(name=f"{name_prefix}{i}", spec=spec)
            topo.add_node(node, rack_name)
        return topo

    def add_node(self, node: Node, rack_name: str) -> None:
        if node.name in self._nodes:
            raise ConfigError(f"duplicate node name {node.name!r}")
        rack = self.racks.setdefault(rack_name, Rack(rack_name))
        rack.add_node(node)
        self._nodes[node.name] = node

    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self) -> list[Node]:
        """All nodes in deterministic insertion order."""
        return list(self._nodes.values())

    def live_nodes(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.is_up]

    def rack_of(self, node_name: str) -> str:
        return self.node(node_name).rack_name

    def num_racks(self) -> int:
        return len(self.racks)

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    def distance(self, a: str, b: str) -> int:
        """Hadoop network distance between two nodes (0, 2 or 4)."""
        if a == b:
            return 0
        if self.rack_of(a) == self.rack_of(b):
            return 2
        return 4

    def locality_of(self, task_node: str, data_nodes: list[str]) -> str:
        """Classify the best achievable locality of a task placed on
        ``task_node`` reading data replicated on ``data_nodes``."""
        if not data_nodes:
            return "off_rack"
        return LOCALITY_OF_DISTANCE[
            min(self.distance(task_node, d) for d in data_nodes)
        ]
