"""Network cost model with locality-class traffic accounting.

The model is intentionally simple and legible (per the optimization
guide: make it work and make it measurable before making it clever):

- node-local "transfers" are free and never touch the network;
- rack-local transfers run at the NIC rate;
- off-rack transfers run at the NIC rate divided by the rack uplink
  oversubscription factor — and a party outside the topology (the
  login node, a laptop) is off-rack from every node, a rule that lives
  here (:meth:`NetworkModel.distance`) and nowhere else.

Every transfer is tallied by locality class — pipeline hops, shuffle
fetches and every HDFS read, a map task's node-local block read
included — which is exactly the observable the course asks students to
reason about ("observe how data distribution/layout can affect an
algorithm's communication costs", Table V).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import ClusterTopology
from repro.util.units import MB


@dataclass
class TrafficCounters:
    """Cumulative bytes moved, bucketed by network distance."""

    node_local: int = 0
    rack_local: int = 0
    off_rack: int = 0

    @property
    def network_bytes(self) -> int:
        """Bytes that actually crossed a wire (excludes node-local)."""
        return self.rack_local + self.off_rack

    @property
    def total_bytes(self) -> int:
        return self.node_local + self.rack_local + self.off_rack

    def as_dict(self) -> dict[str, int]:
        return {
            "node_local": self.node_local,
            "rack_local": self.rack_local,
            "off_rack": self.off_rack,
        }

    def merged(self, other: "TrafficCounters") -> "TrafficCounters":
        return TrafficCounters(
            node_local=self.node_local + other.node_local,
            rack_local=self.rack_local + other.rack_local,
            off_rack=self.off_rack + other.off_rack,
        )


@dataclass
class NetworkModel:
    """Transfer-time and traffic accounting over a topology."""

    topology: ClusterTopology
    nic_bw: float = 125 * MB  # gigabit ethernet
    rack_oversubscription: float = 4.0  # uplink shares per paper-era DC design
    latency: float = 0.0005  # per-transfer setup cost, seconds
    counters: TrafficCounters = field(default_factory=TrafficCounters)

    def __post_init__(self) -> None:
        if self.nic_bw <= 0:
            raise ValueError("nic_bw must be positive")
        if self.rack_oversubscription < 1:
            raise ValueError("rack_oversubscription must be >= 1")

    def distance(self, src: str | None, dst: str | None) -> int:
        """Hadoop network distance between two parties.  One outside
        the topology (``None`` or an unknown name: the login node, a
        laptop) is off-rack from everything."""
        topology = self.topology
        if src not in topology or dst not in topology:
            return 4
        return topology.distance(src, dst)

    def _bandwidth(self, distance: int) -> float:
        if distance == 0:
            return float("inf")
        if distance == 2:
            return self.nic_bw
        return self.nic_bw / self.rack_oversubscription

    def bandwidth_between(self, src: str | None, dst: str | None) -> float:
        """Effective streaming bandwidth between two parties."""
        return self._bandwidth(self.distance(src, dst))

    def transfer_time(self, src: str | None, dst: str | None, nbytes: int) -> float:
        """Seconds to move ``nbytes`` from ``src`` to ``dst``.

        Also records the traffic in :attr:`counters`.
        """
        return self.hop_time(self.distance(src, dst), nbytes)

    def hop_time(self, distance: int, nbytes: int) -> float:
        """:meth:`transfer_time` for a caller that already holds the
        :meth:`distance` (a reader classifies its locality from it too)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if distance == 0:
            self.counters.node_local += nbytes
            return 0.0
        if distance == 2:
            self.counters.rack_local += nbytes
        else:
            self.counters.off_rack += nbytes
        return self.latency + nbytes / self._bandwidth(distance)

    def reset_counters(self) -> None:
        self.counters = TrafficCounters()
