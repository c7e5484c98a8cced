"""One-call assembly of a complete HDFS cluster.

``HdfsCluster`` wires a NameNode and one DataNode per hardware node over
a :class:`~repro.cluster.builder.HadoopHardware`, starts the daemons on
the shared simulation, and hands out clients and shells.  This is the
object every higher layer (MapReduce, myHadoop, the course platforms)
builds on.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.builder import HadoopHardware, build_hadoop_cluster
from repro.hdfs.client import DFSClient
from repro.hdfs.config import HdfsConfig
from repro.hdfs.datanode import DataNode
from repro.hdfs.dfsadmin import DfsAdmin
from repro.hdfs.localfs import LinuxFileSystem
from repro.hdfs.namenode import NameNode
from repro.hdfs.shell import FsShell
from repro.sim.engine import Simulation
from repro.util.errors import ConfigError
from repro.util.rng import RngStream


class HdfsCluster:
    """A running HDFS: NameNode + DataNodes + shared simulation."""

    def __init__(
        self,
        hardware: HadoopHardware | None = None,
        num_datanodes: int = 8,
        config: HdfsConfig | None = None,
        sim: Simulation | None = None,
        seed: int = 0,
    ):
        self.sim = sim or Simulation()
        self.hardware = hardware or build_hadoop_cluster(num_workers=num_datanodes)
        self.config = config or HdfsConfig()
        self.rng = RngStream(seed=seed).child("hdfs")
        self.namenode = NameNode(
            sim=self.sim,
            topology=self.hardware.topology,
            config=self.config,
            rng=self.rng.child("namenode"),
        )
        self.datanodes: dict[str, DataNode] = {}
        for node in self.hardware.topology.nodes():
            self.datanodes[node.name] = DataNode(
                node=node,
                namenode=self.namenode,
                sim=self.sim,
                config=self.config,
                peer_lookup=self.datanode,
            )
        self.start()

    # ------------------------------------------------------------------
    @property
    def topology(self):
        return self.hardware.topology

    @property
    def network(self):
        return self.hardware.network

    def datanode(self, name: str) -> DataNode:
        try:
            return self.datanodes[name]
        except KeyError:
            raise KeyError(name) from None

    # ------------------------------------------------------------------
    def start(self, timeout: float = 3600.0) -> None:
        """Start every DataNode and wait for HDFS to become writable."""
        for datanode in self.datanodes.values():
            datanode.start()
        self.wait_until(self._ready, timeout=timeout)

    def _ready(self) -> bool:
        if self.namenode.safemode.active:
            return False
        return len(self.namenode.liveness.alive) >= len(self.datanodes)

    def wait_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 3600.0,
        step: float | None = None,
    ) -> bool:
        """Advance the simulation until ``predicate()`` holds."""
        interval = step or self.config.heartbeat_interval
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if predicate():
                return True
            self.sim.run_for(min(interval, deadline - self.sim.now))
        return predicate()

    # ------------------------------------------------------------------
    def client(
        self, node: str | None = None, charge_time: bool = True
    ) -> DFSClient:
        """A DFSClient, optionally pinned to a cluster node for locality."""
        if node is not None and node not in self.hardware.topology:
            raise ConfigError(f"unknown node {node!r}")
        return DFSClient(
            namenode=self.namenode,
            dn_lookup=self.datanode,
            network=self.hardware.network,
            sim=self.sim,
            node=node,
            charge_time=charge_time,
        )

    def shell(self, localfs: LinuxFileSystem | None = None) -> FsShell:
        return FsShell(self.client(), localfs=localfs)

    def dfsadmin(self) -> DfsAdmin:
        return DfsAdmin(self.namenode)

    # ------------------------------------------------------------------
    # fault-injection conveniences (used by tests, labs and the
    # classroom simulator)
    def crash_datanode(self, name: str) -> None:
        self.datanode(name).crash()

    def stop_datanode(self, name: str) -> None:
        self.datanode(name).stop()

    def restart_datanode(self, name: str) -> float:
        """Restart one DataNode; returns its integrity-scan duration."""
        return self.datanode(name).start()

    def crash_namenode(self) -> None:
        """Kill the NameNode process (DataNodes keep running and keep
        heartbeating into the void)."""
        self.namenode.crash()

    def recover_namenode(self, timeout: float = 3600.0) -> None:
        """Replay the journal, then wait for DataNodes to re-register,
        re-report, and for safemode to lift."""
        self.namenode.recover()
        self.wait_until(self._ready, timeout=timeout)

    def restart_cluster(self) -> float:
        """The paper's recovery procedure: bounce everything.

        Returns the longest DataNode startup-scan time — the floor on
        how long the cluster is unavailable (the "fifteen minutes").
        """
        for datanode in self.datanodes.values():
            if datanode.is_serving:
                datanode.stop()
        self.namenode.restart()
        return max(dn.start() for dn in self.datanodes.values())

    def total_stored_bytes(self) -> int:
        return sum(dn.used_bytes for dn in self.datanodes.values())
