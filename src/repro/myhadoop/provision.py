"""The myHadoop provisioner: per-user dynamic Hadoop clusters.

Models Section II.B's workflow and every failure mode it reports:

- configuration validation — "the most common [errors] were incorrect
  paths to the Hadoop MapReduce installation directory, data nodes'
  local directory, and log directory" (:class:`MyHadoopConfig.validate`);
- daemon port binding — "if students exited from their reserved nodes
  without explicitly stopping Hadoop, the Hadoop daemons became orphaned
  while still bound to the ports for Hadoop communication", blocking the
  next student's startup (:class:`PortRegistry`, ghost daemons);
- the same-student escape hatch — "if the orphaned daemons belonged to
  the same student, they could be terminated individually"
  (:meth:`MyHadoopProvisioner.kill_user_daemons`);
- no persistent HDFS — Clemson's parallel storage "is not configured
  with file-locking support, [so] all Hadoop data storage must reside on
  the local hard drive of the scheduled compute nodes".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.builder import HadoopHardware
from repro.cluster.network import NetworkModel
from repro.cluster.storage import ParallelFileSystem
from repro.cluster.topology import ClusterTopology
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.config import HdfsConfig
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import MapReduceConfig
from repro.myhadoop.pbs import PbsScheduler, Reservation
from repro.sim.engine import Simulation
from repro.util.errors import BadPathError, ConfigError, PortInUseError
from repro.util.rng import derive_seed

#: The Hadoop-1 daemon ports myHadoop must bind on every node.
DAEMON_PORTS: tuple[int, ...] = (
    9000,  # fs.default.name (NameNode RPC)
    50010,  # DataNode data transfer
    50030,  # JobTracker web UI
    50060,  # TaskTracker web UI
    50070,  # NameNode web UI
)

#: Paths a correct student configuration must use (the course's
#: "exact directory structure" from Version 4).
EXPECTED_LAYOUT = {
    "hadoop_home": "/home/{user}/hadoop-1.2.1",
    "data_dir": "/scratch/{user}/hdfs-data",
    "log_dir": "/scratch/{user}/hadoop-logs",
}


@dataclass
class MyHadoopConfig:
    """A student's myHadoop configuration."""

    user: str
    num_nodes: int = 8
    hadoop_home: str = ""
    data_dir: str = ""
    log_dir: str = ""
    persistent: bool = False  # persist HDFS on the parallel file system
    hdfs: HdfsConfig = field(
        default_factory=lambda: HdfsConfig(block_size=64 * 1024, replication=2)
    )

    def __post_init__(self) -> None:
        # Fill correct defaults; tests inject wrong paths deliberately.
        if not self.hadoop_home:
            self.hadoop_home = EXPECTED_LAYOUT["hadoop_home"].format(user=self.user)
        if not self.data_dir:
            self.data_dir = EXPECTED_LAYOUT["data_dir"].format(user=self.user)
        if not self.log_dir:
            self.log_dir = EXPECTED_LAYOUT["log_dir"].format(user=self.user)

    def validate(self, pfs: ParallelFileSystem | None = None) -> None:
        """Reject the classic path mistakes before any daemon starts."""
        expected_home = EXPECTED_LAYOUT["hadoop_home"].format(user=self.user)
        if self.hadoop_home != expected_home:
            raise BadPathError(
                f"HADOOP_HOME {self.hadoop_home!r} not found "
                f"(expected {expected_home!r})"
            )
        for name in ("data_dir", "log_dir"):
            value = getattr(self, name)
            if not value.startswith("/scratch/"):
                raise BadPathError(
                    f"{name} {value!r} must live on node-local /scratch "
                    f"(the parallel file system has no file locking)"
                )
            if f"/{self.user}/" not in value + "/":
                raise BadPathError(
                    f"{name} {value!r} does not belong to user {self.user!r}"
                )
        if self.persistent:
            if pfs is None or not pfs.supports_file_locking:
                raise ConfigError(
                    "persistent HDFS requires file-locking support on the "
                    "parallel file system, which this machine does not have"
                )


class PortRegistry:
    """Who has which daemon port bound on which node."""

    def __init__(self) -> None:
        self._bound: dict[tuple[str, int], str] = {}

    def bind(self, node: str, port: int, owner: str) -> None:
        key = (node, port)
        holder = self._bound.get(key)
        if holder is not None:
            raise PortInUseError(
                f"port {port} on {node} is already bound by {holder!r}"
            )
        self._bound[key] = owner

    def release(self, node: str, port: int, owner: str) -> bool:
        key = (node, port)
        if self._bound.get(key) == owner:
            del self._bound[key]
            return True
        return False

    def release_all(self, node: str, owner: str | None = None) -> int:
        """Release every port on a node (optionally only one owner's)."""
        keys = [
            k
            for k, holder in self._bound.items()
            if k[0] == node and (owner is None or holder == owner)
        ]
        for key in keys:
            del self._bound[key]
        return len(keys)

    def owner_of(self, node: str, port: int) -> str | None:
        return self._bound.get((node, port))

    def bound_on(self, node: str) -> dict[int, str]:
        return {
            port: holder
            for (n, port), holder in self._bound.items()
            if n == node
        }


@dataclass
class DynamicHadoopCluster:
    """A student's live Hadoop cluster on reserved nodes."""

    user: str
    reservation: Reservation
    config: MyHadoopConfig
    mr: MapReduceCluster
    node_names: list[str]
    started_at: float
    stopped: bool = False
    abandoned: bool = False  # exited without stop-all.sh: ghost daemons

    @property
    def hdfs(self) -> HdfsCluster:
        return self.mr.hdfs


class MyHadoopProvisioner:
    """Creates and tears down per-user Hadoop clusters on PBS nodes."""

    def __init__(
        self,
        sim: Simulation,
        scheduler: PbsScheduler,
        pfs: ParallelFileSystem | None = None,
        mr_config: MapReduceConfig | None = None,
    ):
        self.sim = sim
        self.scheduler = scheduler
        self.pfs = pfs
        self.mr_config = mr_config or MapReduceConfig()
        self.ports = PortRegistry()
        #: Live (or ghost) clusters by node name.
        self._clusters_on_node: dict[str, DynamicHadoopCluster] = {}
        self.ghost_daemon_conflicts = 0
        scheduler.cleanup_hooks.append(self._cleanup_node)

    # ------------------------------------------------------------------
    def start_cluster(
        self, reservation: Reservation, config: MyHadoopConfig
    ) -> DynamicHadoopCluster:
        """Run the (modified) myHadoop start sequence on reserved nodes."""
        if not reservation.active:
            raise ConfigError(
                f"reservation {reservation.job_id} is not running"
            )
        if reservation.user != config.user:
            raise ConfigError("configuration user does not match reservation")
        config.validate(self.pfs)
        nodes = reservation.nodes
        if config.num_nodes > len(nodes):
            raise ConfigError(
                f"config wants {config.num_nodes} nodes; reservation has "
                f"{len(nodes)}"
            )
        use_nodes = nodes[: config.num_nodes]

        # Bind daemon ports first — this is where ghost daemons bite.
        bound: list[tuple[str, int]] = []
        try:
            for node in use_nodes:
                for port in DAEMON_PORTS:
                    self.ports.bind(node.name, port, config.user)
                    bound.append((node.name, port))
        except PortInUseError:
            for node_name, port in bound:
                self.ports.release(node_name, port, config.user)
            self.ghost_daemon_conflicts += 1
            raise

        # Build the cluster over the reserved hardware.
        sub_topology = ClusterTopology()
        for node in use_nodes:
            sub_topology.add_node(node, node.rack_name)
        hardware = HadoopHardware(
            topology=sub_topology,
            network=NetworkModel(
                topology=sub_topology, nic_bw=use_nodes[0].spec.nic_bw
            ),
        )
        hdfs = HdfsCluster(
            hardware=hardware,
            config=config.hdfs,
            sim=self.sim,
            # A stable per-user seed (Python's hash() is randomized
            # per process and would break replayability).
            seed=derive_seed(0, "myhadoop", config.user) % (2**31),
        )
        mr = MapReduceCluster(hdfs=hdfs, mr_config=self.mr_config)
        cluster = DynamicHadoopCluster(
            user=config.user,
            reservation=reservation,
            config=config,
            mr=mr,
            node_names=[n.name for n in use_nodes],
            started_at=self.sim.now,
        )
        for name in cluster.node_names:
            self._clusters_on_node[name] = cluster
        self.sim.bus.publish(
            "myhadoop.started",
            self.sim.now,
            user=config.user,
            nodes=cluster.node_names,
        )
        return cluster

    # ------------------------------------------------------------------
    def stop_cluster(self, cluster: DynamicHadoopCluster) -> None:
        """``stop-all.sh`` + scratch cleanup: the polite exit."""
        if cluster.stopped:
            return
        self._tear_down(cluster)
        cluster.stopped = True
        self.sim.bus.publish(
            "myhadoop.stopped", self.sim.now, user=cluster.user
        )

    def abandon_cluster(self, cluster: DynamicHadoopCluster) -> None:
        """The student logs out without stopping Hadoop.

        Daemons stay up and bound to their ports — ghosts — until the
        scheduler's cleanup sweep reaches the node or the owner kills
        them by hand.
        """
        cluster.abandoned = True
        self.sim.bus.publish(
            "myhadoop.abandoned", self.sim.now, user=cluster.user
        )

    def kill_user_daemons(self, user: str, node_names: list[str]) -> int:
        """Kill one's *own* orphaned daemons (the same-student fix)."""
        killed = 0
        for name in node_names:
            cluster = self._clusters_on_node.get(name)
            if cluster is not None and cluster.user == user:
                self._tear_down(cluster)
                cluster.stopped = True
                killed += 1
        return killed

    # ------------------------------------------------------------------
    def _tear_down(self, cluster: DynamicHadoopCluster) -> None:
        for name in cluster.node_names:
            # Stop daemons and free the node-local scratch space.
            tracker = cluster.mr.tasktrackers.get(name)
            if tracker is not None and tracker.is_serving:
                tracker.stop()
            datanode = cluster.hdfs.datanodes.get(name)
            if datanode is not None:
                if datanode.is_serving:
                    datanode.stop()
                for stored in datanode.blocks.values():
                    datanode.node.disk.release(stored.length)
                datanode.blocks.clear()
            self.ports.release_all(name, cluster.user)
            if self._clusters_on_node.get(name) is cluster:
                del self._clusters_on_node[name]

    def _cleanup_node(self, node_name: str) -> None:
        """The scheduler's sweep: scrub ghosts from a free node."""
        cluster = self._clusters_on_node.get(node_name)
        if cluster is None:
            return
        if cluster.reservation.active and not cluster.abandoned:
            return
        self._tear_down(cluster)
        cluster.stopped = True
        self.sim.bus.publish(
            "myhadoop.ghosts_cleaned",
            self.sim.now,
            node=node_name,
            user=cluster.user,
        )
