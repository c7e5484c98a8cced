"""HBaseCluster: the whole store assembled over an HDFS cluster."""

from __future__ import annotations

from repro.hbase.client import Table
from repro.hbase.master import HMaster
from repro.hbase.region import RegionConfig
from repro.hbase.server import RegionServer
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.config import HdfsConfig


class HBaseCluster:
    """HMaster + one RegionServer per HDFS worker node."""

    def __init__(
        self,
        hdfs: HdfsCluster | None = None,
        num_servers: int = 3,
        region_config: RegionConfig | None = None,
        wal_sync_every: int = 8,
        seed: int = 0,
    ):
        self.hdfs = hdfs or HdfsCluster(
            num_datanodes=num_servers,
            config=HdfsConfig(block_size=4 * 1024, replication=2),
            seed=seed,
        )
        self.region_config = region_config or RegionConfig()
        self.servers: dict[str, RegionServer] = {}
        nodes = self.hdfs.topology.nodes()[:num_servers]
        for node in nodes:
            self.servers[node.name] = RegionServer(
                name=node.name,
                client=self.hdfs.client(node=node.name, charge_time=False),
                config=self.region_config,
                wal_sync_every=wal_sync_every,
            )
        self.master = HMaster(self.servers, config=self.region_config)

    # ------------------------------------------------------------------
    def create_table(self, name: str, families: list[str]) -> Table:
        self.master.create_table(name, families)
        return self.table(name)

    def table(self, name: str) -> Table:
        return Table(self.master, name)

    # ------------------------------------------------------------------
    def crash_server(self, name: str) -> None:
        self.servers[name].crash()

    def recover(self, name: str) -> int:
        """Master-driven recovery of a crashed server's regions."""
        return self.master.recover_server(name)

    def hdfs_footprint(self) -> list[str]:
        """Every HBase file in HDFS — the lecture's 'it's all HDFS
        underneath' moment."""
        client = self.hdfs.client(charge_time=False)
        if not client.exists("/hbase"):
            return []
        paths = []
        for path, _inode in self.hdfs.namenode.namespace.walk_files("/hbase"):
            paths.append(path)
        return paths
