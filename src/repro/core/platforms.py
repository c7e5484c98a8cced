"""The course's computing platforms (Section II's four approaches).

Three of the paper's platform generations are buildable here:

- :func:`build_vm_platform` — Version 1's pseudo-distributed Hadoop in a
  single VM, complete with its fatal quirk: GUI access through an SSH
  tunnel whose virtual network was "limited ... to roughly 1 MB/s";
- :func:`build_dedicated_platform` — Version 1's dedicated 8-node shared
  cluster (dual 8-core, 64 GB RAM, 850 GB HDD per node);
- :func:`build_myhadoop_platform` — Versions 2-4's dynamic per-student
  clusters on the shared supercomputer.

:func:`build_teaching_cluster` is the quickstart entry point: a small
ready-to-use cluster wrapped in a :class:`TeachingPlatform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.builder import build_hadoop_cluster
from repro.cluster.hardware import NodeSpec, CLEMSON_NODE_SPEC
from repro.cluster.storage import ParallelFileSystem
from repro.cluster.topology import ClusterTopology
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.config import HdfsConfig
from repro.hdfs.localfs import LinuxFileSystem
from repro.mapreduce.api import Job
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import MapReduceConfig
from repro.mapreduce.job import JobReport
from repro.myhadoop.pbs import PbsScheduler
from repro.myhadoop.provision import MyHadoopProvisioner
from repro.sim.engine import Simulation
from repro.util.units import GB, MB


@dataclass
class PlatformJobResult:
    """A finished job plus parsed output, for teaching-friendly access."""

    report: JobReport
    pairs: list[tuple[str, str]]

    def output_pairs(self) -> list[tuple[str, str]]:
        return self.pairs

    def output_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    @property
    def succeeded(self) -> bool:
        return self.report.succeeded


@dataclass
class TeachingPlatform:
    """A ready-to-use cluster with convenience wrappers for coursework."""

    name: str
    description: str
    mr: MapReduceCluster
    home: LinuxFileSystem = field(default_factory=LinuxFileSystem)
    quirks: tuple[str, ...] = ()

    def put_text(self, hdfs_path: str, text: str) -> None:
        self.mr.client().put_text(hdfs_path, text)

    def run_job(
        self, job: Job, input_path: str, output_path: str
    ) -> PlatformJobResult:
        report = self.mr.run_job(job, input_path, output_path, require_success=True)
        return PlatformJobResult(
            report=report, pairs=self.mr.read_output(output_path)
        )

    def shell(self):
        return self.mr.shell(localfs=self.home)


#: The VM's virtual-network ceiling the paper measured (Section II.A).
VM_DISPLAY_BANDWIDTH = 1 * MB


def build_vm_platform(seed: int = 0) -> TeachingPlatform:
    """Version 1's pseudo-distributed single-VM Hadoop.

    One node runs every daemon; replication is 1 (there is nowhere else
    to put a replica).  The platform works — and the quirks list records
    why it failed in practice anyway.
    """
    spec = NodeSpec(
        cores=2,
        ram_bytes=4 * GB,
        disk_bytes=40 * GB,
        disk_read_bw=60 * MB,
        disk_write_bw=50 * MB,
        nic_bw=VM_DISPLAY_BANDWIDTH,  # everything rides the ssh tunnel
    )
    hardware = build_hadoop_cluster(num_workers=1, spec=spec)
    hdfs_config = HdfsConfig(block_size=64 * 1024, replication=1)
    mr = MapReduceCluster(
        hardware=hardware, hdfs_config=hdfs_config, seed=seed
    )
    return TeachingPlatform(
        name="pseudo-distributed VM",
        description=(
            "Hadoop in a single virtual machine on the supercomputer, "
            "reached through an SSH tunnel"
        ),
        mr=mr,
        quirks=(
            "virtual network limited to ~1 MB/s",
            "GUI-over-wireless made the web interfaces unusable",
            "significant student time lost getting VMs running",
        ),
    )


def vm_gui_transfer_seconds(nbytes: int) -> float:
    """How long a GUI payload takes over the Version-1 SSH tunnel."""
    return nbytes / VM_DISPLAY_BANDWIDTH


def build_dedicated_platform(
    seed: int = 0,
    num_nodes: int = 8,
    block_size: int = 64 * 1024,
    hdfs_config: HdfsConfig | None = None,
    mr_config: MapReduceConfig | None = None,
) -> TeachingPlatform:
    """Version 1's dedicated shared 8-node teaching cluster."""
    hardware = build_hadoop_cluster(num_workers=num_nodes, spec=CLEMSON_NODE_SPEC)
    hdfs_config = hdfs_config or HdfsConfig(block_size=block_size, replication=3)
    mr = MapReduceCluster(
        hardware=hardware, hdfs_config=hdfs_config, mr_config=mr_config, seed=seed
    )
    return TeachingPlatform(
        name="dedicated shared cluster",
        description=(
            "Eight nodes detached from the supercomputer: dual 8-core "
            "CPUs, 64GB RAM, 850GB HDD each, shared by the whole class"
        ),
        mr=mr,
        quirks=(
            "one class-wide JobTracker: deadline congestion is shared",
            "leaky jobs crash daemons for everyone",
            "no Hadoop admin experience on call",
        ),
    )


def build_teaching_cluster(
    num_workers: int = 4,
    seed: int = 0,
    block_size: int = 64 * 1024,
) -> TeachingPlatform:
    """The quickstart platform: a small, fast, fully-featured cluster."""
    hdfs_config = HdfsConfig(block_size=block_size, replication=min(3, num_workers))
    mr = MapReduceCluster(
        num_workers=num_workers, hdfs_config=hdfs_config, seed=seed
    )
    return TeachingPlatform(
        name="teaching cluster",
        description=f"{num_workers}-worker classroom cluster",
        mr=mr,
    )


@dataclass
class MyHadoopEnvironment:
    """Versions 2-4's platform: the shared supercomputer + myHadoop."""

    sim: Simulation
    topology: ClusterTopology
    scheduler: PbsScheduler
    provisioner: MyHadoopProvisioner
    pfs: ParallelFileSystem
    description: str = (
        "per-student dynamic Hadoop clusters on the shared supercomputer "
        "via modified myHadoop scripts"
    )

    def home_for(self, user: str) -> LinuxFileSystem:
        """A fresh home directory on the parallel file system."""
        return LinuxFileSystem()


def build_myhadoop_platform(
    seed: int = 0,
    supercomputer_nodes: int = 64,
    nodes_per_rack: int = 16,
    mr_config: MapReduceConfig | None = None,
) -> MyHadoopEnvironment:
    """Build the shared machine, scheduler and provisioner."""
    sim = Simulation()
    topology = ClusterTopology.regular(
        num_nodes=supercomputer_nodes,
        nodes_per_rack=nodes_per_rack,
        spec=CLEMSON_NODE_SPEC,
    )
    pfs = ParallelFileSystem(supports_file_locking=False)
    scheduler = PbsScheduler(sim, topology)
    provisioner = MyHadoopProvisioner(
        sim, scheduler, pfs=pfs, mr_config=mr_config
    )
    return MyHadoopEnvironment(
        sim=sim,
        topology=topology,
        scheduler=scheduler,
        provisioner=provisioner,
        pfs=pfs,
    )
