"""MapReduceCluster: HDFS + JobTracker + TaskTrackers, assembled.

The co-location is the point: every worker node runs *both* a DataNode
and a TaskTracker (Figure 1(b)), which is what makes node-local map
scheduling possible — and what lets one leaky student job take both
daemons down together (Section II.A).
"""

from __future__ import annotations

from repro.cluster.builder import HadoopHardware
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.config import HdfsConfig
from repro.mapreduce.api import Job
from repro.mapreduce.backend import ExecutionBackend, resolve_backend
from repro.mapreduce.blockio import BlockFetcher
from repro.mapreduce.config import MapReduceConfig
from repro.mapreduce.job import JobReport, RunningJob
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.outputformat import TextOutputFormat, data_files
from repro.mapreduce.tasktracker import TaskTracker
from repro.util.errors import JobFailedError
from repro.util.rng import RngStream


class MapReduceCluster:
    """A complete Hadoop-1-style cluster ready to run jobs."""

    def __init__(
        self,
        hdfs: HdfsCluster | None = None,
        num_workers: int = 8,
        hdfs_config: HdfsConfig | None = None,
        mr_config: MapReduceConfig | None = None,
        hardware: HadoopHardware | None = None,
        seed: int = 0,
        backend: ExecutionBackend | None = None,
    ):
        self.hdfs = hdfs or HdfsCluster(
            hardware=hardware,
            num_datanodes=num_workers,
            config=hdfs_config,
            seed=seed,
        )
        self.sim = self.hdfs.sim
        self.mr_config = mr_config or MapReduceConfig()
        self.backend = resolve_backend(backend)
        # The engine joins in-flight pooled work before the simulated
        # clock passes its submit time — the determinism barrier.
        self.sim.register_work_joiner(self.backend)
        self.rng = RngStream(seed=seed).child("mapreduce")
        self.fetcher = BlockFetcher(
            namenode=self.hdfs.namenode,
            dn_lookup=self.hdfs.datanode,
            network=self.hdfs.network,
        )
        self.jobtracker = JobTracker(
            sim=self.sim,
            topology=self.hdfs.topology,
            namenode=self.hdfs.namenode,
            fetcher=self.fetcher,
            mr_config=self.mr_config,
            output_client_factory=self._output_client,
            rng=self.rng.child("jobtracker"),
            backend=self.backend,
        )
        self.tasktrackers: dict[str, TaskTracker] = {}
        for node in self.hdfs.topology.nodes():
            tracker = TaskTracker(
                node=node,
                sim=self.sim,
                mr_config=self.mr_config,
                fetcher=self.fetcher,
                output_client_factory=self._output_client,
                rng=self.rng.child("tt", node.name),
                co_datanode=self.hdfs.datanodes.get(node.name),
                backend=self.backend,
            )
            tracker.start(self.jobtracker)
            self.tasktrackers[node.name] = tracker
        # NameNode-only outages (the namenode.crash fault) get the same
        # budget protection restart_cluster has always had: trackers
        # pause for the blackout and resume once recovery clears
        # safemode, so no attempt burns its failure budget on
        # SafeModeException while block reports trickle in.
        self.sim.bus.subscribe("hdfs.namenode.crashed", self._on_namenode_crashed)
        self.sim.bus.subscribe("hdfs.namenode.recovered", self._on_namenode_recovered)

    def close(self) -> None:
        """Join outstanding work and release backend resources (pools)."""
        self.backend.shutdown()

    def __enter__(self) -> "MapReduceCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _output_client(self, node: str | None):
        if node is not None and node not in self.hdfs.topology:
            node = None
        return self.hdfs.client(node=node, charge_time=False)

    def client(self, node: str | None = None):
        return self.hdfs.client(node=node)

    def shell(self, localfs=None):
        return self.hdfs.shell(localfs=localfs)

    # ------------------------------------------------------------------
    def submit(
        self, job: Job, input_paths: list[str] | str, output_path: str
    ) -> RunningJob:
        return self.jobtracker.submit_job(job, input_paths, output_path)

    def wait_for_job(
        self, running: RunningJob, timeout: float = 7 * 24 * 3600.0
    ) -> RunningJob:
        self.hdfs.wait_until(
            lambda: running.finished,
            timeout=timeout,
            step=self.mr_config.tasktracker_heartbeat,
        )
        return running

    def run_job(
        self,
        job: Job,
        input_paths: list[str] | str,
        output_path: str,
        timeout: float = 7 * 24 * 3600.0,
        require_success: bool = False,
    ) -> JobReport:
        """Submit, advance the simulation to completion, return the report."""
        running = self.submit(job, input_paths, output_path)
        self.wait_for_job(running, timeout=timeout)
        report = running.report()
        if require_success and not report.succeeded:
            raise JobFailedError(
                f"{report.job_id} ({report.name}) failed: {report.failure_reason}"
            )
        return report

    # ------------------------------------------------------------------
    def read_output(self, output_path: str) -> list[tuple[str, str]]:
        """Read and parse every data file of a finished job."""
        client = self._output_client(None)
        pairs: list[tuple[str, str]] = []
        for status in data_files(client, output_path):
            pairs.extend(TextOutputFormat.parse(client.read_text(status.path)))
        return pairs

    # ------------------------------------------------------------------
    # failure / recovery conveniences
    def crash_worker(self, name: str) -> None:
        """Take a whole worker down: TaskTracker and DataNode together."""
        self.tasktrackers[name].crash()
        datanode = self.hdfs.datanodes.get(name)
        if datanode is not None and datanode.is_serving:
            datanode.crash()

    def restart_worker(self, name: str) -> float:
        tracker = self.tasktrackers[name]
        if not tracker.is_serving:
            tracker.start(self.jobtracker)
        return self.hdfs.restart_datanode(name)

    def live_trackers(self) -> list[str]:
        return sorted(
            name for name, tt in self.tasktrackers.items() if tt.is_serving
        )

    def restart_cluster(self) -> float:
        """The paper's "bounce everything" recovery, MapReduce included.

        TaskTrackers stop *first* (letting in-flight work land), HDFS
        restarts underneath (NameNode safemode + DataNode integrity
        scans), and trackers come back only after the NameNode leaves
        safemode — so no task attempt burns its failure budget on
        ``SafeModeException`` during the outage.  Returns the longest
        DataNode startup-scan time (the paper's "fifteen minutes").
        """
        for tracker in self.tasktrackers.values():
            if tracker.is_serving:
                tracker.stop()
        scan = self.hdfs.restart_cluster()
        self._resume_trackers_when_safe()
        return scan

    # -- NameNode-only outage ride-out ---------------------------------
    def _on_namenode_crashed(self, event) -> None:
        # Deferred one tick: the crash publishes from inside whatever
        # event killed the NameNode (often a heartbeat), and stopping
        # trackers reentrantly from a bus callback would mutate state
        # the in-flight event still holds.
        self.sim.schedule(0.0, self._pause_trackers)

    def _on_namenode_recovered(self, event) -> None:
        self._resume_trackers_when_safe()

    def _pause_trackers(self) -> None:
        if not self.hdfs.namenode.down:
            return  # recovered within the same tick; nothing to pause
        for tracker in self.tasktrackers.values():
            if tracker.is_serving:
                tracker.stop()

    def _resume_trackers_when_safe(self) -> None:
        """Restart stopped trackers at the first heartbeat tick that finds
        the NameNode up and out of safemode (shared by restart_cluster
        and NameNode recovery)."""

        def tick() -> None:
            namenode = self.hdfs.namenode
            if namenode.down or namenode.safemode.active:
                return
            for tracker in self.tasktrackers.values():
                if not tracker.is_serving and tracker.node.is_up:
                    tracker.start(self.jobtracker)
            cancel()

        cancel = self.sim.wheel(self.mr_config.tasktracker_heartbeat).subscribe(tick)
