"""Classroom chaos drills: scripted fault scenarios, end to end.

Each scenario reproduces one of the operational incidents the course
staff lived through (Section II.A of the paper) as a deterministic
drill: build a cluster, load a corpus, arm a :class:`FaultPlan`, run a
real job through the chaos, and *prove* the frameworks healed — the
faulty run's output must be bit-identical to a fault-free baseline run
on an identically-seeded cluster, and replaying the same plan seed must
reproduce the exact same fault log.

Run one from the command line::

    python -m repro chaos lost_map_output
    python -m repro chaos --list
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.datasets.zipf_text import ZipfTextGenerator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hdfs.config import HdfsConfig
from repro.hdfs.fsck import fsck
from repro.jobs.wordcount import WordCountJob
from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.job import JobReport
from repro.util.errors import ConfigError
from repro.util.rng import RngStream

#: Cluster seed shared by the baseline and faulty runs of a drill —
#: *identical* clusters are what make bit-identical output meaningful.
CLUSTER_SEED = 11

#: Bus topic prefixes worth showing on a drill timeline: the injected
#: faults plus every recovery mechanism they are supposed to exercise.
TIMELINE_TOPICS = (
    "faults",
    "mr.task",
    "mr.shuffle",
    "mr.jobtracker",
    "mr.tasktracker",
    "hdfs.datanode",
    "hdfs.namenode",
    "hdfs.block",
)

#: A check is (label, passed, detail).
Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Scenario:
    """One scripted drill: a fault plan plus scenario-specific checks."""

    name: str
    title: str
    #: The paper incident this drill reenacts.
    paper_incident: str
    #: seed -> the fault plan to arm.
    plan: Callable[[int], FaultPlan]
    #: The workload run through the chaos.  None = the classic single
    #: WordCount job; otherwise ``workload(cluster) -> (report, files)``
    #: runs any deterministic multi-job program (e.g. compiled sparklite
    #: PageRank) and returns its final-stage report plus the output
    #: bytes that must be bit-identical to the fault-free baseline's.
    workload: (
        Callable[[MapReduceCluster], tuple[JobReport, dict[str, bytes]]]
        | None
    ) = None
    #: Optional post-run phase (runs after output capture, may advance
    #: the simulation further) appending scenario-specific checks.
    post: Callable[[MapReduceCluster, FaultInjector, list[Check]], None] | None = None
    #: When set, each run also waits for replication to settle and
    #: captures ``fsck(path).render()``; the faulty run's render must be
    #: bit-identical to the baseline's (namespace durability proof).
    fsck_path: str | None = None
    #: Generous sim-time budget; chaos runs are slower than healthy ones.
    timeout: float = 14 * 24 * 3600.0


@dataclass
class ScenarioResult:
    """Everything a drill produced, ready to render or assert on."""

    name: str
    seed: int
    plan: FaultPlan
    report: JobReport | None = None
    baseline_report: JobReport | None = None
    output_files: dict[str, bytes] = field(default_factory=dict)
    baseline_files: dict[str, bytes] = field(default_factory=dict)
    timeline: list[str] = field(default_factory=list)
    fault_log: list[str] = field(default_factory=list)
    replay_fault_log: list[str] = field(default_factory=list)
    fsck_render: str | None = None
    baseline_fsck_render: str | None = None
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(passed for _, passed, _ in self.checks)

    def check(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append((label, passed, detail))

    def summary(self) -> str:
        lines = []
        for label, passed, detail in self.checks:
            mark = "PASS" if passed else "FAIL"
            suffix = f" ({detail})" if detail and not passed else ""
            lines.append(f"  [{mark}] {label}{suffix}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared workload


def _make_cluster(
    backend: str | None = None,
    sanitize: bool = False,
    transport: str = "framed",
    block_cache_bytes: int | None = None,
) -> MapReduceCluster:
    hdfs_config = HdfsConfig(block_size=2048, replication=2)
    if block_cache_bytes is not None:
        hdfs_config.block_cache_bytes = block_cache_bytes
    return MapReduceCluster(
        num_workers=5,
        hdfs_config=hdfs_config,
        mr_config=MapReduceConfig(
            sanitize=sanitize, shuffle_transport=transport
        ),
        seed=CLUSTER_SEED,
        backend=create_backend(backend or "serial", 2),
    )


def _load_corpus(mr: MapReduceCluster) -> str:
    """~10 blocks of Zipfian text — enough maps to lose some mid-job."""
    gen = ZipfTextGenerator(
        RngStream(seed=5).child("chaos-corpus"), vocab_size=120
    )
    mr.client().put_text("/chaos/in.txt", gen.text(3600))
    return "/chaos/in.txt"


def _job() -> WordCountJob:
    return WordCountJob(JobConf(name="chaos-wc", num_reduces=2))


def _read_part_files(mr: MapReduceCluster, output: str) -> dict[str, bytes]:
    client = mr._output_client(None)
    files: dict[str, bytes] = {}
    for status in client.list_status(output):
        name = status.path.rsplit("/", 1)[-1]
        if not status.is_dir and name.startswith("part-"):
            files[name] = client.read_text(status.path).encode()
    return files


def _framework_counters(report: JobReport) -> dict[str, dict[str, int]]:
    """Counter groups that must survive chaos untouched.

    "Job Counters" (launches, locality, failures) legitimately differ
    when attempts are re-executed; everything else — records, bytes,
    user counters — must match the fault-free run exactly.
    """
    return {
        group: names
        for group, names in report.counters.as_dict().items()
        if group != "Job Counters"
    }


def _settled_fsck(mr: MapReduceCluster, path: str) -> str:
    """``fsck(path).render()`` once replication has settled.

    "Settled" — NameNode up, out of safemode, nothing under- or
    over-replicated, no corrupt replicas, no missing blocks — is the
    stable comparison point at which a recovered run's namespace must
    be indistinguishable from the fault-free baseline's.
    """

    def settled() -> bool:
        nn = mr.hdfs.namenode
        if nn.down or nn.safemode.active:
            return False
        report = fsck(nn, path)
        return (
            report.under_replicated == 0
            and report.over_replicated == 0
            and report.corrupt_replicas == 0
            and report.missing_blocks == 0
        )

    mr.hdfs.wait_until(settled, timeout=8 * 3600.0, step=30.0)
    return fsck(mr.hdfs.namenode, path).render()


def _render_event(event) -> str:
    rendered = " ".join(f"{k}={event.data[k]}" for k in sorted(event.data))
    return f"t={event.time:10.3f}  {event.topic:35s} {rendered}".rstrip()


def _run_once(
    scenario: Scenario,
    plan: FaultPlan | None,
    backend: str | None,
    checks: list[Check] | None = None,
    sanitize: bool = False,
    transport: str = "framed",
    block_cache_bytes: int | None = None,
) -> tuple[JobReport, dict[str, bytes], list[str], list[str], str | None]:
    """One full drill execution.

    Returns (report, files, timeline, fault log, settled-fsck render) —
    the last only for scenarios that set ``fsck_path``.
    """
    with _make_cluster(
        backend,
        sanitize=sanitize,
        transport=transport,
        block_cache_bytes=block_cache_bytes,
    ) as mr:
        input_path = None if scenario.workload else _load_corpus(mr)
        mr.sim.bus.record_history = True
        injector = (
            FaultInjector(plan, mr).arm() if plan is not None else None
        )
        try:
            if scenario.workload is not None:
                report, files = scenario.workload(mr)
            else:
                report = mr.run_job(
                    _job(), input_path, "/chaos/out", timeout=scenario.timeout
                )
                files = _read_part_files(mr, "/chaos/out")
            if injector is not None and checks is not None and scenario.post:
                scenario.post(mr, injector, checks)
            fsck_render = (
                _settled_fsck(mr, scenario.fsck_path)
                if scenario.fsck_path is not None
                else None
            )
        finally:
            fault_log = injector.fault_log() if injector is not None else []
            if injector is not None:
                injector.disarm()
        timeline = [
            _render_event(e)
            for e in mr.sim.bus.history()
            if e.topic.startswith(TIMELINE_TOPICS)
        ]
        return report, files, timeline, fault_log, fsck_render


def run_scenario(
    name: str,
    seed: int = 0,
    backend: str | None = None,
    sanitize: bool = False,
    transport: str = "framed",
    block_cache_bytes: int | None = None,
) -> ScenarioResult:
    """Execute one drill: baseline, faulty run, and a replay.

    The three runs back the three acceptance claims — the job *heals*
    (faulty output is bit-identical to the fault-free baseline, with
    framework/user counters intact), and the chaos itself is
    *reproducible* (replaying the same plan seed yields an identical
    fault log).  ``block_cache_bytes`` overrides the DataNode block
    cache (0 disables it) so the data-path property tests can prove
    drills are bit-identical cache-on vs cache-off.
    """
    scenario = get_scenario(name)
    plan = scenario.plan(seed)
    result = ScenarioResult(name=scenario.name, seed=seed, plan=plan)

    baseline_report, baseline_files, _, _, baseline_fsck = _run_once(
        scenario,
        None,
        backend,
        sanitize=sanitize,
        transport=transport,
        block_cache_bytes=block_cache_bytes,
    )
    result.baseline_report = baseline_report
    result.baseline_files = baseline_files
    result.baseline_fsck_render = baseline_fsck
    result.check(
        "fault-free baseline succeeded",
        baseline_report.succeeded,
        str(baseline_report.failure_reason),
    )

    report, files, timeline, fault_log, fsck_render = _run_once(
        scenario,
        plan,
        backend,
        checks=result.checks,
        sanitize=sanitize,
        transport=transport,
        block_cache_bytes=block_cache_bytes,
    )
    result.report = report
    result.output_files = files
    result.timeline = timeline
    result.fault_log = fault_log
    result.fsck_render = fsck_render
    result.check(
        "job completed despite injected faults",
        report.succeeded,
        str(report.failure_reason),
    )
    result.check(
        "faults were actually injected",
        bool(fault_log),
        "plan injected nothing",
    )
    result.check(
        "output bit-identical to fault-free baseline",
        files == baseline_files,
        f"faulty={sorted(files)} baseline={sorted(baseline_files)}",
    )
    result.check(
        "framework + user counters match baseline",
        _framework_counters(report) == _framework_counters(baseline_report),
        "counter drift outside 'Job Counters'",
    )
    if scenario.fsck_path is not None:
        result.check(
            "settled fsck bit-identical to fault-free baseline",
            fsck_render == baseline_fsck,
            f"faulty fsck:\n{fsck_render}\nbaseline fsck:\n{baseline_fsck}",
        )
    if sanitize:
        sanitizer_groups = {
            run: rep.counters.as_dict().get("Sanitizer", {})
            for run, rep in (
                ("baseline", baseline_report),
                ("faulty", report),
            )
        }
        result.check(
            "runtime sanitizer found zero violations",
            not any(sanitizer_groups.values()),
            f"violations: {sanitizer_groups}",
        )

    _, _, _, replay_log, _ = _run_once(
        scenario,
        plan,
        backend,
        sanitize=sanitize,
        transport=transport,
        block_cache_bytes=block_cache_bytes,
    )
    result.replay_fault_log = replay_log
    result.check(
        "replaying the seed reproduces the exact fault log",
        replay_log == fault_log,
        f"replay diverged: {len(fault_log)} vs {len(replay_log)} entries",
    )
    return result


# ---------------------------------------------------------------------------
# the drills


def _kill_datanode_plan(seed: int) -> FaultPlan:
    # The first completed map pulls the trigger: one DataNode dies
    # mid-job and stays down until well after the job finishes, so
    # every later read of its replicas must fail over.
    return FaultPlan(seed=seed).on_event(
        "mr.task.completed", "datanode.crash", count=1, target="node2"
    )


def _lost_map_output_plan(seed: int) -> FaultPlan:
    # Kill the TaskTracker that just completed the second map, taking
    # its materialized map output with it.  Reduces retry their fetches
    # with backoff, exhaust the budget, escalate to map_output_lost,
    # the map re-executes elsewhere, and the reduces refetch.
    return FaultPlan(seed=seed).on_event(
        "mr.task.completed",
        "tracker.crash",
        count=2,
        target_from="tracker",
        restart_after=120.0,
    )


def _corrupt_cluster_plan(seed: int) -> FaultPlan:
    # Silent on-disk corruption across the whole cluster, sparing each
    # block's last healthy replica so the data stays recoverable — the
    # "corrupted Hadoop cluster" incident.
    return FaultPlan(seed=seed).corrupt_blocks(at=1.0, count=2)


def _corrupt_post(
    mr: MapReduceCluster, injector: FaultInjector, checks: list[Check]
) -> None:
    # The paper's recovery: bounce everything.  DataNode startup
    # integrity scans surface the bad replicas, the NameNode re-
    # replicates from healthy copies, and fsck comes back HEALTHY.
    mr.hdfs.restart_cluster()
    healed = mr.hdfs.wait_until(
        lambda: not mr.hdfs.namenode.safemode.active
        and fsck(mr.hdfs.namenode).healthy
        and fsck(mr.hdfs.namenode).corrupt_replicas == 0,
        timeout=8 * 3600.0,
        step=10.0,
    )
    report = fsck(mr.hdfs.namenode)
    checks.append(
        (
            "fsck HEALTHY after restart scans + re-replication",
            bool(healed),
            f"status={report.status} corrupt_replicas={report.corrupt_replicas}",
        )
    )


def _thundering_restart_plan(seed: int) -> FaultPlan:
    # Mid-job, the whole cluster is bounced — the recovery procedure
    # itself as the fault.  In-flight attempts are lost, the NameNode
    # sits in safemode through the startup scans, trackers re-register
    # and are reconciled, and the job still finishes correctly.
    return FaultPlan(seed=seed).on_event(
        "mr.task.completed", "cluster.restart", count=1
    )


def _shuffle_storm_plan(seed: int) -> FaultPlan:
    # A bad network night: transient fetch failures, flaky tasks, and
    # stragglers all at once.  Retries with backoff ride out most of
    # it; what escalates goes through the full re-execution chain.
    return (
        FaultPlan(seed=seed)
        .shuffle_failure_rate(0.25)
        .task_exception_rate(0.05)
        .straggler_rate(0.10, factor=3.0)
    )


def _namenode_crash_plan(seed: int) -> FaultPlan:
    # The second completed map kills the NameNode outright: namespace,
    # block map and registrations all gone from memory.  45 seconds
    # later recovery replays fsimage + edit log, safemode holds until
    # DataNodes re-report, paused trackers resume, and the job — plus a
    # settled fsck of the whole namespace — must be bit-identical to
    # the fault-free baseline.
    return FaultPlan(seed=seed).on_event(
        "mr.task.completed", "namenode.crash", count=2, recover_after=45.0
    )


def _namenode_crash_post(
    mr: MapReduceCluster, injector: FaultInjector, checks: list[Check]
) -> None:
    nn = mr.hdfs.namenode
    stats = nn.journal.last_recovery
    checks.append(
        (
            "NameNode crashed and recovered from its journal",
            nn.crashes >= 1 and nn.recoveries >= 1 and stats is not None,
            f"crashes={nn.crashes} recoveries={nn.recoveries}",
        )
    )
    checks.append(
        (
            "recovery replayed journaled edits",
            stats is not None and stats.replayed_edits > 0,
            f"recovery={stats}",
        )
    )


def _checkpoint_roll_plan(seed: int) -> FaultPlan:
    # A SecondaryNameNode-style checkpoint rolls after the second map
    # (fresh fsimage, truncated edit log), then the fourth map kills
    # the NameNode.  Recovery now loads the checkpointed image and
    # replays only the short post-checkpoint edit tail.
    return (
        FaultPlan(seed=seed)
        .on_event("mr.task.completed", "checkpoint.roll", count=2)
        .on_event(
            "mr.task.completed", "namenode.crash", count=4, recover_after=45.0
        )
    )


def _checkpoint_roll_post(
    mr: MapReduceCluster, injector: FaultInjector, checks: list[Check]
) -> None:
    journal = mr.hdfs.namenode.journal
    checks.append(
        (
            "checkpoint rolled a fresh fsimage",
            journal.checkpoints >= 1,
            f"checkpoints={journal.checkpoints}",
        )
    )
    stats = journal.last_recovery
    checks.append(
        (
            "recovery loaded a non-empty fsimage",
            stats is not None and stats.image_inodes > 0,
            f"recovery={stats}",
        )
    )
    checks.append(
        (
            "recovery replayed only the post-checkpoint edit tail",
            stats is not None and stats.replayed_edits < journal.edits_logged,
            f"recovery={stats} edits_logged={journal.edits_logged}",
        )
    )


def _pagerank_datanode_plan(seed: int) -> FaultPlan:
    # The second completed *job* (an early PageRank stage) pulls the
    # trigger: a DataNode dies between iterations and stays down, so
    # every later stage re-reading cached link-table intermediates and
    # prior-iteration ranks must fail over to surviving replicas.
    return FaultPlan(seed=seed).on_event(
        "mr.jobtracker.succeeded", "datanode.crash", count=2, target="node2"
    )


def _pagerank_workload(
    mr: MapReduceCluster,
) -> tuple[JobReport, dict[str, bytes]]:
    """Compiled sparklite PageRank: a multi-stage iterative program.

    Every iteration is a join + reduce stage pair over HDFS-resident
    intermediates; the final ranks (full ``repr`` precision — the
    bit-identity claim) are the drill's comparable output, and the last
    stage's report carries the counters that must survive the chaos.
    """
    from repro.jobs.pagerank import generate_web_graph, pagerank
    from repro.sparklite.context import SparkLiteContext

    names = [node.name for node in mr.hdfs.topology.nodes()]
    sc = SparkLiteContext(names, cluster=mr)
    graph = generate_web_graph(seed=3, num_pages=40, avg_degree=3)
    result = pagerank(sc, graph.edges, iterations=3, num_partitions=3)
    ranks = (
        "\n".join(f"{page}\t{rank!r}" for page, rank in result.ranks) + "\n"
    )
    runner = sc._compiled_runner()
    return runner.last_report, {"ranks": ranks.encode()}


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="kill_datanode",
            title="Kill a DataNode mid-job",
            paper_incident=(
                "worker daemons dying under load; HDFS reads must fail "
                "over to surviving replicas (Section II.A)"
            ),
            plan=_kill_datanode_plan,
        ),
        Scenario(
            name="lost_map_output",
            title="Lose a completed map's output",
            paper_incident=(
                "a crashed worker takes finished map output with it; the "
                "JobTracker re-executes completed maps (Section II.A)"
            ),
            plan=_lost_map_output_plan,
        ),
        Scenario(
            name="corrupt_cluster_fsck",
            title="Corrupted cluster, then fsck",
            paper_incident=(
                "the corrupted Hadoop cluster that forced staff to bounce "
                "everything and wait out the startup scans (Section II.A)"
            ),
            plan=_corrupt_cluster_plan,
            post=_corrupt_post,
        ),
        Scenario(
            name="thundering_restart",
            title="Bounce the whole cluster mid-job",
            paper_incident=(
                "the fifteen-minute full-cluster restart: safemode, "
                "integrity scans, every daemon re-registering (Section II.A)"
            ),
            plan=_thundering_restart_plan,
        ),
        Scenario(
            name="namenode_crash_recovery",
            title="Crash the NameNode mid-job, recover from the journal",
            paper_incident=(
                "the NameNode as single point of failure holding all "
                "metadata in memory (Figure 2); only the edit log brings "
                "the namespace back"
            ),
            plan=_namenode_crash_plan,
            post=_namenode_crash_post,
            fsck_path="/",
        ),
        Scenario(
            name="checkpoint_roll",
            title="Checkpoint, then crash: recover from fsimage + edit tail",
            paper_incident=(
                "the SecondaryNameNode checkpoint cycle that bounds "
                "edit-log replay on NameNode restart (Section III)"
            ),
            plan=_checkpoint_roll_plan,
            post=_checkpoint_roll_post,
            fsck_path="/",
        ),
        Scenario(
            name="shuffle_storm",
            title="Shuffle-failure storm with flaky, slow tasks",
            paper_incident=(
                "overloaded shared gigabit links making fetches flaky and "
                "tasks drag (Sections II.A, V)"
            ),
            plan=_shuffle_storm_plan,
        ),
        Scenario(
            name="pagerank_datanode_loss",
            title="Kill a DataNode between PageRank iterations",
            paper_incident=(
                "iterative jobs amplify single-node failures: every later "
                "stage re-reads cached intermediates from HDFS, so a dead "
                "DataNode mid-iteration exercises replica failover on the "
                "compiled sparklite pipeline (Sections II.A, IV)"
            ),
            plan=_pagerank_datanode_plan,
            workload=_pagerank_workload,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown chaos scenario {name!r}; "
            f"expected one of {sorted(SCENARIOS)}"
        ) from None


def list_scenarios() -> list[Scenario]:
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]
