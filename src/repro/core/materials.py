"""Teaching materials (Section III), generated from the live system.

The paper groups its materials into "lecture notes and example codes,
assignments, data sources, and tools to set up Hadoop platforms", and
the strongest student feedback asked for "more detailed tutorials and
guidance along with explanations on the purpose of each command".

This module renders those materials *from the implementation*, and the
tutorial handout is executable: every step carries the action it
documents, so :func:`run_handout_walkthrough` can replay the whole
handout against a simulated platform and fail loudly if the docs rot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.assignments import ASSIGNMENTS
from repro.core.module import MODULE_VERSIONS, ModuleVersion, version_by_number
from repro.datasets.catalog import DATASET_CATALOG
from repro.util.textable import TextTable
from repro.util.units import format_size

#: Topic -> the bullet points a lecture on it covers (each traceable to
#: a module in this repository).
LECTURE_POINTS: dict[str, tuple[str, ...]] = {
    "mapreduce": (
        "decompose a problem into map and reduce over key/value pairs "
        "(repro.mapreduce.api)",
        "combiners and the monoid requirement (repro.mapreduce.shuffle, "
        "Lin's 'Monoidify!')",
        "counters and the job report: what to read after a run "
        "(repro.mapreduce.counters)",
        "serial development first: no cluster needed to test logic "
        "(repro.mapreduce.local_runner)",
    ),
    "hdfs": (
        "files become blocks; blocks become replicated blk_xxx files on "
        "the Linux FS (repro.hdfs.block, Figure 2)",
        "the NameNode keeps all block metadata in memory "
        "(repro.hdfs.namenode)",
        "rack-aware placement and why the third replica is cheap "
        "(repro.hdfs.placement)",
        "data locality: the JobTracker schedules maps onto the data "
        "(repro.mapreduce.jobtracker)",
        "observing it all: fs shell, fsck, dfsadmin (repro.hdfs.shell)",
    ),
    "ecosystem": (
        "HBase: random access on an append-only file system "
        "(repro.hbase)",
        "Hive: SQL that compiles to the MapReduce you already know "
        "(repro.hive)",
        "beyond MapReduce: resource managers and in-memory computing "
        "(repro.sparklite)",
    ),
}


def lecture_outline(version_number: int) -> str:
    """The lecture-by-lecture outline for one module version."""
    version = version_by_number(version_number)
    lines = [
        f"Hadoop MapReduce module, version {version.version} "
        f"({version.term})",
        f"Format: {version.format}",
        "",
    ]
    for i, lecture in enumerate(version.lectures, 1):
        kind = "LAB" if lecture.kind == "lab" else "LECTURE"
        lines.append(f"Session {i} [{kind}]: {lecture.title}")
        for point in LECTURE_POINTS.get(lecture.topic, ()):
            lines.append(f"  - {point}")
    if version.assignment_ids:
        lines.append("")
        lines.append("Assignments:")
        for assignment_id in version.assignment_ids:
            assignment = ASSIGNMENTS[assignment_id]
            lines.append(
                f"  {assignment.id} ({assignment.weeks} weeks): "
                f"{assignment.title}"
            )
    return "\n".join(lines)


def data_sources_table() -> TextTable:
    """Section III.C's data-source catalogue."""
    table = TextTable(
        ["Dataset", "Size", "Used for"],
        title="Data sources (Section III.C)",
    )
    for info in DATASET_CATALOG.values():
        table.add_row(
            [info.name, format_size(info.real_size_bytes), info.role]
        )
    return table


# --------------------------------------------------------------------------
# the executable tutorial handout


@dataclass
class HandoutStep:
    """One step: the command as typed, why, and the action it performs."""

    command: str
    purpose: str
    action: Callable[[dict], None] | None = field(default=None, repr=False)

    def render(self, index: int) -> str:
        return f"  {index}. $ {self.command}\n     # {self.purpose}"


def _step_qsub(ctx: dict) -> None:
    ctx["reservation"] = ctx["env"].scheduler.qsub(
        user=ctx["user"], num_nodes=4, walltime=2 * 3600
    )
    assert ctx["reservation"].active


def _step_configure(ctx: dict) -> None:
    from repro.hdfs.config import HdfsConfig
    from repro.myhadoop.provision import MyHadoopConfig

    ctx["config"] = MyHadoopConfig(
        user=ctx["user"],
        num_nodes=4,
        hdfs=HdfsConfig(block_size=4096, replication=2),
    )
    ctx["config"].validate(ctx["env"].pfs)


def _step_start(ctx: dict) -> None:
    ctx["cluster"] = ctx["env"].provisioner.start_cluster(
        ctx["reservation"], ctx["config"]
    )


def _step_put(ctx: dict) -> None:
    ctx["home"].write_file(f"/home/{ctx['user']}/input.txt", "to be or not\n" * 50)
    client = ctx["cluster"].mr.client()
    client.copy_from_local(
        ctx["home"], f"/home/{ctx['user']}/input.txt",
        f"/user/{ctx['user']}/input.txt",
    )
    assert client.exists(f"/user/{ctx['user']}/input.txt")


def _step_fsck(ctx: dict) -> None:
    from repro.hdfs.fsck import fsck

    report = fsck(ctx["cluster"].hdfs.namenode)
    assert report.healthy
    ctx["fsck"] = report


def _step_jar(ctx: dict) -> None:
    from repro.jobs.wordcount import WordCountWithCombinerJob

    ctx["report"] = ctx["cluster"].mr.run_job(
        WordCountWithCombinerJob(),
        f"/user/{ctx['user']}/input.txt",
        f"/user/{ctx['user']}/out",
        require_success=True,
    )


def _step_get(ctx: dict) -> None:
    pairs = ctx["cluster"].mr.read_output(f"/user/{ctx['user']}/out")
    text = "\n".join(f"{k}\t{v}" for k, v in pairs) + "\n"
    ctx["home"].write_file(f"/home/{ctx['user']}/results.txt", text)
    assert ctx["home"].exists(f"/home/{ctx['user']}/results.txt")


def _step_stop(ctx: dict) -> None:
    ctx["env"].provisioner.stop_cluster(ctx["cluster"])
    ctx["env"].scheduler.release(ctx["reservation"])


HANDOUT_STEPS: tuple[HandoutStep, ...] = (
    HandoutStep(
        "source ~/hadoop-env.sh",
        "sets JAVA_HOME and HADOOP_HOME so every later command finds the "
        "packaged Hadoop 1.2.1 (the course ships the exact directory "
        "layout; do not rearrange it)",
    ),
    HandoutStep(
        "qsub -l nodes=4,walltime=02:00:00 myhadoop-job.sh",
        "asks the scheduler for four nodes for two hours; your cluster "
        "exists only inside this reservation",
        _step_qsub,
    ),
    HandoutStep(
        "myhadoop-configure.sh -n 4",
        "writes a Hadoop configuration for *your* nodes and *your* "
        "scratch directories; wrong paths here are the #1 failure mode",
        _step_configure,
    ),
    HandoutStep(
        "start-all.sh",
        "starts the NameNode, DataNodes, JobTracker and TaskTrackers and "
        "binds their ports; if a port is already bound, a previous "
        "student's ghost daemons are squatting on your node",
        _step_start,
    ),
    HandoutStep(
        "hadoop fs -put ~/input.txt /user/$USER/input.txt",
        "copies data from the Linux file system into HDFS, where it is "
        "split into blocks and replicated across your DataNodes",
        _step_put,
    ),
    HandoutStep(
        "hadoop fsck /",
        "verifies every block has its replicas before you compute on it",
        _step_fsck,
    ),
    HandoutStep(
        "hadoop jar wordcount.jar /user/$USER/input.txt /user/$USER/out",
        "submits the MapReduce job; the JobTracker schedules map tasks "
        "onto the nodes that hold the blocks (watch the data-local "
        "counter in the report)",
        _step_jar,
    ),
    HandoutStep(
        "hadoop fs -copyToLocal /user/$USER/out ~/results",
        "exports the output back to the Linux file system -- HDFS "
        "disappears with your reservation, your home directory does not",
        _step_get,
    ),
    HandoutStep(
        "stop-all.sh",
        "stops your daemons and releases their ports; skipping this is "
        "how ghost daemons are born",
        _step_stop,
    ),
)


def tutorial_handout() -> str:
    """The Version-3/4 step-by-step handout, with per-command purpose."""
    lines = [
        "myHadoop tutorial handout (Versions 3-4)",
        "Every command, and why you are typing it:",
        "",
    ]
    for i, step in enumerate(HANDOUT_STEPS, 1):
        lines.append(step.render(i))
    lines.append("")
    lines.append(
        "If start-all.sh fails with 'port in use': your own ghost daemons "
        "can be killed by hand; another student's will be scrubbed by the "
        "scheduler's cleanup sweep within 15 minutes."
    )
    return "\n".join(lines)


def run_handout_walkthrough(env=None, user: str = "student") -> dict:
    """Execute the handout end-to-end on a simulated platform.

    Returns the walkthrough context (reservation, cluster, job report),
    so tests can assert the handout still describes reality.
    """
    from repro.core.platforms import build_myhadoop_platform
    from repro.hdfs.localfs import LinuxFileSystem

    context: dict = {
        "env": env or build_myhadoop_platform(seed=12),
        "user": user,
        "home": LinuxFileSystem(),
    }
    for step in HANDOUT_STEPS:
        if step.action is not None:
            step.action(context)
    return context


def syllabus() -> str:
    """All four versions' outlines plus the data-source catalogue."""
    pieces = [lecture_outline(v.version) for v in MODULE_VERSIONS]
    pieces.append(data_sources_table().render())
    return "\n\n".join(pieces)
