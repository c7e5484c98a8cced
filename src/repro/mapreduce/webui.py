"""Text renderings of the JobTracker "web interface".

The course's combiner lecture has students watch "increased map task run
time (observed through Hadoop's JobTracker's web interface)"; these
renderers are that interface, as plain text.  ``render_integration_view``
regenerates the *content* of the paper's Figure 2 — the layered picture
from HDFS abstraction down to ``blk_xxx`` files on each node's Linux FS,
with the NameNode/JobTracker memory-resident metadata in between.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mapreduce.job import RunningJob
from repro.mapreduce.tasks import TaskState
from repro.util.textable import TextTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.cluster import MapReduceCluster


def render_cluster_status(cluster: "MapReduceCluster") -> str:
    """The JobTracker front page: trackers and jobs."""
    lines = ["=== JobTracker status ==="]
    table = TextTable(["Tracker", "State", "Map slots", "Reduce slots", "Running"])
    for name in sorted(cluster.tasktrackers):
        tracker = cluster.tasktrackers[name]
        table.add_row(
            [
                name,
                tracker.state.value,
                f"{tracker.free_map_slots}/{cluster.mr_config.map_slots_per_tracker}",
                f"{tracker.free_reduce_slots}/{cluster.mr_config.reduce_slots_per_tracker}",
                len(tracker.running),
            ]
        )
    lines.append(table.render())
    jobs = TextTable(["Job", "Name", "State", "Maps", "Reduces"])
    for job_id in cluster.jobtracker.jobs:
        job = cluster.jobtracker.jobs[job_id]
        done_maps = sum(
            1 for t in job.map_tasks if t.state == TaskState.SUCCEEDED
        )
        done_reduces = sum(
            1 for t in job.reduce_tasks if t.state == TaskState.SUCCEEDED
        )
        jobs.add_row(
            [
                job_id,
                job.name,
                job.state.value,
                f"{done_maps}/{len(job.map_tasks)}",
                f"{done_reduces}/{len(job.reduce_tasks)}",
            ]
        )
    lines.append(jobs.render())
    return "\n".join(lines)


def render_job_page(running: RunningJob) -> str:
    """The per-job page: every task with its attempts."""
    lines = [f"=== {running.job_id} ({running.name}) : {running.state.value} ==="]
    table = TextTable(
        ["Task", "State", "Attempts", "Locality", "Tracker", "Duration"]
    )
    for task in [*running.map_tasks, *running.reduce_tasks]:
        last = task.attempts[-1] if task.attempts else None
        table.add_row(
            [
                task.task_id,
                task.state.value,
                len(task.attempts),
                (last.locality or "-") if last else "-",
                last.tracker if last else "-",
                f"{task.duration:.2f}s" if task.duration is not None else "-",
            ]
        )
    lines.append(table.render())
    if running.events:
        lines.append("Event log:")
        lines += [f"  [{t:9.1f}s] {msg}" for t, msg in running.events]
    return "\n".join(lines)


def render_integration_view(
    cluster: "MapReduceCluster", path: str = "/", running: RunningJob | None = None
) -> str:
    """Figure 2 as structured text: abstraction -> metadata -> physical.

    Four layers, top to bottom, exactly as the paper draws them:

    1. HDFS abstraction (directories/files);
    2. NameNode block metadata, resident in memory;
    3. JobTracker task placement driven by block locations;
    4. the physical view — ``blk_xxx`` files on each node's Linux FS.
    """
    namenode = cluster.hdfs.namenode
    lines = ["=== HDFS Abstractions: Directories/Files ==="]
    for file_path, inode in namenode.namespace.walk_files(path):
        lines.append(
            f"  {file_path}  ({inode.length} bytes, "
            f"{len(inode.blocks)} blocks, replication {inode.replication})"
        )

    lines.append("")
    lines.append(
        "=== NameNode: block metadata lives in memory "
        f"(~{namenode.heap_used_bytes()} bytes of heap) ==="
    )
    for file_path, inode in namenode.namespace.walk_files(path):
        for block in inode.blocks:
            meta = namenode.block_map[block.block_id]
            locations = ",".join(sorted(meta.locations)) or "<none>"
            lines.append(
                f"  {block.name} len={block.length} file={file_path} "
                f"on=[{locations}]"
            )

    if running is not None:
        lines.append("")
        lines.append(
            "=== JobTracker: work assigned by block location "
            "(detailed job progress lives in memory) ==="
        )
        for task in running.map_tasks:
            last = task.attempts[-1] if task.attempts else None
            where = last.tracker if last else "-"
            locality = (last.locality or "-") if last else "-"
            lines.append(
                f"  {task.task_id}: split {task.split.split_id} "
                f"replicas={list(task.split.locations)} -> ran on {where} "
                f"[{locality}]"
            )

    lines.append("")
    lines.append("=== Physical view at the Linux FS (per DataNode) ===")
    for name in sorted(cluster.hdfs.datanodes):
        datanode = cluster.hdfs.datanodes[name]
        listing = datanode.physical_listing()
        shown = ", ".join(listing[:8]) + (" ..." if len(listing) > 8 else "")
        lines.append(
            f"  {name} ({datanode.state.value}): "
            f"{len(listing)} blocks [{shown}]"
        )
    return "\n".join(lines)
