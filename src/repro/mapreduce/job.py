"""Running jobs and their reports.

A :class:`RunningJob` is the JobTracker's bookkeeping for one submitted
job: task tables, pending queues, aggregated counters, locality tallies
and the attempt log.  Its :meth:`RunningJob.report` produces the
:class:`JobReport` that plays the role of the JobTracker web UI + final
job report the course has students read.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from repro.mapreduce.api import Job
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.inputformat import InputSplit
from repro.mapreduce.tasks import (
    AttemptState,
    MapTask,
    ReduceTask,
    TaskState,
)


class JobState(enum.Enum):
    PREP = "prep"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class RunningJob:
    """JobTracker-side state of one job."""

    def __init__(
        self,
        job: Job,
        job_id: str,
        input_paths: list[str],
        output_path: str,
        splits: list[InputSplit],
        submit_time: float,
        submit_seq: int = 0,
        pooled: bool = False,
    ):
        self.job = job
        self.job_id = job_id
        #: Monotonic submission number — the scheduler's FIFO key.
        self.submit_seq = submit_seq
        #: Whether every attempt of this job — map, reduce, shuffle
        #: retry, speculative twin — runs on the backend's pool (else
        #: inline); decided once, at submission.
        self.pooled = pooled
        self.input_paths = list(input_paths)
        self.output_path = output_path
        self.submit_time = submit_time
        self.finish_time: float | None = None
        self.state = JobState.RUNNING
        self.failure_reason: str | None = None

        self.map_tasks = [
            MapTask(job_id=job_id, index=i, split=split)
            for i, split in enumerate(splits)
        ]
        self.reduce_tasks = [
            ReduceTask(job_id=job_id, partition=p)
            for p in range(job.conf.num_reduces)
        ]
        self.pending_maps: deque[int] = deque(range(len(self.map_tasks)))
        self.pending_reduces: deque[int] = deque(range(len(self.reduce_tasks)))
        #: O(1) completion census (the ``all(...)`` scans made
        #: ``maps_done`` O(#tasks) on every heartbeat); maintained by
        #: the JobTracker at the success/revert transitions.
        self.succeeded_maps = 0
        self.succeeded_reduces = 0
        #: Scheduler-level counters (launches, locality, failures).
        self.counters = Counters()
        #: Execution counters of each task's *latest successful* attempt,
        #: keyed by task id.  Kept per-task (not merged into a running
        #: total) so a map that is re-executed after its output is lost
        #: replaces its contribution instead of double-counting it — the
        #: aggregate then matches a fault-free run exactly.
        self.task_counters: dict[str, Counters] = {}
        self.blacklist: set[str] = set()
        self.tracker_failures: dict[str, int] = {}
        self.events: list[tuple[float, str]] = []
        #: Shared-memory shuffle scope (``repro.mapreduce.shm.ShmScope``)
        #: when this job runs pooled with ``shuffle_transport="shm"``;
        #: the JobTracker creates it at submit and releases it on the
        #: job-finish/-fail paths (see :meth:`release_shuffle`).
        self.shm_scope = None

    def release_shuffle(self) -> None:
        """A finished job holds no shuffle data in any form: drop every
        map task's output (object, framed or shm slices) and unlink the
        job's shared-memory segments.  Idempotent, safe to call from
        every teardown path."""
        for task in self.map_tasks:
            task.output = None
        if self.shm_scope is not None:
            self.shm_scope.release()

    # ------------------------------------------------------------------
    @property
    def conf(self):
        return self.job.conf

    @property
    def name(self) -> str:
        return self.job.name

    def build_map_index(self, topology) -> None:
        """Replace the pending-map deque with the locality-indexed
        queue (same FIFO semantics, O(log n) locality-aware picks)."""
        from repro.mapreduce.scheduler import PendingMapQueue

        self.pending_maps = PendingMapQueue(
            topology, self.map_tasks, initial=range(len(self.map_tasks))
        )

    @property
    def maps_done(self) -> bool:
        return self.succeeded_maps >= len(self.map_tasks)

    @property
    def reduces_done(self) -> bool:
        return self.succeeded_reduces >= len(self.reduce_tasks)

    @property
    def finished(self) -> bool:
        return self.state in (JobState.SUCCEEDED, JobState.FAILED)

    @property
    def succeeded(self) -> bool:
        return self.state == JobState.SUCCEEDED

    def log(self, time: float, message: str) -> None:
        self.events.append((time, message))

    # ------------------------------------------------------------------
    def record_task_counters(self, task_id: str, counters: Counters) -> None:
        """Record the execution counters of a task's successful attempt
        (the latest success wins; see :attr:`task_counters`)."""
        self.task_counters[task_id] = counters

    def aggregate_counters(self) -> Counters:
        """Scheduler counters merged with every task's latest counters."""
        total = Counters()
        total.merge(self.counters)
        for task_id in sorted(self.task_counters):
            total.merge(self.task_counters[task_id])
        return total

    # ------------------------------------------------------------------
    def completed_map_outputs(self):
        return [
            t.output for t in self.map_tasks if t.output is not None
        ]

    def all_attempts(self):
        for task in [*self.map_tasks, *self.reduce_tasks]:
            yield from task.attempts

    def total_resubmissions(self) -> int:
        return sum(t.resubmissions for t in self.map_tasks) + sum(
            max(0, len(t.attempts) - 1) for t in self.reduce_tasks
        )

    # ------------------------------------------------------------------
    def report(self) -> "JobReport":
        map_durations = [
            t.duration for t in self.map_tasks if t.duration is not None
        ]
        reduce_durations = [
            t.duration for t in self.reduce_tasks if t.duration is not None
        ]
        failed_attempts = sum(
            1 for a in self.all_attempts() if a.state == AttemptState.FAILED
        )
        killed_attempts = sum(
            1 for a in self.all_attempts() if a.state == AttemptState.KILLED
        )
        elapsed = (
            (self.finish_time - self.submit_time)
            if self.finish_time is not None
            else None
        )
        counters = self.aggregate_counters()
        return JobReport(
            job_id=self.job_id,
            name=self.name,
            state=self.state.value,
            failure_reason=self.failure_reason,
            submit_time=self.submit_time,
            finish_time=self.finish_time,
            elapsed=elapsed,
            num_maps=len(self.map_tasks),
            num_reduces=len(self.reduce_tasks),
            data_local_maps=self.counters.get(C.DATA_LOCAL_MAPS),
            rack_local_maps=self.counters.get(C.RACK_LOCAL_MAPS),
            off_rack_maps=self.counters.get(C.OFF_RACK_MAPS),
            avg_map_time=(
                sum(map_durations) / len(map_durations) if map_durations else 0.0
            ),
            avg_reduce_time=(
                sum(reduce_durations) / len(reduce_durations)
                if reduce_durations
                else 0.0
            ),
            failed_attempts=failed_attempts,
            killed_attempts=killed_attempts,
            total_resubmissions=self.total_resubmissions(),
            counters=counters,
        )


@dataclass
class JobReport:
    """The end-of-job summary (JobTracker UI + ``hadoop jar`` tail)."""

    job_id: str
    name: str
    state: str
    failure_reason: str | None
    submit_time: float
    finish_time: float | None
    elapsed: float | None
    num_maps: int
    num_reduces: int
    data_local_maps: int
    rack_local_maps: int
    off_rack_maps: int
    avg_map_time: float
    avg_reduce_time: float
    failed_attempts: int
    killed_attempts: int
    total_resubmissions: int
    counters: Counters = field(default_factory=Counters)

    @property
    def shuffle_bytes(self) -> int:
        return self.counters.get(C.REDUCE_SHUFFLE_BYTES)

    @property
    def succeeded(self) -> bool:
        return self.state == "succeeded"

    def render(self) -> str:
        lines = [
            f"Job {self.job_id} ({self.name}): {self.state.upper()}",
        ]
        if self.failure_reason:
            lines.append(f"  Failure: {self.failure_reason}")
        if self.elapsed is not None:
            lines.append(f"  Elapsed: {self.elapsed:.1f}s")
        lines += [
            f"  Maps: {self.num_maps} "
            f"(data-local={self.data_local_maps}, "
            f"rack-local={self.rack_local_maps}, "
            f"off-rack={self.off_rack_maps})",
            f"  Reduces: {self.num_reduces}",
            f"  Avg map time: {self.avg_map_time:.2f}s   "
            f"Avg reduce time: {self.avg_reduce_time:.2f}s",
            f"  Failed attempts: {self.failed_attempts}   "
            f"Killed attempts: {self.killed_attempts}   "
            f"Task resubmissions: {self.total_resubmissions}",
            self.counters.render(),
        ]
        return "\n".join(lines)
