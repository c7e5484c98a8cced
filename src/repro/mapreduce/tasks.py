"""Task and attempt state — what the JobTracker web UI tabulates."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.mapreduce.inputformat import InputSplit
from repro.mapreduce.shuffle import MapOutput


class TaskType(enum.Enum):
    MAP = "m"
    REDUCE = "r"


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class AttemptState(enum.Enum):
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    KILLED = "killed"  # lost tracker or losing speculative twin


@dataclass(slots=True)
class TaskAttempt:
    """One execution attempt of one task on one tracker."""

    attempt_id: str
    task_id: str
    task_type: TaskType
    tracker: str
    start_time: float
    state: AttemptState = AttemptState.RUNNING
    finish_time: float | None = None
    locality: str | None = None  # maps only
    failure: str | None = None
    speculative: bool = False


@dataclass(slots=True)
class MapTask:
    """One map task: a split plus its attempt history and output."""

    job_id: str
    index: int
    split: InputSplit
    state: TaskState = TaskState.PENDING
    attempts: list[TaskAttempt] = field(default_factory=list)
    failures: int = 0
    #: The attempt's map output as the transport produced it: live pair
    #: lists (object), or frozen RWF2 blobs (framed) that under shm are
    #: replaced by slices of a shared segment (the segments these name
    #: belong to the job's ShmScope, which unlinks them when the job
    #: finishes or fails; the task never owns segment lifetime).
    output: MapOutput | None = None
    completed_on: str | None = None
    duration: float | None = None

    @property
    def task_id(self) -> str:
        return f"task_{self.job_id}_m_{self.index:06d}"

    def next_attempt_id(self) -> str:
        return f"attempt_{self.job_id}_m_{self.index:06d}_{len(self.attempts)}"

    @property
    def running_attempts(self) -> list[TaskAttempt]:
        return [a for a in self.attempts if a.state == AttemptState.RUNNING]

    @property
    def resubmissions(self) -> int:
        """Attempts beyond the first — the quantity the Google-trace
        assignment asks students to maximize over jobs."""
        return max(0, len(self.attempts) - 1)


@dataclass(slots=True)
class ReduceTask:
    """One reduce task: a partition plus its attempt history."""

    job_id: str
    partition: int
    state: TaskState = TaskState.PENDING
    attempts: list[TaskAttempt] = field(default_factory=list)
    failures: int = 0
    output_records: int = 0
    duration: float | None = None

    @property
    def task_id(self) -> str:
        return f"task_{self.job_id}_r_{self.partition:06d}"

    def next_attempt_id(self) -> str:
        return f"attempt_{self.job_id}_r_{self.partition:06d}_{len(self.attempts)}"

    @property
    def running_attempts(self) -> list[TaskAttempt]:
        return [a for a in self.attempts if a.state == AttemptState.RUNNING]
