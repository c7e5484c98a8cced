"""Version 1, assignment 2: "analyze the 171GB of a Google Data Center's
system log and find the computing job with largest number of task
resubmissions".

Two-job chain, the standard pattern for a grouped count followed by a
global argmax:

1. :class:`TraceResubmissionsJob` — key SUBMIT events by
   ``(job, task)``; each group's resubmissions are ``submits - 1``;
   sum per job.
2. :class:`MaxResubmissionsJob` — single-reduce max over job totals.
"""

from __future__ import annotations

from repro.datasets.google_trace import EVENT_SUBMIT
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.config import JobConf
from repro.mapreduce.inputformat import KeyValueTextInputFormat
from repro.mapreduce.partitioner import KeyFieldPartitioner
from repro.mapreduce.types import IntWritable, Text, Writable


def parse_event(line: str) -> tuple[int, int, int, int, int] | None:
    """``timestamp,job,task,machine,event`` or None for junk lines."""
    if not line:
        return None
    fields = line.split(",")
    if len(fields) != 5:
        return None
    try:
        return tuple(int(f) for f in fields)  # type: ignore[return-value]
    except ValueError:
        return None


class SubmitEventMapper(Mapper):
    """Emit ``("job|task", 1)`` for every SUBMIT event."""

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        parsed = parse_event(value.value)
        if parsed is None:
            return
        _ts, job_id, task_index, _machine, event = parsed
        if event == EVENT_SUBMIT:
            context.write(f"{job_id}|{task_index}", 1)


class SubmitSumCombiner(Reducer):
    def reduce(self, key: Writable, values, context: Context) -> None:
        context.write(key, IntWritable(sum(v.value for v in values)))


class ResubmissionReducer(Reducer):
    """Per (job, task): resubmissions = submits - 1; sum per job.

    Partitioning on the job-id field keeps all of one job's tasks in
    one reducer, so per-job accumulation in reducer state is safe.
    """

    def setup(self, context: Context) -> None:
        self._per_job: dict[int, int] = {}

    def reduce(self, key: Writable, values, context: Context) -> None:
        job_id = int(key.value.split("|", 1)[0])
        submits = sum(v.value for v in values)
        self._per_job[job_id] = self._per_job.get(job_id, 0) + max(
            0, submits - 1
        )

    def cleanup(self, context: Context) -> None:
        for job_id in sorted(self._per_job):
            context.write(IntWritable(job_id), IntWritable(self._per_job[job_id]))
        self._per_job.clear()


class TraceResubmissionsJob(Job):
    """Resubmission count per cluster job."""

    mapper = SubmitEventMapper
    combiner = SubmitSumCombiner
    reducer = ResubmissionReducer
    partitioner = KeyFieldPartitioner(separator="|", field_index=0)

    def __init__(self, conf: JobConf | None = None, **params):
        conf = conf or JobConf(name="trace-resubmissions")
        super().__init__(conf=conf, **params)


class MaxPassMapper(Mapper):
    """Funnel ``job<TAB>count`` lines to one reducer."""

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        context.write(Text("max"), Text(f"{value.value}:{key.value}"))


class MaxResubmissionReducer(Reducer):
    def reduce(self, key: Writable, values, context: Context) -> None:
        best_count, best_job = -1, None
        for packed in values:
            count_text, job_text = packed.value.split(":", 1)
            count, job_id = int(count_text), int(job_text)
            if count > best_count or (
                count == best_count and (best_job is None or job_id < best_job)
            ):
                best_count, best_job = count, job_id
        if best_job is not None:
            context.write(IntWritable(best_job), IntWritable(best_count))


class MaxResubmissionsJob(Job):
    mapper = MaxPassMapper
    reducer = MaxResubmissionReducer
    input_format = KeyValueTextInputFormat

    def __init__(self, conf: JobConf | None = None, **params):
        conf = conf or JobConf(name="max-resubmissions", num_reduces=1)
        conf.num_reduces = 1
        super().__init__(conf=conf, **params)


def find_max_resubmission_job(
    cluster, input_path: str, work_dir: str, num_reduces: int = 4
) -> tuple[int, int]:
    """Run the two-job chain; return (job_id, resubmissions)."""
    per_job_path = f"{work_dir}/per_job"
    top_path = f"{work_dir}/top"
    job1 = TraceResubmissionsJob(
        conf=JobConf(name="trace-resubmissions", num_reduces=num_reduces)
    )
    cluster.run_job(job1, input_path, per_job_path, require_success=True)
    cluster.run_job(MaxResubmissionsJob(), per_job_path, top_path, require_success=True)
    pairs = cluster.read_output(top_path)
    job_id, count = pairs[0]
    return int(job_id), int(count)
