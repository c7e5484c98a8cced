"""A finished job retires from the JobTracker and stops feeding the
cyclic collector.

A campus of students submitting to one shared cluster used to leave one
``RunningJob`` per submission in the JobTracker.  Now a job leaves
``JobTracker.jobs`` when it finishes or fails, and a one-object
``RetiredJob`` record takes its place in a bounded cache; the submitter
keeps its own handle and report.  A finished job is out of every
scheduler index and holds no pending queue, its report is the one it
gave at finish, late task events for it change nothing, and the heap
grows by a bounded number of GC-tracked objects per job, no more per
job at a larger campus.  Counted, never timed.
"""

import gc

import pytest

from repro.core.campus import CampusClusterRun, CampusScenario
from repro.mapreduce import jobtracker as jobtracker_module
from repro.mapreduce.jobtracker import RETIRED_JOBS_KEPT, Assignment
from repro.mapreduce.tasks import TaskType
from repro.mapreduce.tasktracker import _RunningAttempt
from repro.util.units import HOUR

STUDENTS = 40
#: GC-tracked objects one finished campus job may add to the heap: its
#: retired record and the output files' inodes and block records.
#: About 60 when the scheduler's queues and per-group counter dicts
#: outlived the job, about 40 while the JobTracker kept every
#: ``RunningJob``; the bound holds on 3.11 and 3.12 alike.
MAX_TRACKED_PER_JOB = 20


def campus_run(students: int = STUDENTS) -> CampusClusterRun:
    return CampusClusterRun(
        CampusScenario(
            name="heap",
            num_students=students,
            num_clusters=1,
            jobs_per_student=1,
            window=2 * HOUR,
            input_bytes=64,
            block_size=4096,
            seed=23,
        ),
        0,
    )


@pytest.fixture(scope="module")
def finished_run():
    """A run to completion, keeping each job's handle from submission
    and its report from finish."""
    run = campus_run()
    jobtracker = run.mr.jobtracker
    handles = {}
    at_finish = {}

    def on_submit(event):
        job_id = event.data["job_id"]
        handles[job_id] = jobtracker.jobs[job_id]

    def on_finish(event):
        job_id = event.data["job_id"]
        at_finish[job_id] = handles[job_id].report()

    run.sim.bus.subscribe("mr.jobtracker.submitted", on_submit)
    run.sim.bus.subscribe("mr.jobtracker.succeeded", on_finish)
    run.sim.bus.subscribe("mr.jobtracker.failed", on_finish)
    stats = run.run_to_completion()
    yield run, stats, handles, at_finish
    run.close()


def test_every_job_finished(finished_run):
    run, stats, handles, at_finish = finished_run
    assert stats.jobs_succeeded == STUDENTS
    assert sorted(at_finish) == sorted(handles)


def test_finished_jobs_retire(finished_run):
    run, _stats, handles, at_finish = finished_run
    jobtracker = run.mr.jobtracker
    assert jobtracker.jobs == {}
    assert list(jobtracker.retired) == list(at_finish)  # finish order
    for job_id, record in jobtracker.retired.items():
        report = at_finish[job_id]
        job = handles[job_id]
        assert (record.job_id, record.name, record.state) == (
            report.job_id,
            report.name,
            report.state,
        )
        assert record.user == job.conf.user
        assert record.submit_time == report.submit_time
        assert record.finish_time == report.finish_time
        assert record.failure_reason == report.failure_reason
        assert (record.num_maps, record.num_reduces) == (
            report.num_maps,
            report.num_reduces,
        )
        assert (record.succeeded_maps, record.succeeded_reduces) == (
            job.succeeded_maps,
            job.succeeded_reduces,
        )


def test_finished_jobs_leave_the_scheduler(finished_run):
    run, _stats, handles, _at_finish = finished_run
    jobtracker = run.mr.jobtracker
    indexes = (jobtracker._map_schedulable, jobtracker._reduce_schedulable)
    for job in handles.values():
        assert job.finished
        assert all(job.submit_seq not in index for index in indexes)
        assert job.pending_maps is None and job.pending_reduces is None
        assert all(task.output is None for task in job.map_tasks)


def test_report_is_the_one_given_at_finish(finished_run):
    _run, _stats, handles, at_finish = finished_run
    for job_id, job in handles.items():
        now = job.report()
        assert now == at_finish[job_id]
        assert now.render() == at_finish[job_id].render()


def test_late_events_for_a_retired_job_change_nothing(finished_run):
    run, _stats, handles, at_finish = finished_run
    jobtracker = run.mr.jobtracker
    job_id = next(iter(handles))
    record = jobtracker.retired[job_id]
    tracker = next(iter(run.mr.tasktrackers.values()))
    published = []
    for topic in (
        "mr.task.completed",
        "mr.task.failed",
        "mr.jobtracker.map_output_lost",
    ):
        run.sim.bus.subscribe(topic, published.append)
    for task_type in (TaskType.MAP, TaskType.REDUCE):
        late = Assignment(job_id, task_type, 0, f"attempt_{job_id}_late")
        jobtracker.task_completed(tracker, late, None, 1.0)
        jobtracker.task_failed(tracker, late, "late failure")
    jobtracker.map_output_lost(job_id, 0, tracker.name)
    # A shuffle re-fetch that was backing off when the job ended.
    late = Assignment(job_id, TaskType.REDUCE, 0, f"attempt_{job_id}_retry")
    tracker.running[late.attempt_id] = _RunningAttempt(assignment=late)
    tracker._retry_launch(late, 1)
    assert late.attempt_id not in tracker.running
    assert published == []
    assert jobtracker.jobs == {}
    assert jobtracker.retired[job_id] is record
    assert handles[job_id].report() == at_finish[job_id]


def test_retired_cache_is_bounded(monkeypatch):
    kept = 10
    monkeypatch.setattr(jobtracker_module, "RETIRED_JOBS_KEPT", kept)
    run = campus_run()
    finished = []
    run.sim.bus.subscribe(
        "mr.jobtracker.succeeded", lambda event: finished.append(event.data["job_id"])
    )
    try:
        stats = run.run_to_completion()
    finally:
        run.close()
    assert stats.jobs_succeeded == STUDENTS > kept
    assert list(run.mr.jobtracker.retired) == finished[-kept:]
    assert RETIRED_JOBS_KEPT == 1000  # Hadoop 1.x's retired-job cache size


def retained_per_job(students: int) -> float:
    run = campus_run(students)
    try:
        gc.collect()
        before = len(gc.get_objects())
        stats = run.run_to_completion()
        gc.collect()
        grown = len(gc.get_objects()) - before
    finally:
        run.close()
    assert stats.jobs_succeeded == students
    return grown / students


def test_retained_objects_per_job():
    assert retained_per_job(STUDENTS) <= MAX_TRACKED_PER_JOB


def test_retained_objects_per_job_do_not_grow_with_the_campus():
    assert retained_per_job(4 * STUDENTS) <= retained_per_job(STUDENTS)
