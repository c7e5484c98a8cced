"""A finished job stops feeding the cyclic collector.

A campus of students submitting to one shared cluster leaves one
``RunningJob`` per submission behind for its report.  What it keeps
must be the report's inputs and nothing of the scheduler: a finished
job is out of every scheduler index and holds no pending queue, its
report is the one it gave at finish, and the heap grows by a bounded
number of GC-tracked objects per job.  Counted, never timed.
"""

import gc

import pytest

from repro.core.campus import CampusClusterRun, CampusScenario
from repro.util.units import HOUR

STUDENTS = 40
#: GC-tracked objects one finished campus job may add to the heap
#: (its RunningJob, tasks, attempts, counters, job object, and the
#: output files' inodes and block records).  About 60 when the
#: scheduler's queues and per-group counter dicts outlived the job;
#: the bound holds on 3.11 and 3.12 alike.
MAX_TRACKED_PER_JOB = 45


def campus_run() -> CampusClusterRun:
    return CampusClusterRun(
        CampusScenario(
            name="heap",
            num_students=STUDENTS,
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
    """A run to completion, with each job's report taken at finish."""
    run = campus_run()
    jobtracker = run.mr.jobtracker
    at_finish = {}

    def on_finish(event):
        job_id = event.data["job_id"]
        at_finish[job_id] = jobtracker.jobs[job_id].report()

    run.sim.bus.subscribe("mr.jobtracker.succeeded", on_finish)
    run.sim.bus.subscribe("mr.jobtracker.failed", on_finish)
    stats = run.run_to_completion()
    yield run, stats, at_finish
    run.close()


def test_every_job_finished(finished_run):
    run, stats, at_finish = finished_run
    assert stats.jobs_succeeded == STUDENTS
    assert sorted(at_finish) == sorted(run.mr.jobtracker.jobs)


def test_finished_jobs_leave_the_scheduler(finished_run):
    run, _stats, _at_finish = finished_run
    jobtracker = run.mr.jobtracker
    indexes = (
        jobtracker._active,
        jobtracker._map_schedulable,
        jobtracker._reduce_schedulable,
    )
    for job in jobtracker.jobs.values():
        assert job.finished
        assert all(job.submit_seq not in index for index in indexes)
        assert job.pending_maps is None and job.pending_reduces is None
        assert all(task.output is None for task in job.map_tasks)


def test_report_is_the_one_given_at_finish(finished_run):
    run, _stats, at_finish = finished_run
    for job_id, job in run.mr.jobtracker.jobs.items():
        now = job.report()
        assert now == at_finish[job_id]
        assert now.render() == at_finish[job_id].render()


def test_retained_objects_per_job():
    run = campus_run()
    try:
        gc.collect()
        before = len(gc.get_objects())
        stats = run.run_to_completion()
        gc.collect()
        grown = len(gc.get_objects()) - before
    finally:
        run.close()
    assert stats.jobs_succeeded == STUDENTS
    assert grown / STUDENTS <= MAX_TRACKED_PER_JOB
