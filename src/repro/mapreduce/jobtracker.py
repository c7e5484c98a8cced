"""The JobTracker: submission, locality-aware scheduling, recovery.

Figure 2's caption, in executable form: "JobTracker assigns work and
facilitates map/reduce on TaskTrackers based on block location
information from NameNode."  Scheduling follows Hadoop 1.x:

- TaskTrackers pull work via heartbeats; the JobTracker never pushes.
- Map tasks prefer node-local splits, then rack-local, then any —
  producing the DATA_LOCAL/RACK_LOCAL/OFF_RACK counters students read.
- Failed attempts are resubmitted up to ``MAX_ATTEMPTS``; four strikes
  fails the job (and trackers with three failures for a job are
  blacklisted for it).
- Lost TaskTrackers get their running attempts *and completed map
  outputs* rescheduled, because map output lives on the dead node.
- Optional speculative execution launches a second attempt of a straggler
  and keeps whichever finishes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster.topology import ClusterTopology
from repro.hdfs.namenode import NameNode
from repro.mapreduce.api import Job
from repro.mapreduce.backend import ExecutionBackend
from repro.mapreduce.blockio import BlockFetcher
from repro.mapreduce.config import MapReduceConfig
from repro.mapreduce.counters import C
from repro.mapreduce.job import JobState, RunningJob
from repro.mapreduce.outputformat import data_files
from repro.mapreduce.runtime import job_input_format, job_pooled
from repro.mapreduce.tasks import (
    AttemptState,
    MapTask,
    ReduceTask,
    TaskAttempt,
    TaskState,
    TaskType,
)
from repro.mapreduce.tasktracker import TaskTracker
from repro.sim.engine import LivenessTable, Simulation
from repro.util.errors import JobSubmissionError, OutputExistsError
from repro.util.rng import RngStream


@dataclass(slots=True)
class Assignment:
    """One unit of work handed to a TaskTracker in a heartbeat response."""

    job_id: str
    task_type: TaskType
    task_index: int  # map index or reduce partition
    attempt_id: str
    speculative: bool = False


@dataclass(frozen=True, slots=True)
class RetiredJob:
    """What the JobTracker keeps of a finished or failed job: atomic
    fields only, so a retired job costs the collector one object.  The
    full job and its report stay with whoever holds the handle."""

    job_id: str
    name: str
    user: str
    state: str
    submit_time: float
    finish_time: float
    succeeded_maps: int
    num_maps: int
    succeeded_reduces: int
    num_reduces: int
    failure_reason: str | None


#: Retired-job records kept, oldest evicted first (Hadoop 1.x's
#: ``mapred.job.tracker.retiredjobs.cache.size``).
RETIRED_JOBS_KEPT = 1000
#: Attempts of one task before the job fails (mapred.map.max.attempts).
MAX_ATTEMPTS = 4
#: Failures by one tracker on one job before it is blacklisted for it.
BLACKLIST_THRESHOLD = 3
#: A running attempt this many times slower than the average completed
#: map is a straggler eligible for speculation.
STRAGGLER_FACTOR = 2.0


class JobTracker:
    """The MapReduce master."""

    def __init__(
        self,
        sim: Simulation,
        topology: ClusterTopology,
        namenode: NameNode,
        fetcher: BlockFetcher,
        mr_config: MapReduceConfig,
        output_client_factory: Callable[[str | None], object],
        rng: RngStream | None = None,
        backend: "ExecutionBackend | None" = None,
    ):
        self.sim = sim
        self.topology = topology
        self.namenode = namenode
        self.fetcher = fetcher
        self.mr_config = mr_config
        self.output_client_factory = output_client_factory
        #: The cluster's execution backend; asked once per job, at
        #: submission, whether the job runs on its pool.
        self.backend = backend if backend is not None else ExecutionBackend("serial")
        self.rng = rng or RngStream(seed=0).child("jobtracker")
        self.trackers: dict[str, TaskTracker] = {}
        #: The RUNNING jobs, in submission order; a job leaves when it
        #: finishes or fails, and its record joins ``retired``.
        self.jobs: dict[str, RunningJob] = {}
        self.retired: dict[str, RetiredJob] = {}
        self._seq = 0
        #: Indexes keyed by submit_seq so iteration in sorted-key order
        #: IS submission (FIFO) order.  They hold only jobs that might
        #: yield an assignment of that kind — what the per-heartbeat
        #: scan visits.
        self._map_schedulable: dict[int, RunningJob] = {}
        self._reduce_schedulable: dict[int, RunningJob] = {}
        #: Which registered trackers are alive (the heartbeat table).
        self.liveness = LivenessTable(self.mr_config.tracker_timeout)
        self.sim.wheel(self.mr_config.tasktracker_heartbeat).subscribe(
            self._check_trackers
        )

    # ------------------------------------------------------------------
    # registration & liveness
    def register_tracker(self, tracker: TaskTracker) -> None:
        self.trackers[tracker.name] = tracker
        self.liveness.beat(tracker.name, self.sim.now)
        self._reconcile_tracker(tracker)

    def _reconcile_tracker(self, tracker: TaskTracker) -> None:
        """Reconcile bookkeeping with a freshly (re)registered tracker.

        A tracker that crashed and restarted *before* the liveness
        timeout declared it lost comes back with a clean slate: any
        attempt the JobTracker still records as running there died with
        the old process and would otherwise hang RUNNING forever.  Kill
        (without penalty) and requeue them.
        """
        for job in self.jobs.values():
            for task in [*job.map_tasks, *job.reduce_tasks]:
                for attempt in task.running_attempts:
                    if (
                        attempt.tracker == tracker.name
                        and attempt.attempt_id not in tracker.running
                    ):
                        self._kill_and_requeue(
                            job, task, attempt, "TaskTracker restarted"
                        )
                        job.log(
                            self.sim.now,
                            f"{attempt.attempt_id} lost in restart of "
                            f"{tracker.name}; re-queued",
                        )

    def _end_attempt(
        self, attempt: TaskAttempt, state: AttemptState, failure: str | None = None
    ) -> None:
        """An attempt is over: record how and when."""
        attempt.state = state
        attempt.finish_time = self.sim.now
        attempt.failure = failure

    def _kill_and_requeue(
        self, job: RunningJob, task, attempt: TaskAttempt, failure: str
    ) -> None:
        """An attempt died with its tracker: kill it without penalty
        and put the task back in the queue."""
        self._end_attempt(attempt, AttemptState.KILLED, failure)
        self._requeue(job, task)

    def _check_trackers(self) -> None:
        for name in self.liveness.expired(self.sim.now):
            self._tracker_lost(name)

    def _tracker_lost(self, name: str) -> None:
        self.sim.bus.publish("mr.jobtracker.tracker_lost", self.sim.now, tracker=name)
        for job in self.jobs.values():
            for task in [*job.map_tasks, *job.reduce_tasks]:
                for attempt in task.running_attempts:
                    if attempt.tracker == name:
                        self._kill_and_requeue(
                            job, task, attempt, "Lost TaskTracker"
                        )
            # Completed map output on that node is gone; re-run those maps
            # unless every reduce has already pulled its data.
            if not job.reduces_done:
                for task in job.map_tasks:
                    if (
                        task.state == TaskState.SUCCEEDED
                        and task.completed_on == name
                    ):
                        self._map_output_gone(job, task, name, "tracker_lost")

    def _map_output_gone(
        self, job: RunningJob, task: MapTask, node: str, reason: str
    ) -> None:
        """A finished map's output can no longer be fetched from
        ``node``: the map goes back to PENDING and runs again."""
        task.output = None
        task.completed_on = None
        job.succeeded_maps -= 1
        self._requeue(job, task)
        why = (
            f"lost with tracker {node}"
            if reason == "tracker_lost"
            else f"unfetchable from {node}"
        )
        job.log(self.sim.now, f"{task.task_id} output {why}; re-queued")
        self.sim.bus.publish(
            "mr.jobtracker.map_output_lost",
            self.sim.now,
            job_id=job.job_id,
            task_id=task.task_id,
            node=node,
            reason=reason,
        )

    def _requeue(self, job: RunningJob, task) -> None:
        """Queue ``task`` again; ``job`` is RUNNING, as every job in
        ``jobs`` is, so it goes back in the scheduler index."""
        if task.state == TaskState.FAILED:
            return
        task.state = TaskState.PENDING
        if isinstance(task, MapTask):
            job.pending_maps.add(task.index)
            self._map_schedulable[job.submit_seq] = job
        else:
            if task.partition not in job.pending_reduces:
                job.pending_reduces.append(task.partition)
            self._reduce_schedulable[job.submit_seq] = job

    def _retire(self, job: RunningJob) -> None:
        """A finished or failed job leaves ``jobs`` and every scheduler
        index and drops its pending queues: nothing will be launched
        for it again.  A ``RetiredJob`` record takes its place."""
        del self.jobs[job.job_id]
        self._map_schedulable.pop(job.submit_seq, None)
        self._reduce_schedulable.pop(job.submit_seq, None)
        job.pending_maps = job.pending_reduces = None
        self.retired[job.job_id] = RetiredJob(
            job_id=job.job_id,
            name=job.name,
            user=job.conf.user,
            state=job.state.value,
            submit_time=job.submit_time,
            finish_time=job.finish_time,
            succeeded_maps=job.succeeded_maps,
            num_maps=len(job.map_tasks),
            succeeded_reduces=job.succeeded_reduces,
            num_reduces=len(job.reduce_tasks),
            failure_reason=job.failure_reason,
        )
        if len(self.retired) > RETIRED_JOBS_KEPT:
            del self.retired[next(iter(self.retired))]

    # ------------------------------------------------------------------
    # submission
    def submit_job(
        self, job: Job, input_paths: list[str] | str, output_path: str
    ) -> RunningJob:
        if isinstance(input_paths, str):
            input_paths = [input_paths]
        if self.namenode.exists(output_path):
            raise OutputExistsError(
                f"Output directory {output_path} already exists"
            )
        files = self._expand_inputs(input_paths)
        if not files:
            raise JobSubmissionError(
                f"no input files under {input_paths}"
            )
        splits = []
        input_format = job_input_format(job)
        for path in files:
            lengths, locations = self.fetcher.block_layout(path)
            splits.extend(input_format.splits_for_file(path, lengths, locations))
        self._seq += 1
        job_id = f"job_{self._seq:04d}"
        running = RunningJob(
            job=job,
            job_id=job_id,
            input_paths=input_paths,
            output_path=output_path,
            splits=splits,
            submit_time=self.sim.now,
            submit_seq=self._seq,
            pooled=job_pooled(self.backend, job, splits),
        )
        running.build_map_index(self.topology)
        if running.pooled and self.mr_config.shuffle_transport == "shm":
            # Per-job shuffle scope: map workers publish under its
            # token; released on the job finish/fail paths (and by
            # backend shutdown / atexit as backstops).
            from repro.mapreduce import shm

            running.shm_scope = shm.ShmScope()
        self.jobs[job_id] = running
        if running.pending_maps:
            self._map_schedulable[running.submit_seq] = running
        if running.pending_reduces:
            self._reduce_schedulable[running.submit_seq] = running
        client = self.output_client_factory(None)
        client.mkdirs(output_path)
        running.log(self.sim.now, f"submitted with {len(splits)} splits")
        self.sim.bus.publish(
            "mr.jobtracker.submitted",
            self.sim.now,
            job_id=job_id,
            name=job.name,
            maps=len(splits),
            reduces=job.conf.num_reduces,
        )
        return running

    def _expand_inputs(self, paths: list[str]) -> list[str]:
        files: list[str] = []
        for path in paths:
            status = self.namenode.status(path)  # raises if missing
            if status.is_dir:
                files.extend(s.path for s in data_files(self.namenode, path))
            else:
                files.append(status.path)
        return files

    def running_job(self, job_id: str) -> RunningJob:
        return self.jobs[job_id]

    # ------------------------------------------------------------------
    # scheduling (heartbeat-driven)
    def heartbeat(self, tracker: TaskTracker) -> list[Assignment]:
        """Pull-model scheduling: fill the tracker's free slots.

        All trackers heartbeat at the same simulated instants (multiples
        of ``tasktracker_heartbeat``), so a whole wave of assignments is
        launched at one simulated time — the window a pooled
        :class:`~repro.mapreduce.backend.ExecutionBackend` exploits to
        run the wave's real work concurrently before the engine's join
        barrier lets the clock move on.
        """
        if tracker.name not in self.trackers:
            self.register_tracker(tracker)
        self.liveness.beat(tracker.name, self.sim.now)
        assignments: list[Assignment] = []
        for _ in range(tracker.free_map_slots):
            assignment = self._assign_map(tracker)
            if assignment is None:
                break
            assignments.append(assignment)
        for _ in range(tracker.free_reduce_slots):
            assignment = self._assign_reduce(tracker)
            if assignment is None:
                break
            assignments.append(assignment)
        return assignments

    def _assign_map(self, tracker: TaskTracker) -> Assignment | None:
        # Jobs in submission (FIFO) order; the loop may deindex them.
        for job in [
            self._map_schedulable[seq] for seq in sorted(self._map_schedulable)
        ]:
            if not job.pending_maps and (
                not job.conf.speculative_execution or job.maps_done
            ):
                # Nothing left to hand out for any tracker: deindex.
                # (The historical ``best_index is None`` fallback this
                # replaces was dead — a non-empty pending queue always
                # yields a rank <= 2 pick.)
                self._map_schedulable.pop(job.submit_seq, None)
                continue
            if tracker.name in job.blacklist:
                continue
            picked = job.pending_maps.pick_for(tracker.name)
            if picked is not None:
                index, locality = picked
                return self._launch(job, job.map_tasks[index], tracker, locality)
            speculated = self._pick_straggler(job, tracker)
            if speculated is not None:
                task = job.map_tasks[speculated]
                return self._launch(
                    job, task, tracker,
                    self._map_locality(task, tracker.name),
                    speculative=True,
                )
        return None

    def _map_locality(self, task: MapTask, node: str) -> str:
        return self.topology.locality_of(node, list(task.split.locations))

    def _pick_straggler(self, job: RunningJob, tracker: TaskTracker) -> int | None:
        if not job.conf.speculative_execution or job.pending_maps:
            return None
        completed = [
            t.duration for t in job.map_tasks if t.duration is not None
        ]
        if not completed:
            return None
        mean = sum(completed) / len(completed)
        for task in job.map_tasks:
            if task.state != TaskState.RUNNING:
                continue
            running = task.running_attempts
            if len(running) != 1:
                continue
            attempt = running[0]
            if attempt.tracker == tracker.name:
                continue
            if self.sim.now - attempt.start_time > STRAGGLER_FACTOR * mean:
                return task.index
        return None

    def _launch(
        self,
        job: RunningJob,
        task: MapTask | ReduceTask,
        tracker: TaskTracker,
        locality: str | None = None,  # maps only
        speculative: bool = False,
    ) -> Assignment:
        """Start one attempt of ``task`` on ``tracker``: all the
        bookkeeping a launch owes the job and its counters."""
        if isinstance(task, MapTask):
            task_type, index = TaskType.MAP, task.index
            launched = C.TOTAL_LAUNCHED_MAPS
        else:
            task_type, index = TaskType.REDUCE, task.partition
            launched = C.TOTAL_LAUNCHED_REDUCES
        attempt = TaskAttempt(
            attempt_id=task.next_attempt_id(),
            task_id=task.task_id,
            task_type=task_type,
            tracker=tracker.name,
            start_time=self.sim.now,
            locality=locality,
            speculative=speculative,
        )
        task.attempts.append(attempt)
        task.state = TaskState.RUNNING
        job.counters.increment(launched)
        if locality is not None:
            job.counters.increment(
                {
                    "node_local": C.DATA_LOCAL_MAPS,
                    "rack_local": C.RACK_LOCAL_MAPS,
                    "off_rack": C.OFF_RACK_MAPS,
                }[locality]
            )
        if speculative:
            job.log(self.sim.now, f"speculative attempt of {task.task_id}")
        return Assignment(
            job_id=job.job_id,
            task_type=task_type,
            task_index=index,
            attempt_id=attempt.attempt_id,
            speculative=speculative,
        )

    def _assign_reduce(self, tracker: TaskTracker) -> Assignment | None:
        for job in [
            self._reduce_schedulable[seq] for seq in sorted(self._reduce_schedulable)
        ]:
            if not job.pending_reduces:
                self._reduce_schedulable.pop(job.submit_seq, None)
                continue
            if tracker.name in job.blacklist:
                continue
            if not job.maps_done:
                continue
            partition = job.pending_reduces.popleft()
            if not job.pending_reduces:
                self._reduce_schedulable.pop(job.submit_seq, None)
            return self._launch(job, job.reduce_tasks[partition], tracker)
        return None

    # ------------------------------------------------------------------
    # completion & failure
    def task_completed(
        self, tracker: TaskTracker, assignment: Assignment, execution, duration: float
    ) -> None:
        job = self.jobs.get(assignment.job_id)
        if job is None:  # retired: a late event
            return
        task = self._task_of(job, assignment)
        attempt = self._attempt_of(task, assignment.attempt_id)
        lost_race = task.state == TaskState.SUCCEEDED  # a twin already won
        if attempt is not None:
            self._end_attempt(
                attempt,
                AttemptState.KILLED if lost_race else AttemptState.SUCCEEDED,
            )
        if lost_race:
            job.counters.increment(C.KILLED_SPECULATIVE)
            return
        task.state = TaskState.SUCCEEDED
        if assignment.task_type == TaskType.MAP:
            job.succeeded_maps += 1
        else:
            job.succeeded_reduces += 1
        task.duration = duration
        job.record_task_counters(task.task_id, execution.counters)
        self.sim.bus.publish(
            "mr.task.completed",
            self.sim.now,
            job_id=job.job_id,
            task_id=task.task_id,
            attempt_id=assignment.attempt_id,
            tracker=tracker.name,
        )
        if assignment.task_type == TaskType.MAP:
            task.output = execution.output
            task.completed_on = tracker.name
            self._kill_twins(job, task, assignment.attempt_id)
            if job.maps_done:
                job.log(self.sim.now, "all maps complete; reduces eligible")
        else:
            task.output_records = execution.counters.get(C.REDUCE_OUTPUT_RECORDS)
        if job.maps_done and job.reduces_done:
            self._finish_job(job)

    def _kill_twins(self, job: RunningJob, task, winner_attempt_id: str) -> None:
        for attempt in task.running_attempts:
            if attempt.attempt_id == winner_attempt_id:
                continue
            self._end_attempt(attempt, AttemptState.KILLED)
            if attempt.tracker in self.trackers:
                self.trackers[attempt.tracker].kill_attempt(attempt.attempt_id)
            job.counters.increment(C.KILLED_SPECULATIVE)

    def tracker_is_serving(self, name: str) -> bool:
        return name in self.liveness.alive and self.trackers[name].is_serving

    def map_output_lost(
        self, job_id: str, task_index: int, node: str
    ) -> None:
        """A reduce failed to fetch this map's output: re-run the map."""
        job = self.jobs.get(job_id)
        if job is None:
            return
        task = job.map_tasks[task_index]
        if task.state != TaskState.SUCCEEDED or task.completed_on != node:
            return
        self._map_output_gone(job, task, node, "fetch_failed")

    def task_failed(
        self,
        tracker: TaskTracker,
        assignment: Assignment,
        reason: str,
        counts_against: bool = True,
    ) -> None:
        job = self.jobs.get(assignment.job_id)
        if job is None:  # retired: a late event
            return
        task = self._task_of(job, assignment)
        attempt = self._attempt_of(task, assignment.attempt_id)
        if attempt is not None:
            self._end_attempt(
                attempt,
                AttemptState.FAILED if counts_against else AttemptState.KILLED,
                reason,
            )
        self.sim.bus.publish(
            "mr.task.failed",
            self.sim.now,
            job_id=job.job_id,
            task_id=task.task_id,
            attempt_id=assignment.attempt_id,
            tracker=tracker.name,
            reason=reason,
            counts_against=counts_against,
        )
        if not counts_against:
            job.log(
                self.sim.now,
                f"{task.task_id} attempt killed on {tracker.name}: {reason}",
            )
            if task.state != TaskState.SUCCEEDED:
                self._requeue(job, task)
            return
        task.failures += 1
        counter = (
            C.FAILED_MAPS
            if assignment.task_type == TaskType.MAP
            else C.FAILED_REDUCES
        )
        job.counters.increment(counter)
        job.log(
            self.sim.now,
            f"{task.task_id} attempt failed on {tracker.name}: {reason}",
        )
        # Blacklist chronic failers for this job — but never more than a
        # quarter of the live cluster (Hadoop's cap), or a run of bad
        # luck could leave a job with no tracker willing to run it.
        job.tracker_failures[tracker.name] = (
            job.tracker_failures.get(tracker.name, 0) + 1
        )
        if job.tracker_failures[tracker.name] >= BLACKLIST_THRESHOLD:
            live = sum(map(self.tracker_is_serving, self.liveness.alive))
            if len(job.blacklist) < max(1, live // 4):
                job.blacklist.add(tracker.name)
        if task.failures >= MAX_ATTEMPTS:
            self._fail_job(
                job,
                f"{task.task_id} failed {task.failures} times; last: {reason}",
            )
            return
        if task.state != TaskState.SUCCEEDED:
            self._requeue(job, task)

    def _task_of(self, job: RunningJob, assignment: Assignment):
        if assignment.task_type == TaskType.MAP:
            return job.map_tasks[assignment.task_index]
        return job.reduce_tasks[assignment.task_index]

    @staticmethod
    def _attempt_of(task, attempt_id: str) -> TaskAttempt | None:
        for attempt in task.attempts:
            if attempt.attempt_id == attempt_id:
                return attempt
        return None

    # ------------------------------------------------------------------
    def _finish_job(self, job: RunningJob) -> None:
        job.state = JobState.SUCCEEDED
        job.finish_time = self.sim.now
        self._retire(job)
        # All reduces have consumed their input: release the job's
        # shuffle data now rather than at cluster teardown.
        job.release_shuffle()
        client = self.output_client_factory(None)
        client.put_bytes(f"{job.output_path}/_SUCCESS", b"", overwrite=True)
        job.log(self.sim.now, "job succeeded")
        self.sim.bus.publish(
            "mr.jobtracker.succeeded", self.sim.now, job_id=job.job_id
        )

    def _fail_job(self, job: RunningJob, reason: str) -> None:
        job.state = JobState.FAILED
        job.finish_time = self.sim.now
        job.failure_reason = reason
        self._retire(job)
        # mrlint MRE101 audit: dict-view iteration with no early exit —
        # every matching attempt on every tracker is killed, so the
        # visit order (registration order, which changes after tracker
        # restarts) cannot affect the outcome.
        for tracker in self.trackers.values():
            for attempt_id, running in list(tracker.running.items()):
                if running.assignment.job_id == job.job_id:
                    tracker.kill_attempt(attempt_id)
        for task in [*job.map_tasks, *job.reduce_tasks]:
            for attempt in task.running_attempts:
                self._end_attempt(attempt, AttemptState.KILLED)
        job.log(self.sim.now, f"job failed: {reason}")
        # After every attempt is killed nothing will read the job's
        # shuffle data again; release it.
        job.release_shuffle()
        self.sim.bus.publish(
            "mr.jobtracker.failed",
            self.sim.now,
            job_id=job.job_id,
            reason=reason,
        )
