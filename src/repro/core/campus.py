"""Campus-scale simulation: many course sections, one busy semester hour.

Where :mod:`repro.core.classroom` replays the paper's single 39-student
section in mechanistic detail (daemon crashes, restarts, integrity
scans), this module scales the *operational* question up: what does the
teaching infrastructure look like when an entire campus — thousands of
students across several shared course clusters — hits a deadline at
once?  It is the workload the O(active) engine work exists for:

- every poller and daemon rides a shared timer wheel, so 10k students
  polling at one instant is one engine event, not 10k;
- the JobTracker's indexed FIFO scheduler keeps each heartbeat O(jobs
  that can actually be scheduled), not O(every job ever submitted);
- the whole run snapshots and restores bit-identically mid-chaos
  (:meth:`CampusClusterRun.digest` is the equality witness).

The model is deliberately lean: each student submits a fixed number of
small wordcount jobs at random times in a submission window; jobs carry
a per-course ``user``, and the statistics are kept per course.  A chaos
agent can crash/restart workers on a fixed cadence to keep recovery
machinery in the loop.  One :class:`CampusClusterRun` is one course
cluster; clusters are independent simulations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.hdfs.config import HdfsConfig
from repro.hdfs.fsck import FsckReport, fsck
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.streaming import streaming_job
from repro.util.errors import ReproError
from repro.util.rng import RngStream
from repro.util.units import HOUR, MINUTE

#: The campus's course sections (the ``user`` of their students' jobs),
#: dealt to students round-robin.
DEFAULT_USERS = ("cs1060", "cs4060", "cs6060", "research")
WORKERS_PER_CLUSTER = 8
#: Heartbeat/poll cadence.  Campus runs use a coarser tick than
#: Hadoop's 3s chatter: the mechanisms are preserved, the event count
#: is ~5x smaller.
DAEMON_INTERVAL = 15.0
POLL_INTERVAL = 1 * MINUTE
#: Hard ceiling on simulated time after the window closes.
DRAIN_HORIZON = 24 * HOUR


@dataclass
class CampusScenario:
    """Knobs for one campus-scale run."""

    name: str = "campus"
    #: Total students across the campus.
    num_students: int = 1_000
    #: Shared course clusters; students are dealt round-robin.
    num_clusters: int = 2
    #: Jobs each student submits (resubmission binges included).
    jobs_per_student: int = 1
    #: Submission window: jobs land uniformly at random inside it.
    window: float = 2 * HOUR
    input_bytes: int = 2 * 1024
    block_size: int = 4 * 1024
    #: Chaos agent: crash one worker every ``chaos_interval`` and
    #: restart it ``chaos_downtime`` later (0 disables).
    chaos_interval: float = 0.0
    chaos_downtime: float = 2 * MINUTE
    seed: int = 0

    def jobs_total(self) -> int:
        return self.num_students * self.jobs_per_student

    def students_of_cluster(self, cluster_index: int) -> int:
        base, extra = divmod(self.num_students, self.num_clusters)
        return base + (1 if cluster_index < extra else 0)


@dataclass
class ClusterStats:
    """What one course cluster did during the run."""

    cluster: int
    jobs_submitted: int = 0
    jobs_succeeded: int = 0
    jobs_failed: int = 0
    submit_errors: int = 0
    sim_seconds: float = 0.0
    events_processed: int = 0
    chaos_crashes: int = 0
    missing_blocks: int = 0
    under_replicated: int = 0
    per_user_completed: dict[str, int] = field(default_factory=dict)
    per_user_wait_sum: dict[str, float] = field(default_factory=dict)
    digest: str = ""


def _campus_job(user: str, student_id: int, attempt: int) -> object:
    """One student submission: a small wordcount under a course account."""
    conf = JobConf(
        name=f"{user}-s{student_id}-a{attempt}",
        user=user,
        num_reduces=1,
    )
    return streaming_job(
        name=conf.name,
        map_fn=lambda k, v: ((w, 1) for w in v.split()),
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        conf=conf,
    )


class CampusClusterRun:
    """One course cluster's semester hour, snapshot/restore friendly.

    All mutable run state hangs off this object, so
    ``sim.snapshot(run)`` captures the full closure of the run and
    :meth:`digest` computed on the restored copy matches the original
    bit-for-bit.
    """

    def __init__(self, scenario: CampusScenario, cluster_index: int):
        self.scenario = scenario
        self.cluster_index = cluster_index
        rng = RngStream(seed=scenario.seed).child("campus", cluster_index)
        self._rng = rng
        self.mr = MapReduceCluster(
            num_workers=WORKERS_PER_CLUSTER,
            hdfs_config=HdfsConfig(
                block_size=scenario.block_size,
                replication=min(3, WORKERS_PER_CLUSTER),
                heartbeat_interval=DAEMON_INTERVAL,
                replication_check_interval=DAEMON_INTERVAL,
            ),
            mr_config=MapReduceConfig(tasktracker_heartbeat=DAEMON_INTERVAL),
            seed=scenario.seed + cluster_index,
        )
        self.sim = self.mr.sim
        self.stats = ClusterStats(cluster=cluster_index)
        # Shared corpus: a deterministic line of words sized to the knob
        # (a Zipf text generator would dominate the wall-clock at this
        # scale without changing any scheduling behaviour).
        words = ("campus scale hadoop deadline crunch " * 64).split()
        text = " ".join(words)
        while len(text) < scenario.input_bytes:
            text += "\n" + text
        self.mr.client().put_text("/campus/input.txt", text[: scenario.input_bytes])

        self._epoch = self.sim.now
        self._watching: list[tuple[object, str]] = []
        self._planned = 0
        self._schedule_submissions(rng)
        self.sim.wheel(POLL_INTERVAL).subscribe(self._poll)
        if scenario.chaos_interval > 0:
            self.sim.wheel(scenario.chaos_interval).subscribe(self._chaos_tick)

    # ------------------------------------------------------------------
    def _schedule_submissions(self, rng: RngStream) -> None:
        scenario = self.scenario
        for local_id in range(scenario.students_of_cluster(self.cluster_index)):
            srng = rng.child("student", local_id)
            user = DEFAULT_USERS[local_id % len(DEFAULT_USERS)]
            for attempt in range(scenario.jobs_per_student):
                at = self._epoch + srng.child("at", attempt).uniform(
                    0.0, scenario.window
                )
                self.sim.schedule_at(at, self._submit, user, local_id, attempt)
                self._planned += 1

    def _submit(self, user: str, student_id: int, attempt: int) -> None:
        job = _campus_job(user, student_id, attempt)
        output = f"/campus/out/s{student_id}/a{attempt}"
        try:
            running = self.mr.submit(job, "/campus/input.txt", output)
        except ReproError:
            # Submission rejected (e.g. safemode during chaos): the
            # student walks away — campus stats count it as an error,
            # not a retry loop.
            self.stats.submit_errors += 1
            return
        self.stats.jobs_submitted += 1
        self._watching.append((running, user))

    def _poll(self) -> None:
        if not self._watching:
            return
        still = []
        for running, user in self._watching:
            if not running.finished:
                still.append((running, user))
                continue
            if running.succeeded:
                self.stats.jobs_succeeded += 1
                done = self.stats.per_user_completed
                done[user] = done.get(user, 0) + 1
                wait = running.finish_time - running.submit_time
                sums = self.stats.per_user_wait_sum
                sums[user] = sums.get(user, 0.0) + wait
            else:
                self.stats.jobs_failed += 1
        self._watching = still

    def _chaos_tick(self) -> None:
        live = self.mr.live_trackers()
        if len(live) <= 1:
            return
        victim = self._rng.child(
            "chaos", self.stats.chaos_crashes
        ).choice(live)
        self.stats.chaos_crashes += 1
        self.mr.crash_worker(victim)
        self.sim.schedule(
            self.scenario.chaos_downtime, self.mr.restart_worker, victim
        )

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        finished = (
            self.stats.jobs_submitted + self.stats.submit_errors
            >= self._planned
        )
        return finished and not self._watching

    def _next_step_target(self, step: float) -> float:
        """First epoch-grid point strictly after ``sim.now``.

        Float subtraction can round ``(now - epoch)`` just below a grid
        multiple when now sits exactly on the grid; the naive
        ``epoch + (k + 1) * step`` then equals now and stepping stalls
        forever, so bump one more step in that case.
        """
        steps_done = int((self.sim.now - self._epoch) // step)
        target = self._epoch + (steps_done + 1) * step
        if target <= self.sim.now:
            target += step
        return target

    def run_to_completion(self) -> ClusterStats:
        """Advance the sim until every planned job has resolved.

        Steps land on epoch-aligned boundaries, so a run paused at an
        arbitrary instant (snapshot, inspection) and resumed finishes
        on exactly the same simulated clock as one that never paused —
        the digest's bit-identity depends on it.
        """
        deadline = self._epoch + self.scenario.window + DRAIN_HORIZON
        step = max(POLL_INTERVAL, DAEMON_INTERVAL)
        while not self.done and self.sim.now < deadline:
            target = self._next_step_target(step)
            self.sim.run_until(min(target, deadline))
        return self.finalize()

    def finalize(self) -> ClusterStats:
        stats = self.stats
        stats.sim_seconds = self.sim.now - self._epoch
        stats.events_processed = self.sim.events_processed
        health = fsck(self.mr.hdfs.namenode)
        stats.missing_blocks = health.missing_blocks
        stats.under_replicated = health.under_replicated
        stats.digest = self.digest(health)
        return stats

    def digest(self, health: FsckReport) -> str:
        """A bit-identity witness over everything the run observed.

        Two runs with equal digests made the same scheduling decisions,
        processed the same number of engine events, finished the same
        jobs for the same users at the same simulated times, and left
        HDFS in the same health state.  ``health`` is an ``fsck`` of the
        cluster as it stands now.
        """
        stats = self.stats
        payload = repr(
            (
                round(self.sim.now, 9),
                self.sim.events_processed,
                self.sim.pending(),
                stats.jobs_submitted,
                stats.jobs_succeeded,
                stats.jobs_failed,
                stats.submit_errors,
                stats.chaos_crashes,
                sorted(stats.per_user_completed.items()),
                sorted(
                    (u, round(w, 6))
                    for u, w in stats.per_user_wait_sum.items()
                ),
                health.total_blocks,
                health.missing_blocks,
                health.under_replicated,
                health.corrupt_replicas,
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def close(self) -> None:
        self.mr.close()

