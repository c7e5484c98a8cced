"""Classroom simulation: students + deadline + shared cluster = cascade.

Section II.A, executable: "A large number of students waited until the
last day before starting on the assignment.  As a result, the Hadoop
cluster began to slow down significantly.  In addition, some of job
submissions contained run time errors that created memory leaks on the
Java heap memory and consequently crashed the task tracker and data
node daemons.  When the Hadoop cluster was restarted, it typically took
at least fifteen minutes for all the Data Nodes to check for data
integrity and report back to the Name Node.  However, as soon as the
cluster was up again, students continued to resubmit their jobs, hence
creating additional under-replicated data blocks. ... By the end of the
semester, only about one third of the students ... were able to
complete the second assignment."

Two scenarios share one student-behaviour model:

- ``platform="dedicated"`` — Version 1: everyone on one shared cluster;
  crashes and congestion are everyone's problem;
- ``platform="myhadoop"`` — Versions 2-4: per-student dynamic clusters;
  a crash costs only its owner a retry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.platforms import build_dedicated_platform, build_myhadoop_platform
from repro.datasets.zipf_text import ZipfTextGenerator
from repro.hdfs.config import HdfsConfig
from repro.hdfs.fsck import fsck
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.streaming import streaming_job
from repro.myhadoop.provision import MyHadoopConfig
from repro.myhadoop.submission import BatchSubmission
from repro.util.errors import ReproError
from repro.util.rng import RngStream
from repro.util.units import HOUR, MINUTE


class StudentState(enum.Enum):
    WAITING = "waiting"  # hasn't started yet
    WORKING = "working"  # has a job in flight (or retrying)
    DONE = "done"
    OUT_OF_TIME = "out_of_time"


@dataclass
class Student:
    student_id: int
    start_time: float
    buggy: bool
    state: StudentState = StudentState.WAITING
    attempts: int = 0
    finished_at: float | None = None


@dataclass
class ClassroomScenario:
    """Knobs for one classroom run."""

    name: str = "version-1-deadline"
    platform: str = "dedicated"  # "dedicated" | "myhadoop"
    num_students: int = 39
    window: float = 48 * HOUR  # time from scenario start to deadline
    #: Mean head-start before the deadline (exponential): most students
    #: start within a day of the due date.
    mean_head_start: float = 10 * HOUR
    min_head_start: float = 30 * MINUTE
    buggy_probability: float = 0.4
    fix_probability: float = 0.6  # chance a resubmission has the bug fixed
    resubmit_delay: float = 10 * MINUTE
    poll_interval: float = 2 * MINUTE
    heap_leak_probability: float = 0.35  # per attempt, for buggy jobs
    #: Shared dataset size (dedicated) / per-student staged size (myhadoop).
    input_bytes: int = 160 * 1024
    block_size: int = 8 * 1024
    #: Instructor watchdog (dedicated only).
    instructor_check_interval: float = 15 * MINUTE
    instructor_reaction_delay: float = 30 * MINUTE
    dead_fraction_for_restart: float = 0.5
    #: myHadoop: probability a student logs out without stop-all.sh.
    abandon_probability: float = 0.15
    nodes_per_student: int = 4
    #: Daemon heartbeat/sweep interval.  Multi-day simulations don't
    #: need Hadoop's 3-second chatter to preserve the mechanisms under
    #: study, and 15s keeps the event count reasonable.
    daemon_interval: float = 15.0
    #: Pre-existing data on each DataNode's disk (the pre-loaded Google
    #: trace replicas): what the startup integrity scan must re-verify,
    #: making every restart cost the paper's ~15 minutes.
    preloaded_bytes_per_node: int = 70 * 1024**3
    #: Integrity-scan rate during DataNode startup (seek-heavy verify).
    startup_scan_bw: float = 75 * 1024**2
    seed: int = 0


@dataclass
class ClassroomReport:
    """What the instructors saw by the deadline."""

    scenario: str
    platform: str
    num_students: int
    completed: int = 0
    daemon_crashes: int = 0
    cluster_restarts: int = 0
    restart_downtime: float = 0.0
    max_under_replicated: int = 0
    missing_blocks_at_deadline: int = 0
    total_job_submissions: int = 0
    ghost_daemon_conflicts: int = 0
    timeline: list[tuple[float, str]] = field(default_factory=list)

    @property
    def completion_fraction(self) -> float:
        return self.completed / self.num_students if self.num_students else 0.0

    def describe(self) -> str:
        lines = [
            f"Classroom scenario {self.scenario!r} on {self.platform}:",
            f"  completed: {self.completed}/{self.num_students} "
            f"({self.completion_fraction:.0%})",
            f"  job submissions: {self.total_job_submissions}",
            f"  daemon crashes: {self.daemon_crashes}",
            f"  cluster restarts: {self.cluster_restarts} "
            f"(downtime {self.restart_downtime / 60:.0f} min)",
            f"  max under-replicated blocks: {self.max_under_replicated}",
            f"  missing blocks at deadline: {self.missing_blocks_at_deadline}",
            f"  ghost-daemon conflicts: {self.ghost_daemon_conflicts}",
        ]
        return "\n".join(lines)


def _student_job(scenario: ClassroomScenario, student: Student, attempt: int):
    """The job a student submits (wordcount-shaped, possibly leaky)."""
    leak = scenario.heap_leak_probability if student.buggy else 0.01
    conf = JobConf(
        name=f"s{student.student_id:02d}-a{attempt}",
        num_reduces=1,
        heap_leak_probability=leak,
        crash_daemons_on_heap_leak=True,
        max_attempts=4,
    )
    return streaming_job(
        name=conf.name,
        map_fn=lambda k, v: ((w, 1) for w in v.split()),
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        conf=conf,
    )


def _draw_students(scenario: ClassroomScenario, rng: RngStream) -> list[Student]:
    students = []
    for i in range(scenario.num_students):
        head_start = max(
            scenario.min_head_start,
            rng.child("start", i).exponential(scenario.mean_head_start),
        )
        start = max(0.0, scenario.window - head_start)
        students.append(
            Student(
                student_id=i + 1,
                start_time=start,
                buggy=rng.child("buggy", i).bernoulli(scenario.buggy_probability),
            )
        )
    return students


# --------------------------------------------------------------------------
# Dedicated shared cluster (Version 1)


def _run_dedicated(scenario: ClassroomScenario) -> ClassroomReport:
    rng = RngStream(seed=scenario.seed).child("classroom", scenario.name)
    interval = scenario.daemon_interval
    hdfs_config = HdfsConfig(
        block_size=scenario.block_size,
        replication=3,
        heartbeat_interval=interval,
        replication_check_interval=interval,
        startup_scan_bw=scenario.startup_scan_bw,
    )
    mr_config = MapReduceConfig(tasktracker_heartbeat=interval)
    platform = build_dedicated_platform(
        seed=scenario.seed, hdfs_config=hdfs_config, mr_config=mr_config
    )
    mr = platform.mr
    sim = mr.sim
    report = ClassroomReport(
        scenario=scenario.name,
        platform="dedicated",
        num_students=scenario.num_students,
    )

    text = ZipfTextGenerator(rng.child("corpus")).text_of_bytes(
        scenario.input_bytes
    )
    mr.client().put_text("/class/input.txt", text)
    # The pre-loaded Google trace replicas: restart scans must re-verify
    # all of it, which is where the 15-minute recoveries come from.
    for datanode in mr.hdfs.datanodes.values():
        datanode.ballast_bytes = scenario.preloaded_bytes_per_node

    sim.bus.subscribe(
        "mr.tasktracker.crashed",
        lambda e: report.timeline.append((e.time, "tasktracker crashed"))
        or setattr(report, "daemon_crashes", report.daemon_crashes + 1),
    )

    students = _draw_students(scenario, rng)
    epoch = sim.now  # cluster-setup time precedes the working window
    deadline = epoch + scenario.window
    state = {"restart_pending": False}
    # All students poll their jobs off one shared timer wheel: one
    # engine event per poll tick for the whole class instead of one
    # self-rescheduling event chain per student — at campus scale
    # (10k students) that is the difference between O(active-jobs) and
    # O(students) queue pressure per interval.
    poll_wheel = sim.wheel(scenario.poll_interval)

    def submit(student: Student) -> None:
        if sim.now >= deadline or student.state == StudentState.DONE:
            return
        student.attempts += 1
        report.total_job_submissions += 1
        job = _student_job(scenario, student, student.attempts)
        output = f"/out/s{student.student_id:02d}/a{student.attempts}"
        try:
            running = mr.submit(job, "/class/input.txt", output)
        except ReproError as exc:
            report.timeline.append(
                (sim.now, f"student {student.student_id} submit failed: {exc}")
            )
            sim.schedule(scenario.resubmit_delay, submit, student)
            return
        student.state = StudentState.WORKING
        unsubscribe: list = []
        unsubscribe.append(
            poll_wheel.subscribe(poll, student, running, unsubscribe)
        )

    def poll(student: Student, running, unsubscribe: list) -> None:
        if student.state == StudentState.DONE:
            unsubscribe[0]()
            return
        if not running.finished:
            if sim.now >= deadline:
                unsubscribe[0]()
            return
        unsubscribe[0]()
        if running.succeeded:
            student.state = StudentState.DONE
            student.finished_at = sim.now
            report.timeline.append(
                (sim.now, f"student {student.student_id} finished")
            )
            return
        # Failed: maybe the fix works this time.
        if student.buggy and rng.child(
            "fix", student.student_id, student.attempts
        ).bernoulli(scenario.fix_probability):
            student.buggy = False
        sim.schedule(scenario.resubmit_delay, submit, student)

    for student in students:
        sim.schedule_at(epoch + student.start_time, submit, student)

    # The instructors' watchdog: restart the cluster when most of it is
    # dead — after a detection/reaction delay, and students immediately
    # pile back on.
    def instructor_check() -> None:
        # Below target, missing blocks included, as in the NameNode's own
        # re-replication queue (fsck lists the two apart).
        health = fsck(mr.hdfs.namenode)
        report.max_under_replicated = max(
            report.max_under_replicated,
            health.under_replicated + health.missing_blocks,
        )
        live = sum(1 for t in mr.tasktrackers.values() if t.is_serving)
        if (
            live <= len(mr.tasktrackers) * (1 - scenario.dead_fraction_for_restart)
            and not state["restart_pending"]
        ):
            state["restart_pending"] = True
            report.timeline.append((sim.now, "instructors notified"))
            sim.schedule(scenario.instructor_reaction_delay, do_restart)

    def do_restart() -> None:
        report.cluster_restarts += 1
        for tracker in mr.tasktrackers.values():
            if tracker.is_serving:
                tracker.stop()
        scan_time = mr.hdfs.restart_cluster()
        report.restart_downtime += scan_time
        report.timeline.append(
            (sim.now, f"cluster restart (scan {scan_time / 60:.1f} min)")
        )
        # Trackers come back once HDFS has rescanned and left safe mode.
        sim.schedule(scan_time, bring_back_trackers)

    def bring_back_trackers() -> None:
        for tracker in mr.tasktrackers.values():
            if not tracker.is_serving:
                tracker.start(mr.jobtracker)
        state["restart_pending"] = False
        report.timeline.append((sim.now, "trackers restarted"))

    sim.wheel(scenario.instructor_check_interval).subscribe(instructor_check)
    sim.run_until(deadline)

    report.completed = sum(1 for s in students if s.state == StudentState.DONE)
    for student in students:
        if student.state != StudentState.DONE:
            student.state = StudentState.OUT_OF_TIME
    report.missing_blocks_at_deadline = len(mr.hdfs.namenode.missing_blocks())
    return report


# --------------------------------------------------------------------------
# Per-student myHadoop clusters (Versions 2-4)


def _run_myhadoop(scenario: ClassroomScenario) -> ClassroomReport:
    """Sequential replay of per-student myHadoop sessions.

    ``BatchSubmission.run`` drives the shared simulation itself, so
    students are replayed in start-time order rather than as interleaved
    events; isolation between their clusters is what the scenario is
    demonstrating, and the ghost-daemon handoffs between consecutive
    sessions are preserved.
    """
    rng = RngStream(seed=scenario.seed).child("classroom", scenario.name)
    env = build_myhadoop_platform(
        seed=scenario.seed,
        mr_config=MapReduceConfig(tasktracker_heartbeat=scenario.daemon_interval),
    )
    sim = env.sim
    report = ClassroomReport(
        scenario=scenario.name,
        platform="myhadoop",
        num_students=scenario.num_students,
    )
    sim.bus.subscribe(
        "mr.tasktracker.crashed",
        lambda e: setattr(report, "daemon_crashes", report.daemon_crashes + 1),
    )

    students = sorted(_draw_students(scenario, rng), key=lambda s: s.start_time)
    deadline = sim.now + scenario.window
    corpus = ZipfTextGenerator(rng.child("corpus")).text_of_bytes(
        scenario.input_bytes
    )

    def one_attempt(student: Student) -> bool:
        """Run one complete myHadoop session; True when done."""
        student.attempts += 1
        report.total_job_submissions += 1
        user = f"student{student.student_id:02d}"
        home = env.home_for(user)
        home.write_file(f"/home/{user}/input.txt", corpus)
        hdfs_config = HdfsConfig(
            block_size=scenario.block_size,
            replication=2,
            heartbeat_interval=scenario.daemon_interval,
            replication_check_interval=scenario.daemon_interval,
        )
        config = MyHadoopConfig(
            user=user, num_nodes=scenario.nodes_per_student, hdfs=hdfs_config
        )
        submission = BatchSubmission(
            env.scheduler, env.provisioner, config, home, walltime=4 * HOUR
        )
        submission.add_stage_in(
            f"/home/{user}/input.txt", f"/user/{user}/input.txt"
        )
        job = _student_job(scenario, student, student.attempts)
        submission.add_job(
            job,
            f"/user/{user}/input.txt",
            f"/user/{user}/out{student.attempts}",
            export_local=f"/home/{user}/results{student.attempts}.txt",
        )
        submission.stop_cluster_at_end = not rng.child(
            "abandon", student.student_id, student.attempts
        ).bernoulli(scenario.abandon_probability)
        result = submission.run()
        if not submission.stop_cluster_at_end:
            report.timeline.append((sim.now, f"{user} left ghost daemons behind"))
        if result.succeeded:
            student.state = StudentState.DONE
            student.finished_at = sim.now
            report.timeline.append((sim.now, f"{user} finished"))
            return True
        report.timeline.append(
            (sim.now, f"{user} attempt failed: {result.failure}")
        )
        if student.buggy and rng.child(
            "fix", student.student_id, student.attempts
        ).bernoulli(scenario.fix_probability):
            student.buggy = False
        return False

    for student in students:
        if student.start_time > sim.now:
            sim.run_until(student.start_time)
        while sim.now < deadline and student.state != StudentState.DONE:
            if one_attempt(student):
                break
            sim.run_for(min(scenario.resubmit_delay, max(0.0, deadline - sim.now)))
        if student.state != StudentState.DONE:
            student.state = StudentState.OUT_OF_TIME

    report.completed = sum(1 for s in students if s.state == StudentState.DONE)
    report.ghost_daemon_conflicts = env.provisioner.ghost_daemon_conflicts
    return report


def run_classroom(scenario: ClassroomScenario) -> ClassroomReport:
    """Run one classroom scenario to its deadline."""
    if scenario.platform == "dedicated":
        return _run_dedicated(scenario)
    if scenario.platform == "myhadoop":
        return _run_myhadoop(scenario)
    raise ValueError(f"unknown platform {scenario.platform!r}")
