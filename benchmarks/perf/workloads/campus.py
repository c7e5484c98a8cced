"""``campus_ctrl``: the control plane under a campus of tiny jobs.

Two thousand students each submit one wordcount over a 64-byte input to
one shared course cluster inside a two-hour window.  Inputs are tiny on
purpose: with the default 2 KiB campus input the host time is mostly
the map path — a slow copy of ``wc_serial`` — whereas here it is
simulation dispatch, ``JobTracker.heartbeat/submit_job/task_completed``,
the scheduler indexes, NameNode namespace + journal, and the campus
driver's own stepping and digesting.

Set-up builds the cluster, loads the input and plans the submissions
(:class:`~repro.core.campus.CampusClusterRun`); the timed body runs the
semester hour to completion — together exactly ``run_campus`` for a
one-cluster scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.perf.workloads import Outcome, Workload
from repro.core.campus import CampusClusterRun, CampusScenario, ClusterStats
from repro.util.units import HOUR

NUM_STUDENTS = 2000


@dataclass
class _Run:
    stats: ClusterStats
    #: Engine events processed by the timed body alone (the stats count
    #: the cluster start-up of set-up too).
    sim_events: int


class CampusCtrl(Workload):
    name = "campus_ctrl"
    work_unit = "job"

    def scenario(self) -> CampusScenario:
        return CampusScenario(
            name=self.name,
            num_students=self.scaled(NUM_STUDENTS, floor=40),
            num_clusters=1,
            jobs_per_student=1,
            window=2 * HOUR,
            input_bytes=64,
            block_size=4096,
            seed=self.seed,
        )

    def setup(self) -> CampusClusterRun:
        return CampusClusterRun(self.scenario(), 0)

    def body(self, ctx: CampusClusterRun, span) -> _Run:
        events_start = ctx.sim.events_processed
        stats = ctx.run_to_completion()
        return _Run(stats=stats, sim_events=stats.events_processed - events_start)

    def teardown(self, ctx: CampusClusterRun) -> None:
        ctx.close()

    def check(self, ctx: CampusClusterRun, raw: _Run) -> Outcome:
        stats = raw.stats
        planned = ctx.scenario.jobs_total()
        errors = []
        if stats.jobs_succeeded != planned:
            errors.append(
                f"campus_ctrl: {stats.jobs_succeeded}/{planned} jobs succeeded"
            )
        if stats.missing_blocks or stats.under_replicated:
            errors.append("campus_ctrl: final fsck is not healthy")
        failed = planned - stats.jobs_succeeded
        return Outcome(
            work=planned,
            sim_s=stats.sim_seconds,
            sim_events=raw.sim_events,
            attempted=planned,
            failed=max(failed, 1) if errors else failed,
            errors=errors,
            witness=(stats.digest, stats.sim_seconds, raw.sim_events),
        )

    def input_chunks(self, ctx: CampusClusterRun):
        # The seed reaches the program inside the scenario; what it
        # decides is when each student submits.
        yield repr(ctx.scenario).encode()
