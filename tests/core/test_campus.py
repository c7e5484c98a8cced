"""Campus-scale scenario: many course clusters, FIFO scheduling."""

import pytest

from repro.core.campus import CampusClusterRun, CampusScenario
from repro.util.units import MINUTE
from tests.core.campus_harness import run_campus


def small_scenario(**overrides):
    defaults = dict(
        name="mini-campus",
        num_students=40,
        num_clusters=2,
        jobs_per_student=1,
        window=10 * MINUTE,
        seed=9,
    )
    defaults.update(overrides)
    return CampusScenario(**defaults)


class TestCampusRun:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campus(small_scenario())

    def test_every_job_succeeds(self, report):
        assert report.jobs_submitted == 40
        assert report.jobs_succeeded == 40

    def test_students_dealt_across_clusters(self, report):
        assert len(report.clusters) == 2
        assert all(c.jobs_submitted == 20 for c in report.clusters)

    def test_all_tenants_served(self, report):
        completed = report.per_user_completed()
        assert set(completed) == set(small_scenario().users)
        assert all(done > 0 for done in completed.values())

    def test_replay_is_bit_identical(self, report):
        again = run_campus(small_scenario())
        assert [c.digest for c in again.clusters] == [
            c.digest for c in report.clusters
        ]


class TestSharedWheelQueuePressure:
    def test_pending_is_submissions_plus_constant(self):
        # Hundreds of students polling must ride one wheel: the event
        # queue holds the not-yet-fired submissions plus O(1) ticks.
        scenario = small_scenario(
            num_students=400, num_clusters=1, window=60 * MINUTE
        )
        run = CampusClusterRun(scenario, 0)
        try:
            run.sim.run_until(run.sim.now + 5 * MINUTE)
            outstanding = run._planned - run.stats.jobs_submitted
            assert run.sim.pending() - outstanding < 100
        finally:
            run.close()


class TestEventsPerJobStaysFlat:
    def test_events_per_job_within_3x_from_200_to_800_jobs(self):
        # The O(active) witness: heartbeats, liveness checks and
        # scheduling must not scale with everything ever submitted.
        per_job = []
        for students in (200, 800):
            report = run_campus(
                small_scenario(
                    num_students=students,
                    num_clusters=1,
                    window=120 * MINUTE,
                    seed=17,
                )
            )
            assert report.jobs_succeeded == report.jobs_submitted == students
            per_job.append(report.events_per_job)
        assert max(per_job) <= 3.0 * min(per_job), per_job


class TestSteppingProgress:
    def test_next_step_target_always_advances(self):
        # Setup leaves the epoch off-grid (e.g. 15.0005625); when the
        # clock later sits exactly on epoch + k*step, the float
        # subtraction (now - epoch) can round just below k*step and the
        # naive next-grid formula returns now itself — run_to_completion
        # would then spin forever.  The target must be strictly ahead
        # and stay on the epoch grid for every reachable grid point.
        scenario = small_scenario(num_students=30, num_clusters=1, seed=0)
        run = CampusClusterRun(scenario, 0)
        try:
            step = max(scenario.poll_interval, scenario.daemon_interval)
            epoch = run._epoch
            for k in range(500):
                grid_point = epoch + k * step
                run.sim.run_until(grid_point)
                target = run._next_step_target(step)
                assert target > run.sim.now
                assert target == epoch + (k + 1) * step
        finally:
            run.close()


class TestCampusChaos:
    def test_chaos_replays_identically(self):
        scenario = small_scenario(
            num_students=30, num_clusters=1, chaos_interval=3 * MINUTE
        )
        first = run_campus(scenario)
        second = run_campus(scenario)
        assert first.clusters[0].chaos_crashes > 0
        assert first.clusters[0].digest == second.clusters[0].digest


class TestFinalize:
    def test_one_fsck_per_finalize(self, monkeypatch):
        # finalize hands its health report to the digest: one namespace
        # walk, and a digest over a fresh fsck agrees.
        from repro.core import campus

        walks = []

        def counted_fsck(namenode):
            walks.append(namenode)
            return real_fsck(namenode)

        real_fsck = campus.fsck
        run = CampusClusterRun(small_scenario(num_students=10, num_clusters=1), 0)
        try:
            monkeypatch.setattr(campus, "fsck", counted_fsck)
            stats = run.run_to_completion()
            assert len(walks) == 1
            assert stats.digest == run.digest(campus.fsck(run.mr.hdfs.namenode))
            assert len(walks) == 2
        finally:
            run.close()
