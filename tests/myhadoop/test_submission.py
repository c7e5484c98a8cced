"""The batch submission workflow (Section III.D's script)."""

import pytest

from repro.cluster.storage import ParallelFileSystem
from repro.cluster.topology import ClusterTopology
from repro.hdfs.config import HdfsConfig
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import WordCountWithCombinerJob
from repro.mapreduce import jobtracker
from repro.mapreduce.config import JobConf
from repro.mapreduce.streaming import streaming_job
from repro.myhadoop.pbs import PbsScheduler
from repro.myhadoop.provision import MyHadoopConfig, MyHadoopProvisioner
from repro.myhadoop.submission import BatchSubmission
from repro.sim.engine import Simulation


@pytest.fixture
def env():
    sim = Simulation()
    topo = ClusterTopology.regular(num_nodes=16, nodes_per_rack=8)
    scheduler = PbsScheduler(sim, topo)
    provisioner = MyHadoopProvisioner(sim, scheduler, pfs=ParallelFileSystem())
    home = LinuxFileSystem()
    home.write_file("/home/alice/input.txt", "to be or not to be\n" * 20)
    config = MyHadoopConfig(
        user="alice",
        num_nodes=4,
        hdfs=HdfsConfig(block_size=1024, replication=2),
    )
    return sim, scheduler, provisioner, home, config


def make_submission(env, **kwargs):
    sim, scheduler, provisioner, home, config = env
    submission = BatchSubmission(
        scheduler, provisioner, config, home, **kwargs
    )
    submission.add_stage_in("/home/alice/input.txt", "/user/alice/in.txt")
    submission.add_job(
        WordCountWithCombinerJob(),
        "/user/alice/in.txt",
        "/user/alice/out",
        export_local="/home/alice/results.txt",
    )
    return submission


class TestHappyPath:
    def test_full_workflow(self, env):
        sim, scheduler, provisioner, home, config = env
        result = make_submission(env).run()
        assert result.succeeded, result.render_log()
        # The exported answer landed back in the home directory.
        exported = dict(
            line.split("\t")
            for line in home.read_text("/home/alice/results.txt").splitlines()
        )
        assert exported["be"] == "40"
        # The script stopped the cluster: no ghosts anywhere.
        assert provisioner.ghost_daemon_conflicts == 0
        assert scheduler.free_nodes() == 16

    def test_step_log_records_all_commands(self, env):
        result = make_submission(env).run()
        names = [step.name for step in result.steps]
        assert any("start-all.sh" in n for n in names)
        assert any("-put" in n for n in names)
        assert any("fsck" in n for n in names)
        assert any("hadoop jar" in n for n in names)
        assert any("-copyToLocal" in n for n in names)
        assert any("stop-all.sh" in n for n in names)
        assert all(step.ok for step in result.steps)

    def test_job_report_captured(self, env):
        result = make_submission(env).run()
        assert len(result.job_reports) == 1
        assert result.job_reports[0].succeeded

    def test_sleep_turns_batch_interactive(self, env):
        sim = env[0]
        submission = make_submission(env)
        submission.sleep_seconds = 600.0
        t0 = sim.now
        result = submission.run()
        assert result.succeeded
        assert sim.now - t0 >= 600.0
        assert any("sleep" in step.name for step in result.steps)


class TestFailurePaths:
    def test_bad_config_recorded_not_raised(self, env):
        sim, scheduler, provisioner, home, _ = env
        bad_config = MyHadoopConfig(
            user="alice", num_nodes=4, data_dir="/home/alice/hdfs"
        )
        submission = BatchSubmission(scheduler, provisioner, bad_config, home)
        result = submission.run()
        assert not result.succeeded
        assert "scratch" in (result.failure or "")

    def test_failing_job_recorded(self, env, monkeypatch):
        monkeypatch.setattr(jobtracker, "MAX_ATTEMPTS", 2)
        sim, scheduler, provisioner, home, config = env
        submission = BatchSubmission(scheduler, provisioner, config, home)
        submission.add_stage_in("/home/alice/input.txt", "/user/alice/in.txt")

        def bad_map(key, value):
            raise ValueError("boom")

        submission.add_job(
            streaming_job(
                "bad",
                bad_map,
                lambda k, vs: [],
                conf=JobConf(name="bad"),
            ),
            "/user/alice/in.txt",
            "/user/alice/out",
        )
        result = submission.run()
        assert not result.succeeded
        assert result.job_reports and not result.job_reports[0].succeeded
        # Cluster still stopped cleanly in the finally block.
        assert scheduler.free_nodes() == 16

    def test_forgetting_stop_leaves_ghosts(self, env):
        sim, scheduler, provisioner, home, config = env
        submission = make_submission(env)
        submission.stop_cluster_at_end = False
        result = submission.run()
        assert result.succeeded
        # Daemon ports are still bound somewhere on the machine.
        bound = sum(
            len(provisioner.ports.bound_on(f"node{i}")) for i in range(16)
        )
        assert bound > 0

    def test_render_log_readable(self, env):
        result = make_submission(env).run()
        log = result.render_log()
        assert "PBS output for alice" in log
        assert "succeeded" in log
