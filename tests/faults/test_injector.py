"""FaultInjector: hook wiring, name-keyed draws, replayable fault logs."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RateFault
from repro.mapreduce.backend import create_backend
from repro.mapreduce.config import JobConf
from repro.mapreduce.streaming import streaming_job
from tests.conftest import make_mr


def wc_job(name="wc"):
    return streaming_job(
        name=name,
        map_fn=lambda k, v: ((w, 1) for w in v.split()),
        reduce_fn=lambda k, vs: [(k, sum(vs))],
        conf=JobConf(name=name),
    )


class TestLifecycle:
    def test_arm_installs_and_disarm_restores(self):
        mr = make_mr()
        plan = FaultPlan(seed=1).task_exception_rate(0.5)
        injector = FaultInjector(plan, mr)
        default_site = mr.sim.faults
        with injector:
            assert mr.sim.faults is injector
        assert mr.sim.faults is not injector
        assert type(mr.sim.faults) is type(default_site)

    def test_arm_is_idempotent(self):
        mr = make_mr()
        injector = FaultInjector(FaultPlan(), mr)
        assert injector.arm() is injector.arm()
        injector.disarm()

    def test_worker_crash_hook_is_armed_on_an_auto_backend(self):
        """``auto`` reports ``parallel=False`` until its first
        ``decide``; arming used to test that flag and skip it."""
        with make_mr(backend=create_backend("auto", 2)) as mr:
            plan = FaultPlan(seed=1).worker_crash_rate(0.5)
            injector = FaultInjector(plan, mr).arm()
            assert mr.backend._chaos is not None
            injector.disarm()
            assert mr.backend._chaos is None

    def test_disarm_cancels_pending_scheduled_faults(self):
        mr = make_mr()
        plan = FaultPlan().crash_datanode(at=50.0, node="node0")
        injector = FaultInjector(plan, mr).arm()
        injector.disarm()
        mr.sim.run_for(200.0)
        assert mr.hdfs.datanodes["node0"].is_serving
        assert injector.injected == []


class TestNameKeyedDraws:
    def test_draws_do_not_depend_on_call_order(self):
        mr = make_mr()
        rate = RateFault(kind="task.exception", rate=0.5)
        a = FaultInjector(FaultPlan(seed=3), mr)
        b = FaultInjector(FaultPlan(seed=3), mr)
        keys = [("attempt_1",), ("attempt_2",), ("attempt_3", 0)]
        forward = [a._fires(rate, *k) for k in keys]
        backward = [b._fires(rate, *k) for k in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_different_seeds_draw_differently_somewhere(self):
        mr = make_mr()
        rate = RateFault(kind="task.exception", rate=0.5)
        a = FaultInjector(FaultPlan(seed=1), mr)
        b = FaultInjector(FaultPlan(seed=2), mr)
        keys = [(f"attempt_{i}",) for i in range(32)]
        assert [a._fires(rate, *k) for k in keys] != [
            b._fires(rate, *k) for k in keys
        ]


class TestScheduledFaults:
    def test_datanode_crash_and_restart(self):
        mr = make_mr()
        plan = FaultPlan().crash_datanode(
            at=5.0, node="node1", restart_after=20.0
        )
        with FaultInjector(plan, mr) as injector:
            mr.sim.run_for(6.0)
            assert not mr.hdfs.datanodes["node1"].is_serving
            mr.sim.run_for(30.0)
            assert mr.hdfs.datanodes["node1"].is_serving
            kinds = [kind for _, kind, _ in injector.injected]
        assert kinds == ["datanode.crash", "datanode.restart"]

    def test_slow_disk_applies_and_heals(self):
        mr = make_mr()
        plan = FaultPlan().slow_disk(at=1.0, node="node0", factor=6.0, duration=10.0)
        with FaultInjector(plan, mr) as injector:
            mr.sim.run_for(2.0)
            assert mr.hdfs.datanodes["node0"].disk_slow_factor == 6.0
            mr.sim.run_for(15.0)
            assert mr.hdfs.datanodes["node0"].disk_slow_factor == 1.0
            kinds = [kind for _, kind, _ in injector.injected]
        assert kinds == ["disk.slow", "disk.healed"]

    def test_slow_disk_slows_every_reader_alike(self):
        """``hadoop fs -cat``, a positional read and a map task's block
        read share one reader, so a failing spindle costs each the same
        factor; before PR 20 only the task paid (x1, x1, x6)."""
        mr = make_mr(num_workers=1, block_size=65536, replication=1)
        mr.client().put_bytes("/f", b"s" * 100_000)
        client = mr.hdfs.client(node="node0", charge_time=False)

        def costs():
            return [
                client.read_bytes("/f").elapsed,
                client.open("/f").pread(10, 50_000).elapsed,
                mr.fetcher.read_block("/f", 0, "node0").elapsed,
            ]

        healthy = costs()
        plan = FaultPlan().slow_disk(at=1.0, node="node0", factor=6.0, duration=10.0)
        with FaultInjector(plan, mr):
            mr.sim.run_for(2.0)
            slowed = costs()
            mr.sim.run_for(15.0)
            assert costs() == healthy
        # One worker: every read is node-local, so elapsed is all disk.
        assert slowed == pytest.approx([6.0 * cost for cost in healthy], rel=1e-12)

    def test_corruption_storm_spares_last_replica(self):
        mr = make_mr()
        mr.client().put_text("/data.txt", "payload " * 2000)
        plan = FaultPlan(seed=2).corrupt_blocks(at=1.0, count=100)
        with FaultInjector(plan, mr) as injector:
            mr.sim.run_for(2.0)
            corrupted = [
                data for _, kind, data in injector.injected
                if kind == "block.corrupted"
            ]
            assert corrupted, "storm should damage something"
            # Every block must keep at least one verifiable replica.
            for block_id in {d["block_id"] for d in corrupted}:
                assert injector._healthy_replicas(block_id) >= 1

    def test_namenode_crash_and_scheduled_recovery(self):
        mr = make_mr()
        mr.client().put_text("/data.txt", "payload " * 500)
        digest = mr.hdfs.namenode.namespace_digest()
        plan = FaultPlan().crash_namenode(at=5.0, recover_after=40.0)
        with FaultInjector(plan, mr) as injector:
            mr.sim.run_for(6.0)
            assert mr.hdfs.namenode.down
            mr.sim.run_for(60.0)
            assert not mr.hdfs.namenode.down
            assert mr.hdfs.namenode.namespace_digest() == digest
            kinds = [kind for _, kind, _ in injector.injected]
        assert kinds == ["namenode.crash", "namenode.recover"]

    def test_checkpoint_roll_truncates_the_edit_log(self):
        mr = make_mr()
        mr.client().put_text("/data.txt", "payload " * 500)
        plan = FaultPlan().roll_checkpoint(at=1.0)
        with FaultInjector(plan, mr) as injector:
            mr.sim.run_for(2.0)
            kinds = [kind for _, kind, _ in injector.injected]
            assert kinds == ["checkpoint.roll"]
            (_, _, data) = injector.injected[0]
            assert data["image_inodes"] > 0
        assert mr.hdfs.namenode.journal.edits_since_checkpoint == 0

    def test_torn_tail_then_recovery_drops_only_the_torn_record(self):
        mr = make_mr()
        mr.client().put_text("/data.txt", "payload " * 500)
        edits_before = mr.hdfs.namenode.journal.edits_logged
        plan = (
            FaultPlan()
            .tear_journal_tail(at=1.0)
            .crash_namenode(at=2.0)
            .recover_namenode(at=3.0)
        )
        with FaultInjector(plan, mr) as injector:
            mr.sim.run_for(10.0)
            kinds = [kind for _, kind, _ in injector.injected]
            assert kinds == [
                "journal.torn_tail",
                "namenode.crash",
                "namenode.recover",
            ]
        recovery = mr.hdfs.namenode.journal.last_recovery
        assert recovery.torn_bytes > 0
        assert recovery.replayed_edits == edits_before - 1

    def test_namenode_crash_rate_draws_by_heartbeat_count(self):
        mr = make_mr()
        plan = FaultPlan(seed=5).namenode_crash_rate(0.02, recover_after=30.0)
        with FaultInjector(plan, mr) as injector:
            mr.sim.run_for(4 * 3600.0)
            kinds = [kind for _, kind, _ in injector.injected]
        assert "namenode.crash" in kinds and "namenode.recover" in kinds
        assert not mr.hdfs.namenode.down  # every crash recovered

    def test_trigger_fires_on_nth_event_only_once(self):
        mr = make_mr()
        plan = FaultPlan().on_event(
            "unit.test", "datanode.crash", count=2, target="node2"
        )
        with FaultInjector(plan, mr) as injector:
            mr.sim.bus.publish("unit.test", mr.sim.now, tracker="node0")
            mr.sim.run_for(1.0)
            assert mr.hdfs.datanodes["node2"].is_serving  # count not reached
            mr.sim.bus.publish("unit.test", mr.sim.now, tracker="node0")
            mr.sim.bus.publish("unit.test", mr.sim.now, tracker="node0")
            mr.sim.run_for(1.0)
            assert not mr.hdfs.datanodes["node2"].is_serving
            crashes = [k for _, k, _ in injector.injected if k == "datanode.crash"]
        assert crashes == ["datanode.crash"]  # third event did not re-fire

    def test_trigger_target_from_event_data(self):
        mr = make_mr()
        plan = FaultPlan().on_event(
            "unit.test", "tracker.crash", target_from="tracker"
        )
        with FaultInjector(plan, mr):
            mr.sim.bus.publish("unit.test", mr.sim.now, tracker="node3")
            mr.sim.run_for(1.0)
            assert not mr.tasktrackers["node3"].is_serving


class TestReplayIdentity:
    def _fault_log(self, seed: int) -> list[str]:
        mr = make_mr()
        mr.client().put_text("/in.txt", "alpha beta gamma " * 400)
        plan = (
            FaultPlan(seed=seed)
            .shuffle_failure_rate(0.3)
            .task_exception_rate(0.15)
            .straggler_rate(0.2, factor=2.0)
        )
        with FaultInjector(plan, mr) as injector:
            report = mr.run_job(wc_job(), "/in.txt", "/out", timeout=48 * 3600)
            assert report.succeeded
            return injector.fault_log()

    def test_same_seed_replays_identical_fault_log(self):
        first = self._fault_log(seed=7)
        assert first, "rates this high should inject something"
        assert self._fault_log(seed=7) == first

    def test_different_seed_diverges(self):
        assert self._fault_log(seed=7) != self._fault_log(seed=8)
