"""FaultPlan: the declarative layer — validation, describe, reseeding."""

import pytest

from repro.faults.plan import FaultPlan, ScheduledFault
from repro.util.errors import ConfigError


class TestBuilders:
    def test_chaining_accumulates_faults(self):
        plan = (
            FaultPlan(seed=9)
            .crash_datanode(at=5.0, node="node1", restart_after=30.0)
            .slow_disk(at=2.0, node="node0", factor=6.0)
            .corrupt_blocks(at=1.0, count=3)
            .restart_cluster(at=100.0)
            .shuffle_failure_rate(0.2)
            .straggler_rate(0.1, factor=2.0)
            .on_event("mr.task.completed", "tracker.crash", target_from="tracker")
        )
        assert len(plan.scheduled) == 4
        assert len(plan.rates) == 2
        assert len(plan.triggers) == 1
        assert not plan.is_empty()
        assert FaultPlan().is_empty()

    def test_params_frozen_and_readable(self):
        plan = FaultPlan().crash_datanode(at=1.0, node="n", restart_after=9.0)
        fault = plan.scheduled[0]
        assert fault.param("restart_after") == 9.0
        assert fault.param("missing", "default") == "default"

    def test_namenode_builders(self):
        plan = (
            FaultPlan(seed=2)
            .crash_namenode(at=5.0, recover_after=45.0)
            .roll_checkpoint(at=3.0)
            .tear_journal_tail(at=4.0)
            .recover_namenode(at=60.0)
        )
        assert len(plan.scheduled) == 4
        kinds = {fault.kind for fault in plan.scheduled}
        assert kinds == {
            "namenode.crash",
            "namenode.recover",
            "checkpoint.roll",
            "journal.torn_tail",
        }
        crash = next(f for f in plan.scheduled if f.kind == "namenode.crash")
        assert crash.param("recover_after") == 45.0
        assert not plan.rates

    def test_namenode_crash_as_trigger(self):
        plan = FaultPlan().on_event(
            "mr.task.completed", "namenode.crash", count=2, recover_after=30.0
        )
        (trigger,) = plan.triggers
        assert trigger.kind == "namenode.crash"
        assert dict(trigger.params)["recover_after"] == 30.0

    def test_describe_mentions_every_fault(self):
        plan = (
            FaultPlan(seed=4)
            .crash_tracker(at=3.0, node="node2")
            .task_exception_rate(0.5)
            .on_event("mr.task.completed", "cluster.restart", count=2)
        )
        text = plan.describe()
        assert "seed=4" in text
        assert "tracker.crash" in text and "target=node2" in text
        assert "task.exception rate=0.5" in text
        assert "on mr.task.completed#2 cluster.restart" in text
        assert "(no faults)" in FaultPlan().describe()


class TestValidation:
    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan()._add_scheduled(0.0, "meteor.strike", "node0")
        with pytest.raises(ConfigError):
            FaultPlan()._add_rate("meteor.strike", 0.5)
        with pytest.raises(ConfigError):
            FaultPlan().on_event("mr.task.completed", "meteor.strike")
        # Daemon crashes are scheduled or triggered, never drawn per heartbeat.
        for kind in ("datanode.crash", "tracker.crash"):
            with pytest.raises(ConfigError):
                FaultPlan()._add_rate(kind, 0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan().crash_datanode(at=-1.0, node="node0")

    def test_target_required_for_node_faults(self):
        with pytest.raises(ConfigError):
            FaultPlan()._add_scheduled(0.0, "datanode.crash", None)
        with pytest.raises(ConfigError):
            FaultPlan().on_event("mr.task.completed", "tracker.crash")

    def test_rate_bounds_and_duplicates(self):
        with pytest.raises(ConfigError):
            FaultPlan().shuffle_failure_rate(1.5)
        with pytest.raises(ConfigError):
            FaultPlan().task_exception_rate(-0.1)
        plan = FaultPlan().shuffle_failure_rate(0.2)
        with pytest.raises(ConfigError):
            plan.shuffle_failure_rate(0.3)

    def test_factor_and_count_floors(self):
        with pytest.raises(ConfigError):
            FaultPlan().slow_disk(at=0.0, node="n", factor=0.5)
        with pytest.raises(ConfigError):
            FaultPlan().straggler_rate(0.1, factor=0.9)
        with pytest.raises(ConfigError):
            FaultPlan().corrupt_blocks(at=0.0, count=0)
        with pytest.raises(ConfigError):
            FaultPlan().on_event("mr.task.completed", "cluster.restart", count=0)


class TestReseeding:
    def test_with_seed_copies_independently(self):
        plan = FaultPlan(seed=1).crash_datanode(at=1.0, node="node0")
        reseeded = plan.with_seed(2)
        assert reseeded.seed == 2
        assert reseeded.scheduled == plan.scheduled
        plan.crash_tracker(at=2.0, node="node1")
        assert len(reseeded.scheduled) == 1  # not aliased

    def test_scheduled_fault_is_hashable_value(self):
        a = ScheduledFault(at=1.0, kind="cluster.restart")
        b = ScheduledFault(at=1.0, kind="cluster.restart")
        assert a == b and hash(a) == hash(b)
