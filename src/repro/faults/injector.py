"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector is the cluster-facing half of the chaos layer: it installs
itself as the simulation's :class:`~repro.sim.engine.FaultSite`, wires
the backend's worker-crash hook, schedules the plan's timed
faults, and subscribes its event triggers.

The determinism contract
========================

Every probabilistic draw comes from ``RngStream(plan.seed)`` *named by
the opportunity* — ``(kind, attempt_id)``, ``(kind, "namenode",
heartbeat_number)``, ``(kind, work_index)`` — never by call order.  Two
consequences:

- serial and pooled backends see identical faults (the hooks are called
  from the simulation thread in deterministic order either way, but the
  name-keying means even a *different* call order would not change any
  draw);
- replaying the same plan seed on the same cluster seed reproduces the
  exact fault/recovery event log, which the scenario suite asserts.

Every injected fault is published on the simulation bus under
``faults.*`` and appended to :attr:`FaultInjector.injected`, so a
timeline of "what chaos did" is always available.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.faults.plan import FaultPlan, RateFault, ScheduledFault, TriggerFault
from repro.sim.engine import FaultSite, ScheduledEvent
from repro.util.errors import ConfigError
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.cluster import MapReduceCluster


class FaultInjector(FaultSite):
    """Executes one :class:`FaultPlan` against one cluster."""

    def __init__(self, plan: FaultPlan, cluster: "MapReduceCluster"):
        self.plan = plan
        self.cluster = cluster
        self.sim = cluster.sim
        self.rng = RngStream(seed=plan.seed).child("faults")
        self._rates: dict[str, RateFault] = {}
        for rate_fault in plan.rates:
            self._rates[rate_fault.kind] = rate_fault
        self._armed = False
        self._pending: list[ScheduledEvent] = []
        self._unsubscribes: list[Any] = []
        #: (time, kind, data) for every fault this injector fired.
        self.injected: list[tuple[float, str, dict[str, Any]]] = []

    # -- lifecycle -------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Install hooks, schedule timed faults, subscribe triggers."""
        if self._armed:
            return self
        self._armed = True
        self.sim.install_faults(self)
        # The hook is consulted only when a pooled result lands, so a
        # backend whose jobs all run inline never fires it.
        if "backend.worker_crash" in self._rates:
            self.cluster.backend._chaos = self._worker_chaos
        for fault in self.plan.scheduled:
            self._pending.append(
                self.sim.schedule(fault.at, self._fire_scheduled, fault)
            )
        for trigger in self.plan.triggers:
            self._subscribe_trigger(trigger)
        return self

    def disarm(self) -> None:
        if not self._armed:
            return
        self._armed = False
        self.sim.clear_faults()
        self.cluster.backend._chaos = None
        for handle in self._pending:
            handle.cancel()
        self._pending.clear()
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()

    def __enter__(self) -> "FaultInjector":
        return self.arm()

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    # -- bookkeeping -----------------------------------------------------
    def _record(self, kind: str, **data: Any) -> None:
        self.injected.append((self.sim.now, kind, data))
        self.sim.bus.publish(f"faults.{kind}", self.sim.now, **data)

    def _fires(self, rate_fault: RateFault, *key: str | int) -> bool:
        if rate_fault.rate <= 0.0:
            return False
        return self.rng.child(rate_fault.kind, *key).bernoulli(rate_fault.rate)

    # -- FaultSite hooks (probabilistic catalog) -------------------------
    def namenode_heartbeat_crash(self, namenode) -> bool:
        rate_fault = self._rates.get("namenode.crash")
        if rate_fault is None or not self._fires(
            rate_fault, "namenode", namenode.heartbeats_processed
        ):
            return False
        self._record("namenode.crash", via="rate")
        recover_after = rate_fault.param("recover_after")
        if recover_after is not None:
            self.sim.schedule(recover_after, self._recover_namenode)
        return True

    def task_attempt_fault(self, job_id: str, attempt_id: str) -> str | None:
        rate_fault = self._rates.get("task.exception")
        if rate_fault is None or not self._fires(rate_fault, attempt_id):
            return None
        self._record("task.exception", job_id=job_id, attempt=attempt_id)
        return f"Injected chaos exception in {attempt_id}"

    def attempt_slowdown(self, job_id: str, attempt_id: str) -> float:
        rate_fault = self._rates.get("task.straggler")
        if rate_fault is None or not self._fires(rate_fault, attempt_id):
            return 1.0
        factor = float(rate_fault.param("factor", 4.0))
        self._record(
            "task.straggler", job_id=job_id, attempt=attempt_id, factor=factor
        )
        return factor

    def shuffle_fetch_fails(
        self, attempt_id: str, source: str, retry: int
    ) -> bool:
        rate_fault = self._rates.get("shuffle.fetch_failure")
        if rate_fault is None or not self._fires(
            rate_fault, attempt_id, source, retry
        ):
            return False
        self._record(
            "shuffle.fetch_failure",
            attempt=attempt_id,
            source=source,
            retry=retry,
        )
        return True

    def _worker_chaos(self, index: int) -> bool:
        rate_fault = self._rates.get("backend.worker_crash")
        if rate_fault is None or not self._fires(rate_fault, index):
            return False
        self._record("backend.worker_crash", work_index=index)
        return True

    # -- scheduled catalog ----------------------------------------------
    def _fire_scheduled(self, fault: ScheduledFault) -> None:
        kind, target = fault.kind, fault.target
        if kind == "datanode.crash":
            datanode = self.cluster.hdfs.datanode(target)
            if datanode.is_serving:
                self._record("datanode.crash", node=target, via="scheduled")
                datanode.crash()
                self._maybe_restart(fault, self._restart_datanode, target)
        elif kind == "tracker.crash":
            tracker = self.cluster.tasktrackers[target]
            if tracker.is_serving:
                self._record("tracker.crash", node=target, via="scheduled")
                tracker.crash()
                self._maybe_restart(fault, self._restart_tracker, target)
        elif kind == "worker.crash":
            self._record("worker.crash", node=target, via="scheduled")
            self.cluster.crash_worker(target)
            self._maybe_restart(fault, self._restart_worker, target)
        elif kind == "datanode.restart":
            self._restart_datanode(target)
        elif kind == "tracker.restart":
            self._restart_tracker(target)
        elif kind == "worker.restart":
            self._restart_worker(target)
        elif kind == "disk.slow":
            self._slow_disk(fault)
        elif kind == "blocks.corrupt":
            self._corruption_storm(fault)
        elif kind == "cluster.restart":
            self._record("cluster.restart")
            self.cluster.restart_cluster()
        elif kind == "namenode.crash":
            namenode = self.cluster.hdfs.namenode
            if not namenode.down:
                self._record("namenode.crash", via="scheduled")
                namenode.crash()
                recover_after = fault.param("recover_after")
                if recover_after is not None:
                    self._pending.append(
                        self.sim.schedule(recover_after, self._recover_namenode)
                    )
        elif kind == "namenode.recover":
            self._recover_namenode()
        elif kind == "checkpoint.roll":
            namenode = self.cluster.hdfs.namenode
            if namenode.journal.enabled and not namenode.down:
                stats = namenode.save_namespace()
                self._record(
                    "checkpoint.roll",
                    edits_truncated=stats.edits_truncated,
                    image_inodes=stats.image_inodes,
                    image_blocks=stats.image_blocks,
                )
        elif kind == "journal.torn_tail":
            namenode = self.cluster.hdfs.namenode
            if namenode.journal.enabled:
                dropped = namenode.journal.tear_tail(fault.param("drop_bytes"))
                self._record("journal.torn_tail", dropped_bytes=dropped)
        else:  # pragma: no cover - plan validation rejects unknown kinds
            raise ConfigError(f"unknown scheduled fault kind {kind!r}")

    def _maybe_restart(self, fault: ScheduledFault, restart_fn, target) -> None:
        restart_after = fault.param("restart_after")
        if restart_after is not None:
            self._pending.append(
                self.sim.schedule(restart_after, restart_fn, target)
            )

    def _restart_datanode(self, name: str) -> None:
        datanode = self.cluster.hdfs.datanode(name)
        if not datanode.is_serving:
            self._record("datanode.restart", node=name)
            self.cluster.hdfs.restart_datanode(name)

    def _restart_tracker(self, name: str) -> None:
        tracker = self.cluster.tasktrackers[name]
        if not tracker.is_serving:
            self._record("tracker.restart", node=name)
            tracker.start(self.cluster.jobtracker)

    def _restart_worker(self, name: str) -> None:
        self._record("worker.restart", node=name)
        self.cluster.restart_worker(name)

    def _recover_namenode(self) -> None:
        # Calls NameNode.recover() directly, never the cluster wrapper:
        # HdfsCluster.recover_namenode advances the sim (wait_until) and
        # this runs *inside* a sim event.  Trackers resume on their own
        # once safemode clears (MapReduceCluster listens on the bus).
        namenode = self.cluster.hdfs.namenode
        if not namenode.down:
            return
        namenode.recover()
        stats = namenode.journal.last_recovery
        if stats is not None:
            self._record(
                "namenode.recover",
                replayed_edits=stats.replayed_edits,
                torn_bytes=stats.torn_bytes,
            )
        else:
            self._record("namenode.recover")

    def _slow_disk(self, fault: ScheduledFault) -> None:
        datanode = self.cluster.hdfs.datanode(fault.target)
        factor = float(fault.param("factor", 8.0))
        datanode.disk_slow_factor = factor
        self._record("disk.slow", node=fault.target, factor=factor)
        duration = fault.param("duration")
        if duration is not None:
            self._pending.append(
                self.sim.schedule(duration, self._heal_disk, fault.target)
            )

    def _heal_disk(self, name: str) -> None:
        self.cluster.hdfs.datanode(name).disk_slow_factor = 1.0
        self._record("disk.healed", node=name)

    def _corruption_storm(self, fault: ScheduledFault) -> None:
        """Silently corrupt replicas — the "corrupted Hadoop cluster".

        Candidate blocks on each node are shuffled by a name-keyed
        stream; with ``spare_last_replica`` (the default) a block's only
        healthy copy is never touched, so every read can still fail over
        and the drill stays recoverable.
        """
        count = int(fault.param("count", 1))
        spare = bool(fault.param("spare_last_replica", True))
        if fault.target is not None:
            datanodes = [self.cluster.hdfs.datanode(fault.target)]
        else:
            datanodes = [
                self.cluster.hdfs.datanodes[name]
                for name in sorted(self.cluster.hdfs.datanodes)
            ]
        for datanode in datanodes:
            if not datanode.is_serving:
                continue
            block_ids = sorted(datanode.blocks)
            self.rng.child("blocks.corrupt", datanode.name).shuffle(block_ids)
            corrupted = 0
            for block_id in block_ids:
                if corrupted >= count:
                    break
                if spare and self._healthy_replicas(block_id) <= 1:
                    continue
                datanode.corrupt_block(block_id)
                self._record(
                    "block.corrupted", node=datanode.name, block_id=block_id
                )
                corrupted += 1

    def _healthy_replicas(self, block_id: int) -> int:
        healthy = 0
        for datanode in self.cluster.hdfs.datanodes.values():
            stored = datanode.blocks.get(block_id)
            if stored is not None and stored.verify():
                healthy += 1
        return healthy

    # -- triggers --------------------------------------------------------
    def _subscribe_trigger(self, trigger: TriggerFault) -> None:
        state = {"seen": 0, "fired": False}

        def listener(event) -> None:
            if state["fired"]:
                return
            state["seen"] += 1
            if state["seen"] < trigger.count:
                return
            state["fired"] = True
            target = trigger.target
            if target is None and trigger.target_from is not None:
                target = event.data.get(trigger.target_from)
            fault = ScheduledFault(
                at=self.sim.now,
                kind=trigger.kind,
                target=target,
                params=trigger.params,
            )
            # Fire *after* the current event finishes: a synchronous
            # crash from inside e.g. task_completed would reenter the
            # component mid-update.
            self._pending.append(
                self.sim.schedule(0.0, self._fire_scheduled, fault)
            )

        self._unsubscribes.append(self.sim.bus.subscribe(trigger.on, listener))

    # -- observability ---------------------------------------------------
    def fault_log(self) -> list[str]:
        """Human/machine-comparable lines for every injected fault."""
        lines = []
        for time, kind, data in self.injected:
            rendered = " ".join(f"{k}={data[k]}" for k in sorted(data))
            lines.append(f"t={time:.3f} {kind} {rendered}".rstrip())
        return lines
