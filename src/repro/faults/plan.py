"""Declarative fault plans: *what* goes wrong, *when*, at *which* rate.

A :class:`FaultPlan` is pure data — it composes faults from the
cross-layer catalog without touching a cluster.  A
:class:`~repro.faults.injector.FaultInjector` later arms the plan
against a live :class:`~repro.mapreduce.cluster.MapReduceCluster`.

The catalog
===========

Scheduled faults (fire at a fixed delay after arming, or when a bus
event trips a trigger):

=====================  ==================================================
``datanode.crash``     one DataNode daemon dies (optionally restarts)
``tracker.crash``      one TaskTracker daemon dies
``worker.crash``       both daemons on one node die together
``disk.slow``          a node's disk reads slow down by ``factor``
``blocks.corrupt``     silent on-disk corruption of stored replicas
``cluster.restart``    the paper's bounce-everything recovery procedure
``namenode.crash``     the NameNode process dies (journal survives;
                       optionally recovers ``recover_after`` later)
``namenode.recover``   replay fsimage + edits on a crashed NameNode
``checkpoint.roll``    SecondaryNameNode-style fsimage roll + truncate
``journal.torn_tail``  chop bytes off the edit log's tail (torn write)
=====================  ==================================================

Probabilistic faults (a rate in ``[0, 1]`` drawn once per opportunity,
from an RNG stream named by the opportunity — attempt id, NameNode
heartbeat number, work index — so draws replay identically regardless
of execution order or backend):

=========================  ============================================
``task.exception``         a task attempt raises at launch
``task.straggler``         an attempt's runtime is multiplied
``shuffle.fetch_failure``  one reduce-side fetch fails transiently
``backend.worker_crash``   a pool worker dies holding a result
``namenode.crash``         the NameNode dies servicing a heartbeat
=========================  ============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.util.errors import ConfigError

#: Kinds valid for scheduled/triggered faults.
SCHEDULED_KINDS = frozenset(
    {
        "datanode.crash",
        "tracker.crash",
        "worker.crash",
        "datanode.restart",
        "tracker.restart",
        "worker.restart",
        "disk.slow",
        "blocks.corrupt",
        "cluster.restart",
        "namenode.crash",
        "namenode.recover",
        "checkpoint.roll",
        "journal.torn_tail",
    }
)

#: Kinds valid for probabilistic faults.
RATE_KINDS = frozenset(
    {
        "task.exception",
        "task.straggler",
        "shuffle.fetch_failure",
        "backend.worker_crash",
        "namenode.crash",
    }
)

#: Scheduled kinds that must name a target node.
_NEEDS_TARGET = frozenset(
    {
        "datanode.crash",
        "tracker.crash",
        "worker.crash",
        "datanode.restart",
        "tracker.restart",
        "worker.restart",
        "disk.slow",
    }
)


def _freeze(params: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class ScheduledFault:
    """One fault fired ``at`` simulated seconds after the plan is armed."""

    at: float
    kind: str
    target: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)

    def describe(self) -> str:
        bits = [f"t+{self.at:g}s {self.kind}"]
        if self.target:
            bits.append(f"target={self.target}")
        bits += [f"{k}={v}" for k, v in self.params]
        return " ".join(bits)


@dataclass(frozen=True)
class RateFault:
    """One probabilistic fault drawn per opportunity at ``rate``."""

    kind: str
    rate: float
    params: tuple[tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)

    def describe(self) -> str:
        bits = [f"{self.kind} rate={self.rate:g}"]
        bits += [f"{k}={v}" for k, v in self.params]
        return " ".join(bits)


@dataclass(frozen=True)
class TriggerFault:
    """A scheduled-catalog fault fired when the ``count``-th bus event
    under topic prefix ``on`` is observed (e.g. "crash the tracker that
    just completed the second map").  ``target_from`` names an event
    data key to take the target node from; an explicit ``target`` wins.
    """

    on: str
    kind: str
    count: int = 1
    target: str | None = None
    target_from: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def describe(self) -> str:
        bits = [f"on {self.on}#{self.count} {self.kind}"]
        if self.target:
            bits.append(f"target={self.target}")
        if self.target_from:
            bits.append(f"target_from={self.target_from}")
        bits += [f"{k}={v}" for k, v in self.params]
        return " ".join(bits)


@dataclass
class FaultPlan:
    """A seeded, declarative composition of faults.

    Builders mutate-and-return ``self`` so plans read as chains::

        plan = (
            FaultPlan(seed=7)
            .crash_datanode(at=30.0, node="node2", restart_after=60.0)
            .shuffle_failure_rate(0.2)
        )

    The ``seed`` drives *every* probabilistic draw the armed plan makes
    (via name-keyed ``util.rng`` streams), so the same plan on the same
    cluster seed replays an identical fault/recovery event log.
    """

    seed: int = 0
    scheduled: list[ScheduledFault] = field(default_factory=list)
    rates: list[RateFault] = field(default_factory=list)
    triggers: list[TriggerFault] = field(default_factory=list)

    # -- scheduled faults ------------------------------------------------
    def _add_scheduled(
        self, at: float, kind: str, target: str | None, **params: Any
    ) -> "FaultPlan":
        if kind not in SCHEDULED_KINDS:
            raise ConfigError(
                f"unknown scheduled fault kind {kind!r}; "
                f"expected one of {sorted(SCHEDULED_KINDS)}"
            )
        if at < 0:
            raise ConfigError("fault time must be >= 0 (seconds after arm)")
        if kind in _NEEDS_TARGET and not target:
            raise ConfigError(f"{kind} needs a target node")
        self.scheduled.append(
            ScheduledFault(at=at, kind=kind, target=target, params=_freeze(params))
        )
        return self

    def crash_datanode(
        self, at: float, node: str, restart_after: float | None = None
    ) -> "FaultPlan":
        """Kill one DataNode daemon (the paper's mid-job drill)."""
        return self._add_scheduled(
            at, "datanode.crash", node, restart_after=restart_after
        )

    def crash_tracker(
        self, at: float, node: str, restart_after: float | None = None
    ) -> "FaultPlan":
        return self._add_scheduled(
            at, "tracker.crash", node, restart_after=restart_after
        )

    def crash_worker(
        self, at: float, node: str, restart_after: float | None = None
    ) -> "FaultPlan":
        """Kill both daemons on one node (the heap-leak cascade shape)."""
        return self._add_scheduled(
            at, "worker.crash", node, restart_after=restart_after
        )

    def slow_disk(
        self,
        at: float,
        node: str,
        factor: float = 8.0,
        duration: float | None = None,
    ) -> "FaultPlan":
        """Multiply one node's disk-read latency (a failing spindle)."""
        if factor < 1.0:
            raise ConfigError("slow-disk factor must be >= 1.0")
        return self._add_scheduled(
            at, "disk.slow", node, factor=factor, duration=duration
        )

    def corrupt_blocks(
        self,
        at: float,
        node: str | None = None,
        count: int = 1,
        spare_last_replica: bool = True,
    ) -> "FaultPlan":
        """Silently corrupt up to ``count`` replicas per node (all nodes
        when ``node`` is None).  ``spare_last_replica`` refuses to damage
        a block's only healthy copy, keeping the drill recoverable."""
        if count < 1:
            raise ConfigError("corrupt_blocks count must be >= 1")
        return self._add_scheduled(
            at,
            "blocks.corrupt",
            node,
            count=count,
            spare_last_replica=spare_last_replica,
        )

    def restart_cluster(self, at: float) -> "FaultPlan":
        """Bounce everything (the paper's corrupted-cluster recovery)."""
        return self._add_scheduled(at, "cluster.restart", None)

    def crash_namenode(
        self, at: float, recover_after: float | None = None
    ) -> "FaultPlan":
        """Kill the NameNode process — the paper's single point of
        failure.  In-memory namespace, block map and registrations are
        gone; only the journal survives.  ``recover_after`` schedules a
        journal replay that many seconds later."""
        return self._add_scheduled(
            at, "namenode.crash", None, recover_after=recover_after
        )

    def recover_namenode(self, at: float) -> "FaultPlan":
        """Recover a crashed NameNode: load the fsimage, replay edits,
        re-enter safemode until DataNodes re-report."""
        return self._add_scheduled(at, "namenode.recover", None)

    def roll_checkpoint(self, at: float) -> "FaultPlan":
        """SecondaryNameNode roll: merge the edit log into a fresh
        fsimage, swap it in, truncate the edits."""
        return self._add_scheduled(at, "checkpoint.roll", None)

    def tear_journal_tail(
        self, at: float, drop_bytes: int | None = None
    ) -> "FaultPlan":
        """Chop bytes off the edit-log tail (a torn write: the crash
        landed mid-append).  ``None`` tears halfway into the last
        fully-written record; recovery replays the valid prefix."""
        return self._add_scheduled(
            at, "journal.torn_tail", None, drop_bytes=drop_bytes
        )

    def on_event(
        self,
        topic: str,
        kind: str,
        count: int = 1,
        target: str | None = None,
        target_from: str | None = None,
        **params: Any,
    ) -> "FaultPlan":
        """Fire a scheduled-catalog fault when a bus event trips it."""
        if kind not in SCHEDULED_KINDS:
            raise ConfigError(
                f"unknown scheduled fault kind {kind!r}; "
                f"expected one of {sorted(SCHEDULED_KINDS)}"
            )
        if count < 1:
            raise ConfigError("trigger count must be >= 1")
        if kind in _NEEDS_TARGET and not target and not target_from:
            raise ConfigError(f"{kind} needs a target (or target_from)")
        self.triggers.append(
            TriggerFault(
                on=topic,
                kind=kind,
                count=count,
                target=target,
                target_from=target_from,
                params=_freeze(params),
            )
        )
        return self

    # -- probabilistic faults --------------------------------------------
    def _add_rate(self, kind: str, rate: float, **params: Any) -> "FaultPlan":
        if kind not in RATE_KINDS:
            raise ConfigError(
                f"unknown rate fault kind {kind!r}; "
                f"expected one of {sorted(RATE_KINDS)}"
            )
        if not (0.0 <= rate <= 1.0):
            raise ConfigError("fault rate must be in [0, 1]")
        if any(existing.kind == kind for existing in self.rates):
            raise ConfigError(f"rate for {kind!r} already set")
        self.rates.append(RateFault(kind=kind, rate=rate, params=_freeze(params)))
        return self

    def task_exception_rate(self, rate: float) -> "FaultPlan":
        """Per-attempt probability of raising at launch."""
        return self._add_rate("task.exception", rate)

    def straggler_rate(self, rate: float, factor: float = 4.0) -> "FaultPlan":
        """Per-attempt probability of running ``factor`` times slower."""
        if factor < 1.0:
            raise ConfigError("straggler factor must be >= 1.0")
        return self._add_rate("task.straggler", rate, factor=factor)

    def shuffle_failure_rate(self, rate: float) -> "FaultPlan":
        """Per-fetch probability that a reduce's map-output copy fails."""
        return self._add_rate("shuffle.fetch_failure", rate)

    def worker_crash_rate(self, rate: float) -> "FaultPlan":
        """Per-work-item probability that a pool worker dies."""
        return self._add_rate("backend.worker_crash", rate)

    def namenode_crash_rate(
        self, rate: float, recover_after: float = 60.0
    ) -> "FaultPlan":
        """Per-processed-heartbeat probability that the NameNode dies.
        Recovery defaults to *on* (60 s): a cluster whose NameNode never
        comes back cannot finish any drill."""
        return self._add_rate("namenode.crash", rate, recover_after=recover_after)

    # -- utilities -------------------------------------------------------
    def with_seed(self, seed: int) -> "FaultPlan":
        """A copy of this plan reseeded (for property tests)."""
        return replace(
            self,
            seed=seed,
            scheduled=list(self.scheduled),
            rates=list(self.rates),
            triggers=list(self.triggers),
        )

    def is_empty(self) -> bool:
        return not (self.scheduled or self.rates or self.triggers)

    def describe(self) -> str:
        lines = [f"FaultPlan(seed={self.seed})"]
        for fault in self.scheduled:
            lines.append(f"  scheduled: {fault.describe()}")
        for trigger in self.triggers:
            lines.append(f"  trigger:   {trigger.describe()}")
        for rate in self.rates:
            lines.append(f"  rate:      {rate.describe()}")
        if self.is_empty():
            lines.append("  (no faults)")
        return "\n".join(lines)
