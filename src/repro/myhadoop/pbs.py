"""A PBS-like batch scheduler over the shared supercomputer.

Models the scheduling behaviours the paper leans on:

- students reserve N nodes for a walltime (``qsub``);
- "their jobs can be preempted from the system by higher priority
  research jobs asking for more computational resources";
- when a reservation ends, a periodic *cleanup sweep* (every 15 minutes)
  scrubs orphaned daemons off released nodes — which is why a student
  hitting a ghost-daemon port conflict "would have to wait 15 minutes
  for the scheduler to clean up these daemons".
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.hardware import Node
from repro.cluster.topology import ClusterTopology
from repro.sim.engine import Simulation
from repro.util.errors import ReservationError
from repro.util.units import MINUTE


class ReservationState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    EXPIRED = "expired"  # walltime exceeded
    PREEMPTED = "preempted"
    CANCELLED = "cancelled"


@dataclass
class Reservation:
    """One ``qsub`` allocation."""

    job_id: str
    user: str
    num_nodes: int
    walltime: float
    priority: int = 0  # students 0; research jobs higher
    state: ReservationState = ReservationState.QUEUED
    nodes: list[Node] = field(default_factory=list)
    submit_time: float = 0.0
    start_time: float | None = None
    end_time: float | None = None
    #: Called when the reservation ends for any reason (nodes released).
    on_release: Callable[["Reservation", str], None] | None = None

    @property
    def active(self) -> bool:
        return self.state == ReservationState.RUNNING

    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes]


class PbsScheduler:
    """FIFO-with-priority-preemption scheduler over a node pool."""

    def __init__(
        self,
        sim: Simulation,
        topology: ClusterTopology,
        cleanup_interval: float = 15 * MINUTE,
    ):
        self.sim = sim
        self.topology = topology
        self.cleanup_interval = cleanup_interval
        self._free: list[str] = [n.name for n in topology.nodes()]
        self._queue: list[Reservation] = []
        self._running: dict[str, Reservation] = {}
        self._seq = itertools.count(1)
        #: Cleanup hooks: called with a node name during each sweep for
        #: every free node (the provisioner registers its daemon scrub).
        self.cleanup_hooks: list[Callable[[str], None]] = []
        self.cleanups_performed = 0
        self.sim.wheel(cleanup_interval).subscribe(self._cleanup_sweep)

    # ------------------------------------------------------------------
    def qsub(
        self,
        user: str,
        num_nodes: int,
        walltime: float,
        priority: int = 0,
        on_release: Callable[[Reservation, str], None] | None = None,
    ) -> Reservation:
        """Submit a reservation request."""
        if num_nodes < 1:
            raise ReservationError("num_nodes must be >= 1")
        if num_nodes > len(self.topology):
            raise ReservationError(
                f"requested {num_nodes} nodes; the machine has "
                f"{len(self.topology)}"
            )
        if walltime <= 0:
            raise ReservationError("walltime must be positive")
        reservation = Reservation(
            job_id=f"pbs.{next(self._seq)}",
            user=user,
            num_nodes=num_nodes,
            walltime=walltime,
            priority=priority,
            submit_time=self.sim.now,
            on_release=on_release,
        )
        self._queue.append(reservation)
        self._try_schedule()
        return reservation

    def qstat(self) -> list[Reservation]:
        return [*self._running.values(), *self._queue]

    def qdel(self, job_id: str) -> bool:
        for reservation in self._queue:
            if reservation.job_id == job_id:
                reservation.state = ReservationState.CANCELLED
                self._queue.remove(reservation)
                return True
        reservation = self._running.get(job_id)
        if reservation is not None:
            self._end(reservation, ReservationState.CANCELLED)
            return True
        return False

    def free_nodes(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------------
    def _try_schedule(self) -> None:
        # Highest priority first; FIFO within a priority level.
        self._queue.sort(key=lambda r: (-r.priority, r.submit_time))
        progressed = True
        while progressed:
            progressed = False
            for reservation in list(self._queue):
                if len(self._free) >= reservation.num_nodes:
                    self._start(reservation)
                    progressed = True
                elif reservation.priority > 0:
                    # Research job: preempt enough student reservations.
                    if self._preempt_for(reservation):
                        progressed = True
                        if len(self._free) >= reservation.num_nodes:
                            self._start(reservation)

    def _preempt_for(self, incoming: Reservation) -> bool:
        victims = sorted(
            (
                r
                for r in self._running.values()
                if r.priority < incoming.priority
            ),
            key=lambda r: r.start_time or 0.0,
        )
        preempted_any = False
        for victim in victims:
            if len(self._free) >= incoming.num_nodes:
                break
            self._end(victim, ReservationState.PREEMPTED)
            preempted_any = True
        return preempted_any

    def _start(self, reservation: Reservation) -> None:
        self._queue.remove(reservation)
        # LIFO allocation: recently freed nodes are handed out first —
        # which is precisely how one student inherits another's ghost
        # daemons "immediately afterward" (Section II.B).
        names = [self._free.pop() for _ in range(reservation.num_nodes)]
        reservation.nodes = [self.topology.node(n) for n in names]
        reservation.state = ReservationState.RUNNING
        reservation.start_time = self.sim.now
        self._running[reservation.job_id] = reservation
        self.sim.schedule(
            reservation.walltime, self._walltime_expired, reservation
        )
        self.sim.bus.publish(
            "pbs.started",
            self.sim.now,
            job_id=reservation.job_id,
            user=reservation.user,
            nodes=names,
        )

    def _walltime_expired(self, reservation: Reservation) -> None:
        if reservation.state == ReservationState.RUNNING:
            self._end(reservation, ReservationState.EXPIRED)

    def release(self, reservation: Reservation) -> None:
        """The user's script finished early (normal completion)."""
        if reservation.state == ReservationState.RUNNING:
            self._end(reservation, ReservationState.COMPLETED)

    def _end(self, reservation: Reservation, state: ReservationState) -> None:
        reservation.state = state
        reservation.end_time = self.sim.now
        self._running.pop(reservation.job_id, None)
        if reservation.on_release is not None:
            reservation.on_release(reservation, state.value)
        # Nodes go straight back to the pool — possibly still dirty with
        # the previous user's daemons (the ghost-daemon hazard).
        self._free.extend(reservation.node_names())
        reservation.nodes = []
        self.sim.bus.publish(
            "pbs.ended",
            self.sim.now,
            job_id=reservation.job_id,
            user=reservation.user,
            state=state.value,
        )
        self._try_schedule()

    # ------------------------------------------------------------------
    def _cleanup_sweep(self) -> None:
        """Scrub orphaned daemons cluster-wide.

        The sweep visits every node: a ghost daemon whose reservation
        ended is fair game even if the node has already been handed to
        another student — that student "would have to wait 15 minutes
        for the scheduler to clean up these daemons" (Section II.B).
        """
        self.cleanups_performed += 1
        for node in self.topology.nodes():
            for hook in self.cleanup_hooks:
                hook(node.name)
        self.sim.bus.publish(
            "pbs.cleanup", self.sim.now, free_nodes=len(self._free)
        )
