"""Event-queue simulation engine.

Callback style: components schedule ``fn(*args)`` to run at a simulated
time.  Events at equal times fire in scheduling order (a monotonically
increasing sequence number breaks ties), which keeps multi-daemon
simulations deterministic.  The queue is a heap of ``(time, seq,
event)`` tuples: ``seq`` is unique, so ordering is one C tuple compare
and never reaches the event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Protocol

from repro.sim.clock import SimClock
from repro.util.events import EventBus


class WorkJoiner(Protocol):
    """Something holding real (wall-clock) work's completions on behalf
    of simulated events — e.g. the task-execution backend, which holds
    every attempt's completion until the join, whether its work ran
    inline or on a pool.

    The contract that keeps parallel real work deterministic: work is
    submitted while the clock sits at some simulated time ``S``; its
    completion events land at ``S + duration`` with ``duration >= 0``.
    The engine therefore must *join* (resolve, in submission order) all
    in-flight work before processing any event with time strictly
    greater than ``S`` — but events at exactly ``S`` may run first,
    which is the window in which a whole wave of task launches overlaps
    on real CPUs.  Since every completion passes through this join,
    where the work ran cannot change the order of what it schedules.
    """

    def pending_since(self) -> float | None:
        """Earliest submit time of in-flight work, or None if idle."""

    def join_all(self) -> None:
        """Block until all in-flight work resolves; runs callbacks in
        submission order (callbacks may schedule new events)."""


class FaultSite:
    """Injection points consulted by simulated components.

    The default instance injects nothing, so components can call the
    hooks unconditionally — ``sim.faults.task_attempt_fault(job, attempt)``
    is a no-op until a fault plan is installed (see ``repro.faults``).
    Hooks are keyed by stable names (node name, attempt id, retry
    number), never call order, so an armed injector draws identically
    across serial and pooled backends.
    """

    def task_attempt_fault(self, job_id: str, attempt_id: str) -> str | None:
        """An error message to raise for this attempt, or None."""
        return None

    def attempt_slowdown(self, job_id: str, attempt_id: str) -> float:
        """Multiplier (>= 1.0) applied to the attempt's simulated duration."""
        return 1.0

    def shuffle_fetch_fails(
        self, attempt_id: str, source: str, retry: int
    ) -> bool:
        """True → this shuffle fetch from ``source`` fails transiently."""
        return False


class ScheduledEvent:
    """Handle to a scheduled callback; supports cancellation.

    Cancellation is O(1): the event is flagged and the owning engine's
    live-event counter is decremented; the heap entry itself rots in
    place until it reaches the head or a compaction sweeps it out.
    Ordering lives in the queue's ``(time, seq, event)`` entries, not
    here.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim: "Simulation | None" = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()
            self._sim = None


class TimerWheel:
    """One engine event per tick shared by every fixed-interval timer —
    the engine's one periodic mechanism.

    10k DataNode heartbeats at the same instant would be 10k heap pushes
    and pops per interval as one-event-per-timer chains.  A wheel is
    *one* scheduled event per tick that fans out over a subscriber
    index, so the engine's per-tick work is O(1) heap traffic plus the
    fan-out itself.

    Determinism: subscribers fire in subscription order, and a
    subscriber joining at time ``s`` first fires at the first tick
    strictly after ``s``.  Ticks sit on multiples of ``interval`` from
    the wheel's creation time, so co-interval daemons share one event.
    Tokens are monotonic and each is inserted once, so ``_subs`` (a
    dict) is always in token order: a fan-out walks a snapshot of it
    unsorted.
    """

    __slots__ = ("sim", "interval", "epoch", "_subs", "_tokens", "_pending")

    def __init__(self, sim: "Simulation", interval: float):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self.epoch = sim.now
        #: token -> (fn, args, joined_at), in token order (see above).
        self._subs: dict[int, tuple[Callable[..., Any], tuple, float]] = {}
        self._tokens = itertools.count()
        self._pending: ScheduledEvent | None = None

    def _next_tick(self) -> float:
        """First tick time strictly after now, on the wheel's phase."""
        k = math.floor((self.sim.now - self.epoch) / self.interval) + 1
        t = self.epoch + k * self.interval
        while t <= self.sim.now:  # float guard at large k
            k += 1
            t = self.epoch + k * self.interval
        return t

    def _arm(self) -> None:
        if self._pending is None and self._subs:
            self._pending = self.sim.schedule_at(self._next_tick(), self._tick)

    def _tick(self) -> None:
        self._pending = None
        now = self.sim.now
        for token, (fn, args, joined_at) in list(self._subs.items()):
            if joined_at >= now:
                continue  # first fire is the next tick after joining
            if token in self._subs:  # not unsubscribed mid-fan-out
                fn(*args)
        self._arm()

    def subscribe(self, fn: Callable[..., Any], *args: Any) -> Callable[[], None]:
        """Fire ``fn(*args)`` every tick until cancelled; returns the
        cancel callable, which ``fn`` itself may call."""
        token = next(self._tokens)
        self._subs[token] = (fn, args, self.sim.now)
        self._arm()

        def cancel() -> None:
            self._subs.pop(token, None)
            if not self._subs and self._pending is not None:
                self._pending.cancel()
                self._pending = None

        return cancel


class LivenessTable:
    """Who is alive: the one heartbeat table both masters keep (NameNode
    over DataNodes, JobTracker over TaskTrackers).  Each master keeps
    only what it *does* when a name expires.

    A heap holds exactly one ``(deadline, name)`` entry per live name
    and is revalidated lazily against the last beat, so a sweep touches
    only names whose queued deadline has passed — O(expired) amortized,
    never O(names).
    """

    __slots__ = ("timeout", "last_beat", "alive", "_heap")

    def __init__(self, timeout: float):
        self.timeout = timeout
        #: name -> time of its last beat (kept after it expires).
        self.last_beat: dict[str, float] = {}
        #: Names that have beaten and not gone silent since.
        self.alive: set[str] = set()
        self._heap: list[tuple[float, str]] = []

    def beat(self, name: str, now: float) -> None:
        """Record a heartbeat (registration included)."""
        self.last_beat[name] = now
        if name not in self.alive:
            self.alive.add(name)
            heapq.heappush(self._heap, (now + self.timeout, name))

    def expired(self, now: float) -> list[str]:
        """Declare dead, and return, the names silent for longer than
        ``timeout`` — equal deadlines in name order, deterministic
        regardless of registration history.  A name that beat since its
        queued deadline is re-armed at its fresh one."""
        dead = []
        while self._heap and self._heap[0][0] < now:
            _deadline, name = heapq.heappop(self._heap)
            last = self.last_beat[name]
            if now - last > self.timeout:
                self.alive.discard(name)
                dead.append(name)
            else:
                heapq.heappush(self._heap, (last + self.timeout, name))
        return dead


class Simulation:
    """A discrete-event simulation with a shared clock and event bus.

    >>> sim = Simulation()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    #: Compact the heap once this many cancelled events rot in it (and
    #: they outnumber the live ones) — keeps ``len(queue)`` O(live).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, start: float = 0.0):
        self.clock = SimClock(start)
        self.bus = EventBus()
        #: Heap of ``(time, seq, event)``; ``seq`` is unique.
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_in_queue = 0
        self._wheels: dict[float, TimerWheel] = {}
        self._work_joiners: list[WorkJoiner] = []
        self.faults: FaultSite = FaultSite()

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued — O(1),
        maintained by a live-event counter instead of a queue scan."""
        return len(self._queue) - self._cancelled_in_queue

    def _note_cancel(self) -> None:
        """A queued event was cancelled; compact once rot dominates."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify (ordering unchanged:
        the heap invariant is on (time, seq), which filtering keeps)."""
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    def _pop_event(self) -> ScheduledEvent:
        """Heap-pop one event, keeping the cancellation census exact."""
        event = heapq.heappop(self._queue)[2]
        if event.cancelled:
            self._cancelled_in_queue -= 1
        else:
            event._sim = None  # no longer in the queue; cancel() is a no-op decrement-wise
        return event

    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        seq = next(self._seq)
        event = ScheduledEvent(time, seq, fn, args)
        event._sim = self
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def wheel(self, interval: float) -> TimerWheel:
        """The shared :class:`TimerWheel` for ``interval`` (created on
        first request).  All fixed-interval daemons with the same
        interval ride one wheel: one engine event per tick, fanning out
        over subscribers in subscription order."""
        wheel = self._wheels.get(interval)
        if wheel is None:
            wheel = TimerWheel(self, interval)
            self._wheels[interval] = wheel
        return wheel

    # ------------------------------------------------------------------
    def snapshot(self, *roots: Any):
        """Checkpoint the simulation (and any ``roots`` — platform,
        cluster, scenario state) for bit-identical resume.  Returns a
        :class:`repro.sim.snapshot.SimSnapshot`; ``restore()`` yields an
        independent ``(sim, roots)`` copy whose continued run replays
        exactly the trace this one would have produced."""
        from repro.sim.snapshot import SimSnapshot

        return SimSnapshot(self, roots)

    # ------------------------------------------------------------------
    def install_faults(self, site: FaultSite) -> None:
        """Route injection hooks through ``site`` (see ``repro.faults``)."""
        self.faults = site

    def clear_faults(self) -> None:
        self.faults = FaultSite()

    # ------------------------------------------------------------------
    # real-work barrier
    def register_work_joiner(self, joiner: WorkJoiner) -> None:
        """Attach a joiner whose in-flight work gates clock advancement."""
        if joiner not in self._work_joiners:
            self._work_joiners.append(joiner)

    def _join_in_flight(self, horizon: float) -> bool:
        """Join work that must resolve before time reaches ``horizon``.

        Returns True if anything was joined (completion events may have
        been scheduled, so callers should re-examine the queue head).
        """
        joined = False
        for joiner in self._work_joiners:
            since = joiner.pending_since()
            if since is not None and horizon > since:
                joiner.join_all()
                joined = True
        return joined

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event; returns False if the queue is empty."""
        while True:
            while self._queue and self._queue[0][2].cancelled:
                self._pop_event()
            if not self._queue:
                if self._work_joiners and self._join_in_flight(math.inf):
                    continue  # joins may have scheduled new events
                return False
            if self._work_joiners and self._join_in_flight(
                self._queue[0][0]
            ):
                continue  # completions may land before the old head
            event = self._pop_event()
            self.clock._advance_to(event.time)
            self._events_processed += 1
            event.fn(*event.args)
            return True

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains."""
        for _ in range(max_events):
            if not self.step():
                return
        raise RuntimeError(
            f"simulation exceeded {max_events} events; likely a timer leak"
        )

    def run_until(self, time: float, max_events: int = 10_000_000) -> None:
        """Run all events with timestamp <= ``time``, then set now=time."""
        for _ in range(max_events):
            # Peek at the next live event.
            while self._queue and self._queue[0][2].cancelled:
                self._pop_event()
            if not self._queue or self._queue[0][0] > time:
                # In-flight real work could still complete at <= time.
                if self._work_joiners and self._join_in_flight(
                    math.nextafter(time, math.inf)
                ):
                    continue
                self.clock._advance_to(max(self.now, time))
                return
            self.step()
        raise RuntimeError(
            f"simulation exceeded {max_events} events before t={time}"
        )

    def run_for(self, duration: float, max_events: int = 10_000_000) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.run_until(self.now + duration, max_events=max_events)
