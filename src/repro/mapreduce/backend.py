"""The execution backend: where a task attempt's *real* work runs.

The simulator prices map/reduce work in simulated seconds, but the user
code itself (tokenising, sorting, combining, reducing) executes for
real.  Run inline, every attempt completes inside the discrete-event
loop and a multi-node simulated cluster uses one core of the host.

One class, :class:`ExecutionBackend`, decouples the two:

- ``submit(fn, on_done, inline=True)`` runs the work at once, in the
  simulation thread;
- ``submit(fn, on_done)`` ships share-nothing work to a lazily created
  process pool.

Either way the completion callback waits for a deterministic *join
point*: the simulation engine (via the
:class:`~repro.sim.engine.WorkJoiner` protocol) joins all in-flight
work, inline and pooled alike, in submission order, before the clock
advances past the simulated instant the work was submitted at.

Which of the two a job gets is decided once per job, at submission, by
whoever runs it (the JobTracker or the ``LocalJobRunner``):
``backend.pools(input bytes) and not job.shares_node_state``.
The backend's ``policy`` (``serial | pooled | auto``, fixed at
construction) answers :meth:`ExecutionBackend.pools` and holds no
per-job state; the answer is kept with the job
(``RunningJob.pooled`` on a cluster, a local in ``LocalJobRunner.run``).

A cluster or runner gets its backend one way: the ``backend=`` instance
it was handed (``create_backend(name, workers)``), else a fresh one of
the process-wide default the CLI's ``--backend/--workers`` set.

The determinism contract
========================

Real work runs in parallel; simulated time stays serial.  Because

1. every pooled work item is a pure function of its arguments (no
   simulation state crosses the boundary — input bytes are prefetched,
   node-shared state forces inline execution),
2. completion callbacks fire in submission order from the one join
   point, wherever the work ran — by construction, and
3. completion *events* land at ``submit_time + duration`` with
   durations computed from the cost model, not the host,

a pooled run produces bit-identical counters, outputs and simulated
clocks to a serial run — only the host wall-clock differs.  The
property tests in ``tests/properties/test_backend_determinism.py``
assert exactly this.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Any, Callable

from repro.util.errors import ConfigError, ReproError

OnDone = Callable[["WorkHandle"], None]

#: Backend policies accepted by :func:`create_backend` and the CLI.
BACKEND_NAMES = ("serial", "pooled", "auto")

#: Below this much job input, ``auto`` keeps the job inline: pool
#: startup + IPC overwhelm any parallel win on small jobs.
AUTO_MIN_PARALLEL_BYTES = 1 << 20


def usable_cores() -> int:
    """CPU cores this process may actually run on.

    ``os.cpu_count()`` reports the host's cores; under cgroup/affinity
    limits (CI runners, containers) the schedulable set is smaller and
    is what parallel speedup is bounded by.  The original benchmark
    harness recorded ``host_cores: 1`` from exactly this confusion.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # platforms without sched_getaffinity
        return os.cpu_count() or 1

#: Resubmits attempted on a fresh pool after a worker death before the
#: backend gives up on pooling and runs the work inline.
WORKER_CRASH_RESUBMITS = 2


class WorkHandle:
    """Handle to one submitted unit of real work."""

    __slots__ = ("submit_time", "_result", "_error", "_future")

    def __init__(self, submit_time: float):
        self.submit_time = submit_time
        self._result: Any = None
        self._error: BaseException | None = None
        self._future: Future | None = None

    def result(self) -> Any:
        """Return the work's result, or raise the exception it raised."""
        if self._error is not None:
            raise self._error
        return self._result


def _check_spec(policy: str, workers: int) -> None:
    if policy not in BACKEND_NAMES:
        raise ConfigError(
            f"unknown backend {policy!r}; expected one of {BACKEND_NAMES}"
        )
    if workers < 0:
        raise ConfigError("workers must be >= 0 (0 = one per usable core)")


class ExecutionBackend:
    """Where task attempts' real work runs.  See the module docstring.

    Payloads and results of pooled work must pickle.  Work that fails
    to is re-run inline at the join point (the result is identical —
    pooling is an optimisation, never a semantic), with a
    ``RuntimeWarning`` and one more :attr:`inline_fallbacks`.
    """

    def __init__(self, policy: str, workers: int = 0):
        _check_spec(policy, workers)
        self.policy = policy
        self.workers = workers or usable_cores()
        self._executor: ProcessPoolExecutor | None = None
        #: (handle, on_done, fn, index) in submission order.  Pooled work
        #: keeps fn (for resubmission after worker death and the inline
        #: fallbacks) and its index; inline work, already run, has None.
        self._in_flight: list[
            tuple[WorkHandle, OnDone, Callable[[], Any] | None, int | None]
        ] = []
        #: Monotonic pooled-submission counter; the chaos hook keys
        #: deterministic worker-crash draws off it.
        self._submit_count = 0
        #: Fault-injection hook: called with the submission index after a
        #: pooled result lands; True simulates the worker having died
        #: with the result lost (see ``repro.faults``).
        self._chaos: Callable[[int], bool] | None = None
        #: Work items whose results were recovered after a worker death
        #: (by resubmission or the final inline fallback).
        self.worker_crash_recoveries = 0
        #: Pooled work items re-run inline because their payload or
        #: result could not cross the process boundary.
        self.inline_fallbacks = 0

    def pools(self, input_bytes: int | None) -> bool:
        """May a job with this much input run on the pool?

        ``serial`` never pools and ``pooled`` always does.  ``auto``
        pools when the host has two usable cores and the input is at
        least :data:`AUTO_MIN_PARALLEL_BYTES`; ``None`` (no cheap
        estimate) counts as large, so only the core count gates.
        """
        if self.policy == "auto":
            return usable_cores() >= 2 and (
                input_bytes is None or input_bytes >= AUTO_MIN_PARALLEL_BYTES
            )
        return self.policy == "pooled"

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def submit(
        self,
        fn: Callable[[], Any],
        on_done: OnDone,
        *,
        submit_time: float = 0.0,
        inline: bool = False,
    ) -> WorkHandle:
        """Run ``fn``; call ``on_done(handle)`` from the next join.

        ``inline=True`` runs ``fn`` in the caller's thread before
        ``submit`` returns (a job that is not pooled, or work that
        touches shared simulation or node state); otherwise it goes to
        the pool.  Either way ``on_done`` fires only from
        :meth:`join_all`, in submission order.  Exceptions raised by
        ``fn`` are captured in the handle — ``on_done`` observes them
        via :meth:`WorkHandle.result` — but exceptions from ``on_done``
        itself propagate out of :meth:`join_all`.
        """
        handle = WorkHandle(submit_time)
        index = None
        if not inline:
            try:
                handle._future = self._ensure_executor().submit(fn)
            except RuntimeError:
                # Executor already shut down (e.g. interpreter teardown):
                # degrade to inline execution rather than losing the task.
                pass
            else:
                index = self._submit_count
                self._submit_count += 1
        if index is None:
            _run_captured(fn, handle)
            fn = None  # never re-run; don't keep its input alive
        self._in_flight.append((handle, on_done, fn, index))
        return handle

    # -- WorkJoiner protocol (see repro.sim.engine) ---------------------
    def pending_since(self) -> float | None:
        if not self._in_flight:
            return None
        return self._in_flight[0][0].submit_time

    def join_all(self) -> None:
        """Resolve all in-flight work, firing callbacks in submission order."""
        while self._in_flight:
            batch, self._in_flight = self._in_flight, []
            for handle, on_done, fn, index in batch:
                if index is not None:  # pooled; inline work resolved at submit
                    try:
                        handle._result = handle._future.result()
                        if self._chaos is not None and self._chaos(index):
                            raise _InjectedWorkerCrash(
                                f"injected worker crash (work #{index})"
                            )
                    except BaseException as exc:  # noqa: BLE001
                        if _is_worker_crash(exc):
                            self._recover_worker_crash(handle, fn, exc)
                        elif _is_pickling_error(exc):
                            # The payload/result couldn't cross the
                            # process boundary — the work itself may be
                            # fine.  Re-run inline for an identical answer.
                            warnings.warn(
                                f"pooled work fell back to inline execution: "
                                f"{type(exc).__name__}: {exc}",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                            self.inline_fallbacks += 1
                            _run_captured(fn, handle)
                        else:
                            handle._error = exc
                    finally:
                        handle._future = None
                on_done(handle)
                # on_done may submit more work (rare); the outer while
                # loop drains it in order.

    def _recover_worker_crash(
        self, handle: WorkHandle, fn: Callable[[], Any], exc: BaseException
    ) -> None:
        """A worker died holding this work's result.

        Pooled work is a pure function of its arguments, so the recovery
        is re-execution: resubmit on a fresh pool up to
        :data:`WORKER_CRASH_RESUBMITS` times, then fall back inline.
        Either way the answer is identical to an undisturbed run — the
        serial-vs-pooled determinism guarantee survives worker death.
        """
        if not isinstance(exc, _InjectedWorkerCrash):
            # A real BrokenExecutor poisons the whole pool; discard it so
            # the resubmit (and subsequent submissions) get a fresh one.
            self._discard_executor()
        for _retry in range(WORKER_CRASH_RESUBMITS):
            try:
                handle._result = self._ensure_executor().submit(fn).result()
            except BaseException as retry_exc:  # noqa: BLE001
                if _is_worker_crash(retry_exc):
                    self._discard_executor()
                    exc = retry_exc
                    continue
                if _is_pickling_error(retry_exc):
                    break  # pooling is hopeless for this payload
                handle._error = retry_exc  # the work itself failed
                return
            handle._error = None
            self.worker_crash_recoveries += 1
            return
        warnings.warn(
            f"pooled work fell back to inline execution after worker "
            f"crash: {type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        _run_captured(fn, handle)
        self.worker_crash_recoveries += 1

    def _discard_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def shutdown(self) -> None:
        self.join_all()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        # In-flight work is drained and the pool is gone, so no worker
        # can still read a shuffle segment: unlink anything the shm
        # plane has live.  (Per-job scopes release earlier, at job end;
        # this is the backstop for interrupted runs.)  Crashed-worker
        # orphans — segments published but never returned — are caught
        # by the scopes' directory removal; never sweep them at
        # _discard_executor time, because completed futures from a
        # broken pool may hold slices the parent has yet to adopt.
        shm = sys.modules.get("repro.mapreduce.shm")  # if ever imported
        if shm is not None:
            shm.release_all_scopes()


#: The benchmark's span table (``benchmarks/perf/trace.py``) resolves
#: ``submit`` and ``join_all`` through this name, from the class dict;
#: it goes when the benchmark names :class:`ExecutionBackend` instead.
PooledExecutionBackend = ExecutionBackend


def _run_captured(fn: Callable[[], Any], handle: WorkHandle) -> None:
    try:
        handle._result = fn()
    except BaseException as exc:  # noqa: BLE001 - relayed via handle.result()
        handle._error = exc


class _InjectedWorkerCrash(Exception):
    """A fault-injected worker death: the result is treated as lost, but
    the pool itself is healthy, so recovery skips the pool rebuild."""


def _is_pickling_error(exc: BaseException) -> bool:
    """Did the payload/result fail to cross the process boundary?

    Unpicklable payloads/results surface as PicklingError, TypeError or
    AttributeError from the pickling machinery (never from task work:
    the runtime wraps user-code errors in ReproError subclasses).  The
    fallback re-runs the work inline, which yields an identical answer —
    at worst a deterministic failure is computed twice.
    """
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, (pickle.PicklingError, TypeError, AttributeError))


def _is_worker_crash(exc: BaseException) -> bool:
    """Did a pool worker die (OOM-killed, segfaulted, injected)?

    ``BrokenExecutor`` covers ``BrokenProcessPool``;
    :class:`_InjectedWorkerCrash` is the fault injector's simulated
    flavour of the same event.
    """
    return isinstance(exc, (BrokenExecutor, _InjectedWorkerCrash))


# ---------------------------------------------------------------------------
# Default-backend registry: one process-wide spec, consulted whenever a
# cluster or runner is built without an explicit backend.  The CLI's
# ``--backend/--workers`` flags set it, which is how every example and
# benchmark picks the flags up without plumbing changes.

_default_spec: tuple[str, int] = ("serial", 0)


def set_default_backend(name: str, workers: int = 0) -> None:
    """Set the process-wide default backend spec (e.g. from the CLI)."""
    _check_spec(name, workers)
    global _default_spec
    _default_spec = (name, workers)


def create_backend(name: str, workers: int = 0) -> ExecutionBackend:
    """A backend with policy ``name`` (one of :data:`BACKEND_NAMES`);
    ``workers=0`` sizes its pool at one worker per usable core."""
    return ExecutionBackend(name, workers)


def resolve_backend(backend: "ExecutionBackend | None") -> ExecutionBackend:
    """The backend a cluster/runner was handed, else a fresh one of the
    process-wide default (:func:`set_default_backend`)."""
    if backend is not None:
        return backend
    return create_backend(*_default_spec)
