"""Execution backends: where a task attempt's *real* work runs.

The simulator prices map/reduce work in simulated seconds, but the user
code itself (tokenising, sorting, combining, reducing) executes for
real.  Historically that execution was inline and serial: every task
attempt ran to completion inside the discrete-event loop, so a
multi-node simulated cluster used exactly one core of the host.

An :class:`ExecutionBackend` decouples the two:

- :class:`SerialExecutionBackend` reproduces the historical behaviour
  exactly — ``submit`` runs the work and its completion callback
  immediately, in the simulation thread.
- :class:`PooledExecutionBackend` dispatches share-nothing work onto a
  ``concurrent.futures`` pool and resolves results at a deterministic
  *join point*: the simulation engine (via the
  :class:`~repro.sim.engine.WorkJoiner` protocol) joins all in-flight
  work, in submission order, before the clock advances past the
  simulated instant at which the work was submitted.
- :class:`AutoExecutionBackend` *is* that pool plus one per-job flag:
  the drivers call ``decide(input bytes)`` at submission (a no-op on
  every other backend) and a job below the threshold, or on a one-core
  host, runs inline — the pool is not even started.

A cluster or runner gets its backend one way: the ``backend=`` instance
it was handed (``create_backend(name, workers)``), else a fresh one of
the process-wide default the CLI's ``--backend/--workers`` set.

The determinism contract
========================

Real work runs in parallel; simulated time stays serial.  Because

1. every pooled work item is a pure function of its arguments (no
   simulation state crosses the boundary — input bytes are prefetched,
   node-shared state forces inline execution),
2. completion callbacks fire in submission order, which equals the
   serial execution order, and
3. completion *events* land at ``submit_time + duration`` with
   durations computed from the cost model, not the host,

a pooled run produces bit-identical counters, outputs and simulated
clocks to a serial run — only the host wall-clock differs.  The
property tests in ``tests/properties/test_backend_determinism.py``
assert exactly this.
"""

from __future__ import annotations

import os
import sys
import warnings
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable

from repro.util.errors import ConfigError

OnDone = Callable[["WorkHandle"], None]

#: Backend names accepted by :func:`create_backend` and the CLI.
BACKEND_NAMES = ("serial", "pooled", "pooled-threads", "auto")

#: Below this much estimated input, :class:`AutoExecutionBackend` keeps
#: work serial: pool startup + IPC overwhelm any parallel win on small
#: jobs.
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


class ExecutionBackend:
    """Where task attempts' real work runs.  See the module docstring."""

    name = "base"
    #: True when share-nothing work may execute off the sim thread.
    parallel = False

    def submit(
        self,
        fn: Callable[[], Any],
        on_done: OnDone,
        *,
        submit_time: float = 0.0,
        inline: bool = False,
    ) -> WorkHandle:
        """Run ``fn`` and eventually call ``on_done(handle)``.

        ``inline=True`` demands execution in the caller's thread before
        ``submit`` returns (work that touches shared simulation or
        node state).  Exceptions raised by ``fn`` are captured in the
        handle — ``on_done`` observes them via :meth:`WorkHandle.result`
        — but exceptions from ``on_done`` itself propagate.
        """
        raise NotImplementedError

    def decide(self, estimated_bytes: int | None) -> str:
        """Told each job's input size before its tasks are submitted;
        only ``auto`` acts on it.  Returns how the job will run."""
        return self.name

    # -- WorkJoiner protocol (see repro.sim.engine) ---------------------
    def pending_since(self) -> float | None:
        return None

    def join_all(self) -> None:
        pass

    def shutdown(self) -> None:
        pass

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _run_captured(fn: Callable[[], Any], handle: WorkHandle) -> None:
    try:
        handle._result = fn()
    except BaseException as exc:  # noqa: BLE001 - relayed via handle.result()
        handle._error = exc


class SerialExecutionBackend(ExecutionBackend):
    """The historical inline executor: everything runs at submit time."""

    name = "serial"
    parallel = False

    def submit(self, fn, on_done, *, submit_time=0.0, inline=False):
        handle = WorkHandle(submit_time)
        _run_captured(fn, handle)
        on_done(handle)
        return handle


class PooledExecutionBackend(ExecutionBackend):
    """Dispatch share-nothing real work onto a thread/process pool.

    ``mode="process"`` (the default) sidesteps the GIL for CPU-bound
    user code; payloads and results must be picklable.  Work that fails
    to pickle is transparently re-run inline at the join point (the
    result is identical — pooling is an optimisation, never a semantic).
    ``mode="thread"`` has no pickling constraints and suits
    free-threaded interpreters or I/O-heavy custom code.

    ``inline=True`` submissions (node-state-sharing jobs) run eagerly in
    the caller's thread, exactly as the serial backend would.
    """

    name = "pooled"
    parallel = True

    def __init__(self, workers: int | None = None, mode: str = "process"):
        if mode not in ("process", "thread"):
            raise ConfigError(f"unknown pool mode {mode!r}")
        if workers is not None and workers < 0:
            raise ConfigError("workers must be >= 0 (0 = one per usable core)")
        self.workers = workers or usable_cores()
        self.mode = mode
        self._executor: Executor | None = None
        #: (handle, on_done, fn, index) in submission order; fn kept for
        #: resubmission after worker death and the inline fallbacks.
        self._in_flight: list[
            tuple[WorkHandle, OnDone, Callable[[], Any], int]
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

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.mode == "process":
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-pooled",
                )
        return self._executor

    def submit(self, fn, on_done, *, submit_time=0.0, inline=False):
        handle = WorkHandle(submit_time)
        if inline:
            _run_captured(fn, handle)
            on_done(handle)
            return handle
        try:
            handle._future = self._ensure_executor().submit(fn)
        except RuntimeError:
            # Executor already shut down (e.g. interpreter teardown):
            # degrade to inline execution rather than losing the task.
            _run_captured(fn, handle)
            on_done(handle)
            return handle
        index = self._submit_count
        self._submit_count += 1
        self._in_flight.append((handle, on_done, fn, index))
        return handle

    # -- WorkJoiner protocol --------------------------------------------
    def pending_since(self) -> float | None:
        if not self._in_flight:
            return None
        return self._in_flight[0][0].submit_time

    def join_all(self) -> None:
        """Resolve all in-flight work, firing callbacks in submission order."""
        while self._in_flight:
            batch, self._in_flight = self._in_flight, []
            for handle, on_done, fn, index in batch:
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
                        # The payload/result couldn't cross the process
                        # boundary — the work itself may be fine.  Re-run
                        # inline for an identical answer.
                        warnings.warn(
                            f"pooled work fell back to inline execution: "
                            f"{type(exc).__name__}: {exc}",
                            RuntimeWarning,
                            stacklevel=2,
                        )
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
        _release_shm_scopes()


def _release_shm_scopes() -> None:
    """Release live shm scopes, if the shm plane was ever imported."""
    shm = sys.modules.get("repro.mapreduce.shm")
    if shm is not None:
        shm.release_all_scopes()


class AutoExecutionBackend(PooledExecutionBackend):
    """A pool that runs a job inline unless pooling can pay for itself.

    Pooling pays a fixed tax (pool startup, payload pickling/framing)
    that a small job never earns back, and buys nothing on a one-core
    host.  ``auto`` starts serial and the runner/JobTracker call
    :meth:`decide` with the job's estimated input bytes before tasks
    are scheduled: parallel only when the schedulable core count is
    >= 2 **and** the input clears :data:`AUTO_MIN_PARALLEL_BYTES`.
    The pool is built lazily, so a backend that never goes parallel
    never starts one.

    The decision is observable via :attr:`chosen`; work submitted
    between jobs follows the latest decision, and work already on the
    pool is still joined in order after a flip back to serial.
    Determinism is unaffected either way — inline and pooled work
    honour the same bit-identical contract.
    """

    name = "auto"
    parallel = False  # until the first decide()

    @property
    def chosen(self) -> str:
        """How work submitted now runs: ``"serial"`` or ``"pooled"``."""
        return "pooled" if self.parallel else "serial"

    def decide(self, estimated_bytes: int | None) -> str:
        """Choose serial or pooled for the next job; returns the choice.

        ``estimated_bytes`` is the job's input size (sum of split
        lengths); ``None`` means unknown, which is treated as large —
        the caller had no cheap estimate, so only the core count gates.
        """
        small = (
            estimated_bytes is not None
            and estimated_bytes < AUTO_MIN_PARALLEL_BYTES
        )
        self.parallel = usable_cores() >= 2 and not small
        return self.chosen

    def submit(self, fn, on_done, *, submit_time=0.0, inline=False):
        return super().submit(
            fn,
            on_done,
            submit_time=submit_time,
            inline=inline or not self.parallel,
        )


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
    import pickle

    from repro.util.errors import ReproError

    if isinstance(exc, ReproError):
        return False
    return isinstance(
        exc, (pickle.PicklingError, TypeError, AttributeError)
    )


def _is_worker_crash(exc: BaseException) -> bool:
    """Did a pool worker die (OOM-killed, segfaulted, injected)?

    ``BrokenExecutor`` covers ``BrokenProcessPool`` and
    ``BrokenThreadPool``; :class:`_InjectedWorkerCrash` is the fault
    injector's simulated flavour of the same event.
    """
    from concurrent.futures import BrokenExecutor

    return isinstance(exc, (BrokenExecutor, _InjectedWorkerCrash))


# ---------------------------------------------------------------------------
# Default-backend registry: one process-wide spec, consulted whenever a
# cluster or runner is built without an explicit backend.  The CLI's
# ``--backend/--workers`` flags set it, which is how every example and
# benchmark picks the flags up without plumbing changes.

_default_spec: tuple[str, int] = ("serial", 0)


def set_default_backend(name: str, workers: int = 0) -> None:
    """Set the process-wide default backend spec (e.g. from the CLI)."""
    if name not in BACKEND_NAMES:
        raise ConfigError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if workers < 0:
        raise ConfigError("workers must be >= 0 (0 = one per usable core)")
    global _default_spec
    _default_spec = (name, workers)


def default_backend_spec() -> tuple[str, int]:
    return _default_spec


def create_backend(name: str, workers: int = 0) -> ExecutionBackend:
    """Instantiate a backend by name (one of :data:`BACKEND_NAMES`)."""
    if name == "serial":
        return SerialExecutionBackend()
    if name == "pooled":
        return PooledExecutionBackend(workers=workers or None, mode="process")
    if name == "pooled-threads":
        return PooledExecutionBackend(workers=workers or None, mode="thread")
    if name == "auto":
        return AutoExecutionBackend(workers=workers or None, mode="process")
    raise ConfigError(
        f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
    )


def resolve_backend(backend: "ExecutionBackend | None") -> ExecutionBackend:
    """The backend a cluster/runner was handed, else a fresh one of the
    process-wide default (:func:`set_default_backend`)."""
    if backend is not None:
        return backend
    return create_backend(*_default_spec)
