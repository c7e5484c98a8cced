"""The TaskTracker daemon: slots, execution, and the heap-leak crash.

TaskTrackers heartbeat to the JobTracker, receive assignments in the
response, execute them (pricing the work on the simulated hardware) and
report completion.  The failure mode the paper describes — student jobs
with "run time errors that created memory leaks on the Java heap memory
and consequently crashed the task tracker and data node daemons" — is a
first-class behaviour here: a heap-leak attempt fails *and* takes the
daemon (and, configurably, the co-located DataNode) down with it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.hardware import Node
from repro.mapreduce.backend import (
    ExecutionBackend,
    SerialExecutionBackend,
    WorkHandle,
)
from repro.mapreduce.blockio import BlockFetcher
from repro.mapreduce.config import MapReduceConfig
from repro.mapreduce.counters import C, PERF
from repro.mapreduce.outputformat import part_file_name
from repro.mapreduce.runtime import (
    _wrap_user_error,
    execute_map,
    map_attempt_work,
    prefetch_split,
    reduce_attempt_work,
)
from repro.mapreduce.tasks import TaskType
from repro.sim.engine import ScheduledEvent, Simulation
from repro.util.errors import (
    FetchFailedError,
    HeapExhaustedError,
    ReproError,
    TaskFailedError,
)
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hdfs.client import DFSClient
    from repro.hdfs.datanode import DataNode
    from repro.mapreduce.jobtracker import Assignment, JobTracker


class TrackerState(enum.Enum):
    STOPPED = "stopped"
    UP = "up"
    CRASHED = "crashed"


@dataclass
class _RunningAttempt:
    assignment: "Assignment"
    #: None while the attempt's real work is still in flight on a
    #: parallel backend; set once the work resolves and a completion
    #: (or failure/heap-leak) event is scheduled.
    completion: ScheduledEvent | None = None


#: The fraction of a heap-leaking task's normal runtime it burns before
#: the JVM dies (students watched tasks run a while, then OOM).
HEAP_LEAK_BURN_FRACTION = 0.6

#: Transient shuffle-fetch retries before a reduce escalates to
#: ``map_output_lost`` (Hadoop: mapreduce.reduce.shuffle.maxfetchfailures).
SHUFFLE_FETCH_RETRIES = 3
#: Exponential-backoff base delay and ceiling between retries, seconds.
SHUFFLE_RETRY_BASE = 1.0
SHUFFLE_RETRY_MAX = 20.0


class _ShuffleStall(Exception):
    """Internal: a reduce's shuffle fetch failed transiently; retry with
    backoff instead of escalating to ``map_output_lost``."""

    def __init__(self, nodes: list[str]):
        super().__init__(f"shuffle stalled on {nodes}")
        self.nodes = nodes


class TaskTracker:
    """One TaskTracker daemon on one node."""

    def __init__(
        self,
        node: Node,
        sim: Simulation,
        mr_config: MapReduceConfig,
        fetcher: BlockFetcher,
        output_client_factory: Callable[[str | None], "DFSClient"],
        rng: RngStream,
        co_datanode: "DataNode | None" = None,
        backend: ExecutionBackend | None = None,
    ):
        self.node = node
        self.sim = sim
        self.mr_config = mr_config
        self.fetcher = fetcher
        self.output_client_factory = output_client_factory
        self.rng = rng
        self.co_datanode = co_datanode
        self.backend = backend if backend is not None else SerialExecutionBackend()
        self.jobtracker: "JobTracker | None" = None
        self.state = TrackerState.STOPPED
        self.running: dict[str, _RunningAttempt] = {}
        #: Per-node shared memory surviving across tasks — the "global
        #: memory on each node" of the third airline-delay variant, and
        #: the cache behind ``Context.cached_side_file``.
        self.node_cache: dict[str, Any] = {}
        self._cancel_heartbeat: Callable[[], None] | None = None
        self.tasks_run = 0
        self.crashes = 0
        self.heartbeats_sent = 0
        self.shuffle_retries = 0

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_serving(self) -> bool:
        return self.state == TrackerState.UP and self.node.is_up

    def running_of_type(self, task_type: TaskType) -> int:
        return sum(
            1
            for r in self.running.values()
            if r.assignment.task_type == task_type
        )

    @property
    def free_map_slots(self) -> int:
        return self.mr_config.map_slots_per_tracker - self.running_of_type(
            TaskType.MAP
        )

    @property
    def free_reduce_slots(self) -> int:
        return self.mr_config.reduce_slots_per_tracker - self.running_of_type(
            TaskType.REDUCE
        )

    # -- lifecycle -------------------------------------------------------
    def start(self, jobtracker: "JobTracker") -> None:
        self.jobtracker = jobtracker
        self.state = TrackerState.UP
        jobtracker.register_tracker(self)
        # Trackers ride the shared per-interval timer wheel (one engine
        # event per heartbeat instant for the whole fleet).
        self._cancel_heartbeat = self.sim.wheel(
            self.mr_config.tasktracker_heartbeat
        ).subscribe(self._heartbeat)
        self.sim.bus.publish("mr.tasktracker.up", self.sim.now, tracker=self.name)

    def stop(self) -> None:
        self._halt(TrackerState.STOPPED, "mr.tasktracker.stopped")

    def crash(self) -> None:
        """Abrupt daemon death: running work is silently lost."""
        self.crashes += 1
        self.node_cache.clear()  # the JVM and its memory are gone
        self._halt(TrackerState.CRASHED, "mr.tasktracker.crashed")

    def _halt(self, state: TrackerState, topic: str) -> None:
        if self._cancel_heartbeat is not None:
            self._cancel_heartbeat()
            self._cancel_heartbeat = None
        # Resolve any in-flight pooled work first: on a serial backend
        # the work (and its side effects, e.g. a reduce's output write)
        # already happened at launch, so a pooled run must let it land
        # too before the completions are cancelled — identical outcome.
        self.backend.join_all()
        for running in self.running.values():
            if running.completion is not None:
                running.completion.cancel()
        self.running.clear()
        self.state = state
        self.sim.bus.publish(topic, self.sim.now, tracker=self.name)

    # -- heartbeat ---------------------------------------------------------
    def _heartbeat(self) -> None:
        if not self.is_serving or self.jobtracker is None:
            return
        if self.sim.faults.tracker_heartbeat_crash(self):
            self.crash()
            return
        self.heartbeats_sent += 1
        assignments = self.jobtracker.heartbeat(self)
        for assignment in assignments:
            self._launch(assignment)

    # -- execution -----------------------------------------------------------
    def _launch(self, assignment: "Assignment", retry: int = 0) -> None:
        """Start one task attempt (``retry`` counts shuffle re-fetches).

        The attempt's *real* work runs wherever the execution backend
        puts it (inline for the serial backend; on a pool otherwise),
        but every simulation-visible consequence — completion events,
        failure scheduling, the heap-leak RNG draw, the reduce-output
        HDFS write — happens in ``on_done``, which parallel backends
        invoke in submission order at the engine's deterministic join
        point, with the simulated clock still at the submit instant.
        Pooled and serial runs are therefore bit-identical.
        """
        job = self.jobtracker.running_job(assignment.job_id)
        if retry == 0:
            self.tasks_run += 1
            fault = self.sim.faults.task_attempt_fault(
                assignment.job_id, assignment.attempt_id
            )
            if fault is not None:
                self._schedule_failure(assignment, TaskFailedError(fault))
                return
        try:
            if assignment.task_type == TaskType.MAP:
                work, finalize, inline = self._prepare_map(job, assignment)
            else:
                work, finalize, inline = self._prepare_reduce(
                    job, assignment, retry
                )
        except _ShuffleStall as stall:
            self._schedule_shuffle_retry(assignment, stall, retry)
            return
        except FetchFailedError as exc:
            # Fetch failures are the *map's* fault: the attempt is
            # killed without burning this reduce's failure budget.
            self._schedule_failure(assignment, exc, counts_against=False)
            return
        except ReproError as exc:
            self._schedule_failure(assignment, exc)
            return

        running = _RunningAttempt(assignment=assignment)
        self.running[assignment.attempt_id] = running

        def on_done(handle: WorkHandle) -> None:
            try:
                result, duration = finalize(handle.result())
            except FetchFailedError as exc:
                self._schedule_failure(
                    assignment, exc, counts_against=False, running=running
                )
                return
            except ReproError as exc:
                # User-code bugs (TaskFailedError) and infrastructure
                # trouble (e.g. an unreadable block) both surface as
                # attempt failures, as they do in Hadoop.
                self._schedule_failure(assignment, exc, running=running)
                return
            heap_leak = self.rng.bernoulli(job.conf.heap_leak_probability)
            if heap_leak:
                self._schedule_heap_leak(assignment, duration, job, running)
                return
            slowdown = self.sim.faults.attempt_slowdown(
                assignment.job_id, assignment.attempt_id
            )
            if slowdown != 1.0:
                duration *= slowdown
                result.duration = duration
                self.sim.bus.publish(
                    "mr.task.straggling",
                    self.sim.now,
                    tracker=self.name,
                    attempt=assignment.attempt_id,
                    factor=slowdown,
                )
            timeout = job.conf.task_timeout
            if timeout is not None and duration > timeout:
                # The attempt would run past mapred.task.timeout: the
                # tracker kills it at the deadline and reports a failure.
                running.completion = self.sim.schedule(
                    timeout, self._timeout_fires, assignment, timeout
                )
                return
            running.completion = self.sim.schedule(
                duration, self._complete, assignment, result, duration
            )

        self.backend.submit(
            work, on_done, submit_time=self.sim.now, inline=inline
        )

    def _run_inline(self, job: "Job") -> bool:
        """Must this job's work stay in the simulation thread?"""
        return not self.backend.parallel or job.shares_node_state

    def _prepare_map(self, job, assignment):
        """Split a map attempt into (work, finalize, inline)."""
        task = job.map_tasks[assignment.task_index]
        # Block I/O touches DataNode/network state: do it now, in the
        # simulation thread, so the work itself is share-nothing.
        try:
            prefetched = prefetch_split(
                job.job, task.split, self.fetcher.make_fetch(self.name)
            )
        except Exception as exc:  # noqa: BLE001 - an unreadable split fails the map
            raise _wrap_user_error("map", exc) from exc
        attempt = dict(
            job=job.job,
            split=task.split,
            prefetched=prefetched,
            mr_config=self.mr_config,
            task_node=self.name,
            disk_write_bw=self.node.spec.disk_write_bw,
        )
        inline = self._run_inline(job.job)
        if inline:
            work = functools.partial(
                execute_map,
                **attempt,
                side_reader=self._side_reader,
                node_cache=self.node_cache,
            )
        else:
            shm_scope = job.shm_scope
            work = functools.partial(
                map_attempt_work,
                **attempt,
                shm_token=None if shm_scope is None else shm_scope.token,
            )

        def finalize(execution):
            execution.output.node = self.name
            execution.output.task_index = assignment.task_index
            scope = job.shm_scope
            if scope is not None:
                # Adopt in the simulation thread, as soon as the result
                # lands: the job's scope then unlinks this segment by
                # name at job end even if the task is later re-run.
                scope.adopt_output(execution.output)
            if execution.perf:
                PERF.merge(execution.perf)
            self._publish_violations(assignment, execution)
            return execution, execution.duration

        return work, finalize, inline

    def _prepare_reduce(self, job, assignment, retry: int = 0):
        """Split a reduce attempt into (work, finalize, inline).

        Shuffle fetch: map output lives on the node that ran the map.
        A fetch that fails — dead source node, or an injected transient
        failure — is retried with exponential backoff + jitter up to
        :data:`SHUFFLE_FETCH_RETRIES` times (:class:`_ShuffleStall`); only
        then does the reduce escalate to ``map_output_lost`` so the map
        re-runs (Hadoop's fetch-failure -> map re-execution path).
        """
        partition = assignment.task_index
        outputs = job.completed_map_outputs()
        failed_sources = [
            output
            for output in outputs
            if output.node
            and (
                (
                    self.jobtracker is not None
                    and not self.jobtracker.tracker_is_serving(output.node)
                )
                or self.sim.faults.shuffle_fetch_fails(
                    assignment.attempt_id, output.node, retry
                )
            )
        ]
        if failed_sources or not job.maps_done:
            nodes = sorted({o.node for o in failed_sources})
            if retry < SHUFFLE_FETCH_RETRIES:
                raise _ShuffleStall(nodes)
            for output in failed_sources:
                self.jobtracker.map_output_lost(
                    job.job_id, output.task_index, output.node
                )
            self.sim.bus.publish(
                "mr.shuffle.fetch_failed",
                self.sim.now,
                tracker=self.name,
                attempt=assignment.attempt_id,
                sources=nodes,
                retries=retry,
            )
            raise FetchFailedError(
                f"could not fetch map output from node(s) {nodes} "
                f"after {retry} retries"
            )
        shuffle_time, shuffle_bytes = self._price_shuffle(outputs, partition)

        # Frozen (framed) map outputs slim to this partition's blob
        # before pickling into the pool; object-form outputs pass
        # through unchanged (slice_for returns self).
        shipped = [output.slice_for(partition) for output in outputs]
        work = functools.partial(
            reduce_attempt_work,
            job.job,
            shipped,
            partition,
            self.name,
            self.mr_config,
        )
        inline = self._run_inline(job.job)
        if inline:
            work = functools.partial(
                work, side_reader=self._side_reader, node_cache=self.node_cache
            )

        def finalize(payload):
            execution, text = payload
            if execution.perf:
                PERF.merge(execution.perf)
            execution.counters.increment(C.REDUCE_SHUFFLE_BYTES, shuffle_bytes)
            # Write this partition's output file to HDFS from this node.
            client = self.output_client_factory(self.name)
            out_path = f"{job.output_path}/{part_file_name(partition)}"
            write = client.put_bytes(
                out_path, text.encode("utf-8"), overwrite=True
            )
            execution.counters.increment(C.HDFS_BYTES_WRITTEN, write.length)
            duration = execution.duration + shuffle_time + write.elapsed
            execution.duration = duration
            self._publish_violations(assignment, execution)
            return execution, duration

        return work, finalize, inline

    def _publish_violations(self, assignment, execution) -> None:
        """Surface runtime-sanitizer findings on the event bus.

        Published under ``mr.task.sanitizer`` so chaos-drill timelines
        (which subscribe to the ``mr.task`` prefix) show them inline
        with the task lifecycle.  Runs in the simulation thread.
        """
        for message in execution.violations:
            self.sim.bus.publish(
                "mr.task.sanitizer",
                self.sim.now,
                tracker=self.name,
                attempt=assignment.attempt_id,
                violation=message,
            )

    #: Parallel copier threads per reduce (mapred.reduce.parallel.copies).
    PARALLEL_COPIES = 5

    def _price_shuffle(self, outputs, partition: int) -> tuple[float, int]:
        """Network time + bytes to pull one partition from all maps."""
        per_source: list[float] = []
        total_bytes = 0
        for output in outputs:
            nbytes = output.partition_bytes(partition)
            if nbytes == 0:
                continue
            total_bytes += nbytes
            per_source.append(
                self.fetcher.network.transfer_time(output.node, self.name, nbytes)
            )
        if not per_source:
            return 0.0, 0
        elapsed = max(max(per_source), sum(per_source) / self.PARALLEL_COPIES)
        return elapsed, total_bytes

    def _side_reader(self, path: str) -> tuple[str, float]:
        """Read an auxiliary HDFS file from this node, returning cost.

        The cost model's per-byte streaming charge represents the open/
        deserialize overhead students pay per redundant read.
        """
        read = self.output_client_factory(self.name).read_bytes(path)
        text = read.text()
        cost = self.mr_config.cost
        elapsed = (
            read.elapsed
            + cost.side_open_overhead
            + len(text) * cost.side_read_per_byte
        )
        return text, elapsed

    # -- shuffle retry ------------------------------------------------------
    def _shuffle_backoff(self, attempt_id: str, retry: int) -> float:
        """Exponential backoff with deterministic jitter for one re-fetch.

        The jitter draw comes from a stream named by (attempt, retry),
        so it is identical across serial and pooled runs and across
        replays of the same seed.
        """
        delay = min(SHUFFLE_RETRY_BASE * (2.0 ** retry), SHUFFLE_RETRY_MAX)
        spread = self.mr_config.shuffle_retry_jitter
        if spread > 0.0:
            jitter = self.rng.child("shuffle-retry", attempt_id, retry).uniform(
                -spread, spread
            )
            delay *= 1.0 + jitter
        return delay

    def _schedule_shuffle_retry(
        self, assignment: "Assignment", stall: _ShuffleStall, retry: int
    ) -> None:
        self.shuffle_retries += 1
        delay = self._shuffle_backoff(assignment.attempt_id, retry)
        self.sim.bus.publish(
            "mr.shuffle.retry",
            self.sim.now,
            tracker=self.name,
            attempt=assignment.attempt_id,
            sources=stall.nodes,
            retry=retry + 1,
            delay=delay,
        )
        running = self.running.get(assignment.attempt_id)
        if running is None:
            running = _RunningAttempt(assignment=assignment)
            self.running[assignment.attempt_id] = running
        running.completion = self.sim.schedule(
            delay, self._retry_launch, assignment, retry + 1
        )

    def _retry_launch(self, assignment: "Assignment", retry: int) -> None:
        if not self.is_serving or self.jobtracker is None:
            return
        if assignment.attempt_id not in self.running:
            return  # killed while backing off
        job = self.jobtracker.running_job(assignment.job_id)
        if job.finished:
            self.running.pop(assignment.attempt_id, None)
            return
        self._launch(assignment, retry=retry)

    def _timeout_fires(self, assignment: "Assignment", timeout: float) -> None:
        self.sim.bus.publish(
            "mr.task.timeout",
            self.sim.now,
            tracker=self.name,
            attempt=assignment.attempt_id,
            timeout=timeout,
        )
        self._fail(
            assignment,
            f"Task {assignment.attempt_id} failed to report status for "
            f"{timeout:.0f} seconds. Killing!",
        )

    # -- completion & failure ---------------------------------------------
    def _complete(self, assignment: "Assignment", result, duration: float) -> None:
        self.running.pop(assignment.attempt_id, None)
        if not self.is_serving or self.jobtracker is None:
            return
        self.jobtracker.task_completed(self, assignment, result, duration)

    def _schedule_failure(
        self,
        assignment: "Assignment",
        exc: Exception,
        counts_against: bool = True,
        running: _RunningAttempt | None = None,
    ) -> None:
        """User-code error: the attempt burns startup time, then fails."""
        duration = self.mr_config.cost.task_startup + 2.0
        completion = self.sim.schedule(
            duration, self._fail, assignment, str(exc), counts_against
        )
        if running is None:
            running = _RunningAttempt(assignment=assignment)
            self.running[assignment.attempt_id] = running
        running.completion = completion

    def _schedule_heap_leak(
        self,
        assignment,
        duration: float,
        job,
        running: _RunningAttempt | None = None,
    ) -> None:
        burn = duration * HEAP_LEAK_BURN_FRACTION
        completion = self.sim.schedule(
            burn,
            self._heap_leak_fires,
            assignment,
            job.conf.crash_daemons_on_heap_leak,
        )
        if running is None:
            running = _RunningAttempt(assignment=assignment)
            self.running[assignment.attempt_id] = running
        running.completion = completion

    def _heap_leak_fires(self, assignment, crash_daemons: bool) -> None:
        self.running.pop(assignment.attempt_id, None)
        error = HeapExhaustedError(
            "java.lang.OutOfMemoryError: Java heap space"
        )
        if self.jobtracker is not None:
            self.jobtracker.task_failed(self, assignment, str(error))
        self.sim.bus.publish(
            "mr.task.heap_leak",
            self.sim.now,
            tracker=self.name,
            attempt=assignment.attempt_id,
        )
        if crash_daemons:
            # The leak kills the shared JVM heap: TaskTracker and the
            # co-located DataNode daemon both die (the paper's cascade).
            self.crash()
            if self.co_datanode is not None and self.co_datanode.is_serving:
                self.co_datanode.crash()

    def _fail(
        self, assignment: "Assignment", reason: str, counts_against: bool = True
    ) -> None:
        self.running.pop(assignment.attempt_id, None)
        if not self.is_serving or self.jobtracker is None:
            return
        self.jobtracker.task_failed(
            self, assignment, reason, counts_against=counts_against
        )

    def kill_attempt(self, attempt_id: str) -> bool:
        """Cancel a running attempt (losing speculative twin)."""
        # Let in-flight work resolve first (see _halt) so the kill
        # cancels a scheduled completion, exactly as on a serial run.
        self.backend.join_all()
        running = self.running.pop(attempt_id, None)
        if running is None:
            return False
        if running.completion is not None:
            running.completion.cancel()
        return True

    def __repr__(self) -> str:
        return (
            f"TaskTracker({self.name}, {self.state.value}, "
            f"running={len(self.running)})"
        )
