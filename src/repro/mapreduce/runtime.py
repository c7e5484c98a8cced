"""Task execution: run user map/reduce code and price the work.

Used identically by the serial :class:`~repro.mapreduce.local_runner.LocalJobRunner`
(assignment-1 mode) and by cluster TaskTrackers, so a job computes the
same answer in both — the equivalence the course demonstrates by
rerunning assignment-1 jars on HDFS, and which this repository's
integration tests assert.

Real user code runs eagerly over real records; the returned
``duration`` prices that work on the simulated hardware via the
timing model in :mod:`repro.mapreduce.config`.

One path from split to part file, whichever driver and backend:
:func:`prefetch_split` (the split's block I/O, in the driver's thread)
-> :func:`execute_map` (parse, map, sort, partition, combine; wrapped by
:func:`map_attempt_work` when the result has to cross a pool) ->
:func:`reduce_attempt_work` (merge, reduce, render).  All three run
inside :func:`attempt_heap`.  TaskTrackers and the ``LocalJobRunner``
build the work they submit with :func:`map_attempt` and
:func:`reduce_attempt`.
"""

from __future__ import annotations

import functools
import gc
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.mapreduce.api import Context, Job
from repro.mapreduce.config import (
    TASK_STARTUP,
    JobConf,
    MapReduceConfig,
    cpu_time,
    sort_time,
)
from repro.mapreduce.inputformat import (
    FetchStats,
    InputSplit,
    MapInput,
    PrefetchedSplit,
    TextInputFormat,
)
from repro.mapreduce.counters import C, Counters, PerfStats
from repro.mapreduce.outputformat import TextOutputFormat
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mapreduce.shuffle import (
    MapOutput,
    Pair,
    ReduceInput,
    Run,
    bucket_totals,
    combiner_groups,
    merge_for_reduce,
    partition_pairs,
    run_combiner,
)
from repro.mapreduce.types import Writable, typed_columns
from repro.util.errors import TaskFailedError

SideReader = Callable[[str], tuple[str, float]]

_heap_lock = threading.Lock()
#: Attempt scopes open in this process, and whether the cyclic
#: collector was on when the outermost of them opened.
_open_heaps = 0
_gc_was_enabled = False


class _AttemptHeap:
    """The attempt scope: a context manager and a decorator in one
    stateless object (its state is the module's ``_open_heaps`` /
    ``_gc_was_enabled``), so entering it builds nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        global _open_heaps, _gc_was_enabled
        with _heap_lock:
            if _open_heaps == 0:
                _gc_was_enabled = gc.isenabled()
                gc.disable()
            _open_heaps += 1

    def __exit__(self, *exc_info) -> None:
        global _open_heaps
        with _heap_lock:
            _open_heaps -= 1
            if _open_heaps == 0 and _gc_was_enabled:
                gc.enable()

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)

        return scoped


_ATTEMPT_HEAP = _AttemptHeap()


def attempt_heap() -> _AttemptHeap:
    """An attempt owns its heap for its lifetime, as a Hadoop 1.x child
    JVM does: the cyclic collector is paused while any attempt runs.

    An attempt allocates one tracked tuple per record; the generational
    collector would re-walk all of them (and every earlier map's
    retained output) over and over to find nothing — ``Text``,
    ``IntWritable`` and ``(key, value)`` pairs are acyclic and die by
    refcount, paused or not.  Cycles user code builds wait for the
    collection the interpreter runs by itself right after the outermost
    scope closes, so memory is bounded by one attempt.

    Re-entrant (:func:`map_attempt_work` -> :func:`execute_map` nest):
    the outermost entry records ``gc.isenabled()``, the outermost exit
    restores exactly that.  Attempts run in the simulation thread or in
    a pool worker process, never on two threads of one process; the
    lock keeps the scope correct for a program that calls the attempt
    functions from threads of its own.  Host-side only — no simulated
    quantity and no output depends on it.
    """
    return _ATTEMPT_HEAP


def job_partitioner(job: Job) -> Partitioner:
    return job.partitioner if job.partitioner is not None else HashPartitioner()


def job_input_format(job: Job):
    return job.input_format if job.input_format is not None else TextInputFormat


def job_pooled(backend, job: Job, splits: list[InputSplit]) -> bool:
    """Where every attempt of ``job`` runs, decided once, at submission:
    on ``backend``'s pool if its policy pools this much input and the
    job shares no per-node state, else inline."""
    return (
        backend.pools(sum(split.length for split in splits))
        and not job.shares_node_state
    )


@dataclass(slots=True)
class MapExecution:
    """Everything a finished map task hands back to the framework."""

    output: MapOutput
    counters: Counters
    duration: float
    #: Runtime-sanitizer violation messages (empty unless
    #: ``MapReduceConfig.sanitize`` found something).
    violations: list[str] = field(default_factory=list)
    #: Worker-side host-timing breakdown (PerfStats.as_dict()), merged
    #: into the process-wide PERF by the caller.  Never part of the
    #: deterministic result surface.
    perf: dict | None = field(default=None, compare=False)


@dataclass(slots=True)
class ReduceExecution:
    """A finished reduce task's output pairs plus accounting.

    ``pairs`` is emptied before a pooled attempt's result crosses the
    pool: callers use the rendered text, and the record count is the
    ``REDUCE_OUTPUT_RECORDS`` counter.
    """

    pairs: list[Pair]
    counters: Counters
    duration: float  # merge + user code; shuffle/write priced by caller
    #: Runtime-sanitizer violation messages (empty unless
    #: ``MapReduceConfig.sanitize`` found something).
    violations: list[str] = field(default_factory=list)
    #: Worker-side host-timing breakdown (see MapExecution.perf).
    perf: dict | None = field(default=None, compare=False)


def _wrap_user_error(phase: str, exc: Exception) -> TaskFailedError:
    if isinstance(exc, TaskFailedError):
        return exc
    return TaskFailedError(f"{phase} raised {type(exc).__name__}: {exc}")


def _make_sanitizer(
    mr_config: MapReduceConfig,
    conf: JobConf,
    counters: Counters,
    task: str,
):
    """A TaskSanitizer when ``sanitize`` is on, else None.

    Imported lazily so the analysis package (and its import of this
    package) only loads when the feature is enabled — no cycle, no
    overhead on the default path.  Violation counts land in ``counters``
    (group "Sanitizer"), riding the normal per-task merge into the job.
    """
    if not mr_config.sanitize:
        return None
    from repro.analysis.sanitizer import TaskSanitizer

    return TaskSanitizer(conf=conf, counters=counters, task=task)


@dataclass(slots=True)
class PrefetchedInput:
    """A split's bytes plus the I/O accounting already paid for them.

    Built in the simulation thread by :func:`prefetch_split`, so
    :func:`execute_map` touches no simulation state and can run inside
    a pool worker.
    """

    payload: PrefetchedSplit
    stats: FetchStats


def prefetch_split(job: Job, split: InputSplit, fetch) -> PrefetchedInput:
    """Perform a split's block I/O, before any user code runs."""
    stats = FetchStats()
    payload = job_input_format(job).prefetch(split, fetch, stats)
    return PrefetchedInput(payload=payload, stats=stats)


@attempt_heap()
def execute_map(
    job: Job,
    split: InputSplit,
    prefetched: PrefetchedInput,
    mr_config: MapReduceConfig,
    side_reader: SideReader | None = None,
    node_cache: dict[str, Any] | None = None,
    task_node: str | None = None,
    disk_write_bw: float = 100 * 1024 * 1024,
    perf: PerfStats | None = None,
) -> MapExecution:
    """Run one map task over one split's prefetched bytes.

    The block I/O is already done and paid for (:func:`prefetch_split`);
    records are parsed here, where the user code consumes them.

    ``perf`` is given only by a pooled attempt (:func:`map_attempt_work`),
    whose output crosses a process boundary: the output is then frozen
    into wire blobs here, with the freeze's timings in ``perf``.
    """
    counters = Counters()
    conf: JobConf = job.conf
    sanitizer = _make_sanitizer(
        mr_config, conf, counters, f"map[{split.path}#{split.block_index}]"
    )
    context_kwargs = dict(
        conf=conf,
        counters=counters,
        side_reader=side_reader,
        node_cache=node_cache,
        task_node=task_node,
        input_path=split.path,
    )
    context = (
        sanitizer.make_context(**context_kwargs)
        if sanitizer is not None
        else Context(**context_kwargs)
    )
    stats = prefetched.stats
    split_input = MapInput(job_input_format(job), prefetched.payload, sanitizer)

    mapper = job.mapper()  # type: ignore[misc]
    try:
        mapper.run(split_input, context)
        # Typed inside the user-code boundary: an emission that does not
        # wrap fails the attempt here, as ``map raised ...``.
        keys, values = typed_columns(*context.drain_columns())
    except Exception as exc:  # noqa: BLE001 - user code boundary
        raise _wrap_user_error("map", exc) from exc
    split_input.verify_inputs()
    records_in = split_input.records

    # One pass orders and buckets the output: every bucket comes back
    # as key runs in key order, what the combiner groups and the wire
    # frames as they stand.
    #
    # Free order: the key column holds the last reference to every
    # emitted key but each run's first, and frees them in one pass down
    # the emission order when the task returns.  A plain str or int
    # value column becomes one Writable per distinct value, shared by
    # its records, so the buckets free a handful of values, not one per
    # record.  (Emission-order pairs freed from key-sorted buckets were
    # a random walk over the heap: +6 % CPU on a 1 MiB WordCount.)
    partitions = partition_pairs(keys, values, job_partitioner(job), conf.num_reduces)
    records_out = len(keys.items)
    output_bytes = final_bytes = keys.nbytes() + values.nbytes()
    counters.increment(C.MAP_INPUT_RECORDS, records_in)
    counters.increment(C.MAP_OUTPUT_RECORDS, records_out)
    counters.increment(C.MAP_OUTPUT_BYTES, output_bytes)
    counters.increment(C.HDFS_BYTES_READ, stats.bytes_read)

    combine_time = 0.0
    # partition -> payload bytes, where the combiner's output columns
    # sized them.
    partition_bytes: dict[int, int] = {}
    if job.combiner is not None:
        groups = {p: combiner_groups(runs) for p, runs in partitions.items()}
        if sanitizer is not None:
            # Spot-check the combiner contract on the *uncombined*,
            # key-sorted groups before the real combine consumes them.
            sanitizer.check_combiner(job.combiner, groups)
        combined: dict[int, list[Run]] = {}
        for partition, partition_groups in groups.items():
            try:
                combined[partition], partition_bytes[partition] = run_combiner(
                    job.combiner, partition_groups, context, counters
                )
            except Exception as exc:  # noqa: BLE001 - user code boundary
                raise _wrap_user_error("combine", exc) from exc
        partitions = combined
        final_bytes = sum(partition_bytes.values())
        combine_time = sort_time(records_out) + cpu_time(records_out, 0)
    counters.increment(C.FILE_BYTES_WRITTEN, final_bytes)

    # Spill accounting (simulated): every io.sort.mb overflow is an
    # extra pass over the map output on local disk.
    spills = max(1, math.ceil(output_bytes / mr_config.sort_buffer_bytes))
    counters.increment(C.SPILLED_RECORDS, records_out * spills)
    spill_time = (spills - 1) * (output_bytes / disk_write_bw)

    duration = (
        TASK_STARTUP
        + stats.elapsed
        + cpu_time(records_in, stats.bytes_read)
        + context.extra_time
        + sort_time(records_out)
        + combine_time
        + spill_time
        + final_bytes / disk_write_bw  # write map output to local disk
    )
    output = MapOutput(
        task_index=split.block_index, node=task_node or "", partitions=partitions
    )
    if perf is not None:
        # An output that cannot be framed simply ships in object form
        # (``freeze`` reports False); the backend's pickle fallback
        # remains the safety net behind that.
        partitions = None
        output.freeze(perf)
    # Sized once: a frozen output by the encoder; else by the combiner's
    # output columns (one run per combined record), by the attempt's own
    # totals when one bucket holds every record, or by one column pass
    # per bucket.
    if not output.frozen:
        buckets = output.partitions
        if job.combiner is not None:
            output.records = {p: len(runs) for p, runs in buckets.items()}
            output.nbytes = partition_bytes
        elif len(buckets) == 1:
            output.records = dict.fromkeys(buckets, records_out)
            output.nbytes = dict.fromkeys(buckets, output_bytes)
        else:
            output.records, output.nbytes = bucket_totals(buckets, values.cls)
    return MapExecution(
        output=output,
        counters=counters,
        duration=duration,
        violations=sanitizer.finish() if sanitizer is not None else [],
    )


class IdentityReducer:
    """Pass-through reduce used when a job declares no reducer."""

    def setup(self, context: Context) -> None:
        pass

    def reduce(self, key: Writable, values, context: Context) -> None:
        for value in values:
            context.write(key, value)

    def cleanup(self, context: Context) -> None:
        pass


def execute_reduce(
    job: Job,
    merged: ReduceInput,
    mr_config: MapReduceConfig,
    side_reader: SideReader | None = None,
    node_cache: dict[str, Any] | None = None,
    task_node: str | None = None,
) -> ReduceExecution:
    """Run one reduce task over its merged partition, which arrives
    grouped and key-sorted, with its record and byte totals."""
    counters = Counters()
    conf = job.conf
    sanitizer = _make_sanitizer(
        mr_config, conf, counters, f"reduce[{task_node or 'local'}]"
    )
    context_kwargs = dict(
        conf=conf,
        counters=counters,
        side_reader=side_reader,
        node_cache=node_cache,
        task_node=task_node,
    )
    context = (
        sanitizer.make_context(**context_kwargs)
        if sanitizer is not None
        else Context(**context_kwargs)
    )
    key_groups, in_records, in_bytes = merged
    reducer_cls = job.reducer if job.reducer is not None else IdentityReducer
    reducer = reducer_cls()
    groups = 0
    try:
        reducer.setup(context)
        if sanitizer is not None:
            for key, values in key_groups:
                groups += 1
                snapshot = sanitizer.snapshot_inputs(key, values)
                reducer.reduce(key, values, context)
                sanitizer.verify_inputs("reduce", snapshot, key, values)
        else:
            for key, values in key_groups:
                groups += 1
                reducer.reduce(key, values, context)
        reducer.cleanup(context)
        out_pairs = context.drain()
    except Exception as exc:  # noqa: BLE001 - user code boundary
        raise _wrap_user_error("reduce", exc) from exc

    counters.increment(C.REDUCE_INPUT_RECORDS, in_records)
    counters.increment(C.REDUCE_INPUT_GROUPS, groups)
    counters.increment(C.REDUCE_OUTPUT_RECORDS, len(out_pairs))

    duration = (
        TASK_STARTUP
        + sort_time(in_records)  # the merge
        + cpu_time(in_records, in_bytes)
        + context.extra_time
    )
    return ReduceExecution(
        pairs=out_pairs,
        counters=counters,
        duration=duration,
        violations=sanitizer.finish() if sanitizer is not None else [],
    )


# ---------------------------------------------------------------------------
# Attempt entry points.  These are what a TaskTracker or the runner hands
# to the execution backend; a pooled job's attempts ship to workers, so
# they are module-level (picklable by reference) and a pooled attempt
# passes them *only* picklable, share-nothing arguments: no side
# readers, no node caches, no simulation state.


@attempt_heap()
def map_attempt_work(
    job: Job,
    split: InputSplit,
    prefetched: PrefetchedInput,
    mr_config: MapReduceConfig,
    task_node: str | None,
    disk_write_bw: float,
    shm_token: str | None = None,
) -> MapExecution:
    """One *pooled* map attempt: :func:`execute_map`, frozen.

    The partitioned output is frozen into wire blobs inside the worker
    (by :func:`execute_map`, before it lets go of the attempt's
    records), so what pickles back to the simulation thread is a handful
    of ``bytes`` objects — not a list of per-record Writables.  Under
    ``shuffle_transport="shm"`` the frozen blobs are additionally
    published into a shared-memory segment named by the parent's scope
    ``shm_token``, and only slices ride the pipe.  The result is
    bit-identical in every form; only the representation in transit
    differs.  An inline attempt runs :func:`execute_map` itself and
    never frames: nothing crosses a process boundary there.
    """
    perf = PerfStats()
    execution = execute_map(
        job=job,
        split=split,
        prefetched=prefetched,
        mr_config=mr_config,
        task_node=task_node,
        disk_write_bw=disk_write_bw,
        perf=perf,
    )
    if execution.output.frozen and shm_token is not None:
        # Best-effort: a failed publish (tmpfs full, scope already
        # torn down, nothing to publish) leaves the output framed,
        # which is always correct — just copied instead of shared.
        execution.output.publish_shm(shm_token, perf)
    execution.perf = perf.as_dict()
    return execution


@attempt_heap()
def reduce_attempt_work(
    job: Job,
    map_outputs: list[MapOutput],
    partition: int,
    task_node: str | None,
    mr_config: MapReduceConfig,
    side_reader: SideReader | None = None,
    node_cache: dict[str, Any] | None = None,
) -> tuple[ReduceExecution, str]:
    """One reduce attempt, inline or pooled, up to its output text.

    Merges the already-shuffled map outputs for ``partition``, runs the
    reducer, and renders the output file text; the caller prices the
    shuffle network time and performs the output write (both touch
    simulation state, so they stay in the simulation thread).

    Every mix of frozen and object-form inputs takes the one merge,
    :func:`~repro.mapreduce.shuffle.merge_for_reduce`; its transport
    timings ride the result when it decoded a blob.
    """
    perf = PerfStats()
    merged = merge_for_reduce(map_outputs, partition, perf)
    execution = execute_reduce(
        job=job,
        merged=merged,
        mr_config=mr_config,
        side_reader=side_reader,
        node_cache=node_cache,
        task_node=task_node,
    )
    text = TextOutputFormat.render(execution.pairs)
    execution.pairs = []  # the text is the output; nothing else reads them
    execution.perf = perf.as_dict() if perf.blobs_decoded else None
    return execution, text


# ---------------------------------------------------------------------------
# What a TaskTracker or the LocalJobRunner submits.  Both look the entry
# points up when called, so a wrapper installed over them (e.g. a
# tracer's) still applies.


def map_attempt(
    job: Job,
    split: InputSplit,
    prefetched: PrefetchedInput,
    mr_config: MapReduceConfig,
    task_node: str | None,
    disk_write_bw: float,
    *,
    pooled: bool,
    side_reader: SideReader | None = None,
    node_cache: dict[str, Any] | None = None,
    shm_scope=None,
) -> Callable[[], MapExecution]:
    """One map attempt's zero-argument work: pooled (framed, published
    under ``shm_scope`` if the job has one), or inline with the caller's
    ``side_reader`` and ``node_cache``."""
    if pooled:
        token = None if shm_scope is None else shm_scope.token
        work = functools.partial(map_attempt_work, shm_token=token)
    else:
        work = functools.partial(
            execute_map, side_reader=side_reader, node_cache=node_cache
        )
    return functools.partial(
        work,
        job=job,
        split=split,
        prefetched=prefetched,
        mr_config=mr_config,
        task_node=task_node,
        disk_write_bw=disk_write_bw,
    )


def reduce_attempt(
    job: Job,
    map_outputs: list[MapOutput],
    partition: int,
    task_node: str | None,
    mr_config: MapReduceConfig,
    *,
    pooled: bool,
    side_reader: SideReader | None = None,
    node_cache: dict[str, Any] | None = None,
) -> Callable[[], tuple[ReduceExecution, str]]:
    """One reduce attempt's zero-argument work over ``partition`` of
    ``map_outputs``: pooled, or inline with the caller's ``side_reader``
    and ``node_cache``.  Frozen outputs slim to this partition's blob
    first (``slice_for`` returns an object-form output itself)."""
    shipped = [output.slice_for(partition) for output in map_outputs]
    work = functools.partial(
        reduce_attempt_work, job, shipped, partition, task_node, mr_config
    )
    if pooled:
        return work
    return functools.partial(work, side_reader=side_reader, node_cache=node_cache)
