"""Task execution: run user map/reduce code and price the work.

Used identically by the serial :class:`~repro.mapreduce.local_runner.LocalJobRunner`
(assignment-1 mode) and by cluster TaskTrackers, so a job computes the
same answer in both — the equivalence the course demonstrates by
rerunning assignment-1 jars on HDFS, and which this repository's
integration tests assert.

Real user code runs eagerly over real records; the returned
``duration`` prices that work on the simulated hardware via the
:class:`~repro.mapreduce.config.CostModel`.

One path from split to part file, whichever driver and backend:
:func:`prefetch_split` (the split's block I/O, in the driver's thread)
-> :func:`execute_map` (parse, map, sort, partition, combine; wrapped by
:func:`map_attempt_work` when the result has to cross a pool) ->
:func:`reduce_attempt_work` (merge, reduce, render).  All three run
inside :func:`attempt_heap`.
"""

from __future__ import annotations

import gc
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.mapreduce.api import Context, Job
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.inputformat import (
    FetchStats,
    InputSplit,
    PrefetchedSplit,
    TextInputFormat,
)
from repro.mapreduce.counters import C, Counters, PerfStats
from repro.mapreduce.outputformat import TextOutputFormat
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mapreduce.shuffle import (
    MapOutput,
    Pair,
    PartitionTally,
    ReduceInput,
    framed_merge_for_reduce,
    group_by_key,
    merge_for_reduce,
    partition_pairs,
    run_combiner,
    serialized_bytes,
    sort_pairs,
)
from repro.mapreduce.types import Writable
from repro.util.errors import TaskFailedError

SideReader = Callable[[str], tuple[str, float]]

_heap_lock = threading.Lock()
#: Attempt scopes open in this process, and whether the cyclic
#: collector was on when the outermost of them opened.
_open_heaps = 0
_gc_was_enabled = False


@contextmanager
def attempt_heap():
    """An attempt owns its heap for its lifetime, as a Hadoop 1.x child
    JVM does: the cyclic collector is paused while any attempt runs.

    An attempt allocates one tracked tuple per record; the generational
    collector would re-walk all of them (and every earlier map's
    retained output) over and over to find nothing — ``Text``,
    ``IntWritable`` and ``(key, value)`` pairs are acyclic and die by
    refcount, paused or not.  Cycles user code builds wait for the
    collection the interpreter runs by itself right after the outermost
    scope closes, so memory is bounded by one attempt.

    Re-entrant and thread-safe (inline attempts, ``pooled-threads``
    workers and :func:`map_attempt_work` -> :func:`execute_map` nest):
    the outermost entry records ``gc.isenabled()``, the outermost exit
    restores exactly that.  Host-side only — no simulated quantity and
    no output depends on it.
    """
    global _open_heaps, _gc_was_enabled
    with _heap_lock:
        if _open_heaps == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _open_heaps += 1
    try:
        yield
    finally:
        with _heap_lock:
            _open_heaps -= 1
            if _open_heaps == 0 and _gc_was_enabled:
                gc.enable()


def job_partitioner(job: Job) -> Partitioner:
    return job.partitioner if job.partitioner is not None else HashPartitioner()


def job_input_format(job: Job):
    return job.input_format if job.input_format is not None else TextInputFormat


@dataclass
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


@dataclass
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


@dataclass
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
) -> MapExecution:
    """Run one map task over one split's prefetched bytes.

    The block I/O is already done and paid for (:func:`prefetch_split`);
    records are parsed here, where the user code consumes them.
    """
    counters = Counters()
    conf: JobConf = job.conf
    cost = mr_config.cost
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
    records = job_input_format(job).parse_records(prefetched.payload)

    mapper = job.mapper()  # type: ignore[misc]
    records_in = 0
    try:
        mapper.setup(context)
        if sanitizer is not None:
            for key, value in records:
                records_in += 1
                snapshot = sanitizer.snapshot_inputs(key, value)
                mapper.map(key, value, context)
                sanitizer.verify_inputs("map", snapshot, key, value)
        else:
            for key, value in records:
                records_in += 1
                mapper.map(key, value, context)
        mapper.cleanup(context)
    except Exception as exc:  # noqa: BLE001 - user code boundary
        raise _wrap_user_error("map", exc) from exc

    # Sort once, before partitioning: partitions are key-determined, so
    # a stable bucketing of sorted pairs leaves every bucket key-sorted
    # — the per-partition re-sort the combiner used to pay disappears.
    # The combiner's key groups fall out of the partitioning pass; a job
    # without a combiner collects none.
    tally = PartitionTally(grouped=job.combiner is not None)
    # ``drained`` stays bound until the task returns on purpose: it then
    # holds the last reference to every pair, so they are freed in
    # allocation order.  Dropped here, the key-sorted buckets free them
    # instead — a random walk over the heap that takes ~2.4x as long
    # (+6 % CPU on a 1 MiB WordCount).
    drained = context.drain()
    partitions = partition_pairs(
        sort_pairs(drained), job_partitioner(job), conf.num_reduces, tally
    )
    records_out, output_bytes = tally.records, tally.nbytes
    counters.increment(C.MAP_INPUT_RECORDS, records_in)
    counters.increment(C.MAP_OUTPUT_RECORDS, records_out)
    counters.increment(C.MAP_OUTPUT_BYTES, output_bytes)
    counters.increment(C.HDFS_BYTES_READ, stats.bytes_read)

    combine_time = 0.0
    if job.combiner is not None:
        if sanitizer is not None:
            # Spot-check the combiner contract on the *uncombined*,
            # key-sorted output before the real combine consumes it.
            sanitizer.check_combiner(job.combiner, partitions)
        combined: dict[int, list[Pair]] = {}
        combine_records = 0
        for partition, ppairs in partitions.items():
            try:
                combined[partition] = run_combiner(
                    job.combiner,
                    ppairs,
                    context,
                    counters,
                    presorted=True,
                    groups=tally.groups.pop(partition),
                )
            except Exception as exc:  # noqa: BLE001 - user code boundary
                raise _wrap_user_error("combine", exc) from exc
            combine_records += len(ppairs)
        partitions = combined
        combine_time = cost.sort_time(combine_records) + cost.cpu_time(
            combine_records, 0
        )

    # Without a combiner the partitions hold exactly what was tallied.
    final_bytes = (
        output_bytes
        if job.combiner is None
        else sum(serialized_bytes(p) for p in partitions.values())
    )
    counters.increment(C.FILE_BYTES_WRITTEN, final_bytes)

    # Spill accounting (simulated): every io.sort.mb overflow is an
    # extra pass over the map output on local disk.
    spills = max(1, math.ceil(output_bytes / mr_config.sort_buffer_bytes))
    counters.increment(C.SPILLED_RECORDS, records_out * spills)
    spill_time = (spills - 1) * (output_bytes / disk_write_bw)

    duration = (
        cost.task_startup
        + stats.elapsed
        + cost.cpu_time(records_in, stats.bytes_read)
        + context.extra_time
        + cost.sort_time(records_out)
        + combine_time
        + spill_time
        + final_bytes / disk_write_bw  # write map output to local disk
    )
    output = MapOutput(
        task_index=split.block_index, node=task_node or "", partitions=partitions
    )
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
    merged_pairs: "list[Pair] | ReduceInput",
    mr_config: MapReduceConfig,
    side_reader: SideReader | None = None,
    node_cache: dict[str, Any] | None = None,
    task_node: str | None = None,
) -> ReduceExecution:
    """Run one reduce task over its merged, key-sorted partition.

    A :class:`~repro.mapreduce.shuffle.ReduceInput` (the framed merge)
    arrives grouped, with its record and byte totals; a pair list is
    grouped and sized here.
    """
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
    if isinstance(merged_pairs, ReduceInput):
        key_groups, in_records, in_bytes = merged_pairs
    else:
        key_groups = group_by_key(merged_pairs)
        in_records = len(merged_pairs)
        in_bytes = serialized_bytes(merged_pairs)
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
    except Exception as exc:  # noqa: BLE001 - user code boundary
        raise _wrap_user_error("reduce", exc) from exc

    out_pairs = context.drain()
    counters.increment(C.REDUCE_INPUT_RECORDS, in_records)
    counters.increment(C.REDUCE_INPUT_GROUPS, groups)
    counters.increment(C.REDUCE_OUTPUT_RECORDS, len(out_pairs))

    cost = mr_config.cost
    duration = (
        cost.task_startup
        + cost.sort_time(in_records)  # the merge
        + cost.cpu_time(in_records, in_bytes)
        + context.extra_time
    )
    return ReduceExecution(
        pairs=out_pairs,
        counters=counters,
        duration=duration,
        violations=sanitizer.finish() if sanitizer is not None else [],
    )


# ---------------------------------------------------------------------------
# Attempt entry points.  These are what the drivers hand to an execution
# backend; pooled backends ship them to workers, so they are module-level
# (picklable by reference) and a pooled attempt passes them *only*
# picklable, share-nothing arguments: no side readers, no node caches,
# no simulation state.


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
    """One *pooled* map attempt: :func:`execute_map`, then freeze.

    The partitioned output is frozen into wire blobs *here*, inside the
    worker, so what pickles back to the simulation thread is a handful
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
    )
    # An output that cannot be framed simply ships in object form
    # (freeze reports False); the backend's pickle fallback remains
    # the safety net behind that.
    frozen = execution.output.freeze(perf)
    if frozen and shm_token is not None:
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

    When every input is frozen the maps decode into key runs and
    heap-merge run by run — a stable k-way merge, identical in sequence
    to the concatenate-and-stable-sort that object-form inputs (serial
    backends, inline attempts, unframeable outputs) take.
    """
    if all(output.frozen for output in map_outputs):
        perf = PerfStats()
        merged = framed_merge_for_reduce(map_outputs, partition, perf)
        timings = perf.as_dict()
    else:
        # Object form in play: no transport timings to collect.
        merged = merge_for_reduce(map_outputs, partition)
        timings = None
    execution = execute_reduce(
        job=job,
        merged_pairs=merged,
        mr_config=mr_config,
        side_reader=side_reader,
        node_cache=node_cache,
        task_node=task_node,
    )
    text = TextOutputFormat.render(execution.pairs)
    execution.pairs = []  # the text is the output; nothing else reads them
    execution.perf = timings
    return execution, text
