"""Sort, partition, combine, group: the machinery between map and reduce.

This module is pure data-plumbing over Writables; the byte and record
accounting it returns feeds the counters the course's combiner lecture
has students compare ("increased map task run time ... versus reduced
network traffic").

One shape carries map output from the map attempt to the reduce groups:
the **key run** ``(key, values)``, one key standing for the adjacent
records whose values it holds.  Every record of a run has a key that
can stand in for the run's key: of the same exact class in
:data:`~repro.mapreduce.types.SORT_KEY_PINS_ENCODING` (``Text``,
``IntWritable``, ``LongWritable``, ``NullWritable``) and with the same
sort key — so the same encoding, size and partition.  A key of any
other class (``FloatWritable``, whose ``0.0 == -0.0``;
``record_writable`` keys, whose ``(1,) == (1.0,)``; subclasses) is a
run of one record.  A map-output partition is a list of runs: a map
bucket's in key order, a combiner's output one run per emission in
emission order.  The wire (:mod:`repro.mapreduce.wire`) frames a
partition run by run and decodes it back into runs, and
:func:`merge_for_reduce` groups the runs of every map output.

Hot-path notes: these functions sit inside every task attempt, so they
pay per *run* where they can, and per record only where they must.  A
map attempt's output arrives as two typed columns
(:class:`~repro.mapreduce.types.Column`), the keys and the values as
user code emitted them, and :func:`_runs` orders them by one rule:
records in emission order become what a stable sort by ``sort_key()``
and a cut between adjacent unequal keys (``Writable.__eq__``) would
give, each run in emission order.  A key column of one exact
``SORT_KEY_PINS_ENCODING`` class files its records by hashing their
sort keys — a plain key itself, or a Writable's ``value`` read in one
C-level pass (:func:`_hash_runs`) — and sorts only the distinct sort
keys; a run costs one key Writable and, in :func:`partition_pairs`,
one partitioner call.  Every other key column becomes Writable pairs
and takes the stable sort and the neighbour walk of :func:`_key_runs`.
Values on both paths, and a combiner's output, are the columns'
Writables (:meth:`Column.writables
<repro.mapreduce.types.Column.writables>`): one per distinct plain
``str`` or ``int`` value, shared by its records as Hadoop's reduce
iterator reuses its value object, and one per plain ``float`` record.
Byte totals come per column
(:meth:`Column.nbytes <repro.mapreduce.types.Column.nbytes>`), and a
``MapOutput`` carries its per-partition totals from the moment its
attempt ends (:func:`bucket_totals`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, compress, islice, pairwise
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple

from repro.mapreduce import wire
from repro.mapreduce.api import Context, Reducer
from repro.mapreduce.counters import C, Counters, PerfStats, _perf_clock
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.types import (
    SORT_KEY_PINS_ENCODING,
    Column,
    Writable,
    typed_columns,
)
from repro.util.errors import WireFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.shm import ShmSlice

Pair = tuple[Writable, Writable]
Run = wire.Run

_KEY = operator.itemgetter(0)
_VALUE = operator.itemgetter(1)


def _records(runs: Iterable[Run]) -> int:
    return sum(map(len, map(_VALUE, runs)))


def sort_pairs(pairs: list[Pair]) -> list[Pair]:
    """Sort by key (stable, so equal-key value order is emission order)."""
    return sorted(pairs, key=_pair_sort_key)


def _pair_sort_key(kv: Pair):
    return kv[0].sort_key()


def is_key_sorted(pairs: list[Pair]) -> bool:
    """True when ``pairs`` is non-descending by key sort order."""
    sort_keys = [kv[0].sort_key() for kv in pairs]
    return all(map(operator.le, sort_keys, islice(sort_keys, 1, None)))


def _key_runs(pairs: list[Pair]) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of each maximal stretch of adjacent equal keys
    (of pairs or of runs: only the first item, the key, is read).

    Two keys are equal — one reduce group — exactly when
    :meth:`Writable.__eq__ <repro.mapreduce.types.Writable.__eq__>`
    says so: same class, and ``sort_key()`` values that compare equal.
    Each key's sort key is taken once (:meth:`Column.sort_keys
    <repro.mapreduce.types.Column.sort_keys>`) and neighbours are
    compared in C-level passes.
    """
    count = len(pairs)
    if not count:
        return iter(())
    keys = list(map(_KEY, pairs))
    classes = list(map(type, keys))
    mixed = len(set(classes)) > 1
    sort_keys = Column(keys, None if mixed else classes[0]).sort_keys()
    is_boundary = map(operator.ne, sort_keys, islice(sort_keys, 1, None))
    if mixed:
        # Mixed key classes (IntWritable(1) beside LongWritable(1)): a
        # change of class starts a run as well.
        is_boundary = map(
            operator.or_,
            is_boundary,
            map(operator.is_not, classes, islice(classes, 1, None)),
        )
    return pairwise([0, *compress(range(1, count), is_boundary), count])


def _hash_runs(sort_keys: Iterable, items: Iterable) -> list[tuple[Any, list]]:
    """The hashed grouping rule: ``(sort_key, items)`` per distinct sort
    key, the sort keys ascending, each item filed under its own sort key
    in emission order.

    For keys of one class in ``SORT_KEY_PINS_ENCODING`` equal sort keys
    are identical keys, totally ordered, so these are the runs a stable
    sort and a cut between unequal neighbours would make.
    """
    by_sort_key: dict = {}
    get = by_sort_key.get
    for sort_key, item in zip(sort_keys, items):
        run = get(sort_key)
        if run is None:
            by_sort_key[sort_key] = [item]
        else:
            run.append(item)
    return [(sort_key, by_sort_key[sort_key]) for sort_key in sorted(by_sort_key)]


def _runs(keys: Column, values: Column) -> list[Run]:
    """An attempt's output, typed columns in emission order, as key runs
    in key order: the map side's one rule.

    A hashed run's key is its first emitted key (plain keys: one
    Writable built for the run); its values are the value column's
    Writables, a plain ``str`` or ``int`` value's one Writable shared
    by every record of that value.  On the sorted path a stretch of
    equal keys of a ``SORT_KEY_PINS_ENCODING`` class (inside a mixed
    column) is one run, and every other key a run of its own.
    """
    if keys.cls in SORT_KEY_PINS_ENCODING:
        sort_keys = keys.sort_keys()
        runs = _hash_runs(sort_keys, values.writables())
        if keys.plain:
            heads = map(keys.cls, map(_KEY, runs))
        else:
            first_emitted = dict(zip(reversed(sort_keys), reversed(keys.items)))
            heads = map(first_emitted.__getitem__, map(_KEY, runs))
        return list(zip(heads, map(_VALUE, runs)))
    pairs = sort_pairs(list(zip(keys.writables(), values.writables())))
    runs = []
    for start, stop in _key_runs(pairs):
        if stop - start == 1 or type(pairs[start][0]) in SORT_KEY_PINS_ENCODING:
            runs.append((pairs[start][0], list(map(_VALUE, pairs[start:stop]))))
        else:
            runs += ((key, [value]) for key, value in pairs[start:stop])
    return runs


def combiner_groups(runs: list[Run]) -> list[Run]:
    """A key-sorted bucket's combiner groups: its runs, adjacent runs
    whose keys are equal (``Writable.__eq__``: ``0.0`` beside ``-0.0``,
    or two ``IntWritable(1)`` runs a ``LongWritable(1)`` run parted)
    joined into one group."""
    spans = list(_key_runs(runs))
    if len(spans) == len(runs):  # no two neighbours equal
        return runs
    return [
        runs[start]
        if stop - start == 1
        else (runs[start][0], [value for _, values in runs[start:stop] for value in values])
        for start, stop in spans
    ]


def _groups(runs: list[Run]) -> list[Run]:
    """The reduce groups of runs taken from every map output in map
    order: keys ascending, each group's values in map order.

    Runs whose keys are all of one ``SORT_KEY_PINS_ENCODING`` class are
    filed by :func:`_hash_runs` on their keys' sort keys.  Any other mix
    is cut into records first — so a key that does not sort (a
    ``record_writable`` key holding a ``nan``) meets the same stable
    sort however the runs cut it — then stably sorted and walked by
    :func:`_key_runs`.  Every group's value list is
    fresh: a retried reduce attempt merges the same object-form outputs
    again.
    """
    if not runs:
        return []
    heads = list(map(_KEY, runs))
    classes = set(map(type, heads))
    if len(classes) == 1 and (cls := classes.pop()) in SORT_KEY_PINS_ENCODING:
        return [
            (spans[0][0], [value for _, values in spans for value in values])
            for _, spans in _hash_runs(Column(heads, cls).sort_keys(), runs)
        ]
    records = sort_pairs([(key, value) for key, values in runs for value in values])
    return [
        (records[start][0], list(map(_VALUE, records[start:stop])))
        for start, stop in _key_runs(records)
    ]


def _groups_in_order(groups: list[Run]) -> bool:
    """No key split over two adjacent groups (``Writable.__eq__``), and
    keys of ``SORT_KEY_PINS_ENCODING`` classes non-descending by
    :func:`is_key_sorted`'s own rule.

    Other keys go unordered here: a bucket holds its share of what the
    stable sort made of the whole attempt, and one ``record_writable``
    key holding a ``nan`` (less than nothing, greater than nothing)
    anywhere in the attempt can leave the other keys of every bucket in
    any order.
    """
    keys = list(map(_KEY, groups))
    if set(map(type, keys)) <= SORT_KEY_PINS_ENCODING and not is_key_sorted(groups):
        return False
    return not any(map(operator.eq, keys, islice(keys, 1, None)))


def partition_pairs(
    keys: Column, values: Column, partitioner: Partitioner, num_reduces: int
) -> dict[int, list[Run]]:
    """Order a map attempt's output by key and bucket it by partition.

    ``keys`` and ``values`` are the attempt's typed columns, in emission
    order.  Each non-empty partition's bucket comes back as key runs in
    key order (:func:`_runs`), what a stable sort and a per-record
    bucketing pass would make.  The partitioner is asked once per run,
    in key order, and the run joins its bucket whole.  Consumers read
    absent partitions via ``.get(p, ())``.
    """
    part = partitioner.partition
    buckets: dict[int, list[Run]] = {}
    for run in _runs(keys, values):
        p = part(run[0], num_reduces)
        bucket = buckets.get(p)
        if bucket is None:
            buckets[p] = [run]
        else:
            bucket.append(run)
    return buckets


def bucket_totals(
    buckets: dict[int, list[Run]], value_cls: type | None
) -> tuple[dict[int, int], dict[int, int]]:
    """Each bucket's record count and payload bytes, in one column pass
    per bucket: a run's key is sized once and counted per record, and
    the bucket's values are sized as one :class:`Column` of the
    attempt's value class (``None`` for a mixed column)."""
    records: dict[int, int] = {}
    nbytes: dict[int, int] = {}
    for partition, runs in buckets.items():
        lengths = list(map(len, map(_VALUE, runs)))
        key_sizes = [key.serialized_size() for key, _ in runs]
        values = list(chain.from_iterable(map(_VALUE, runs)))
        records[partition] = len(values)
        nbytes[partition] = sum(map(operator.mul, key_sizes, lengths)) + Column(
            values, value_cls
        ).nbytes()
    return records, nbytes


def run_combiner(
    combiner_cls: type[Reducer],
    groups: list[Run],
    context: Context,
    counters: Counters,
) -> tuple[list[Run], int]:
    """Apply a combiner to one partition of a map task's output.

    ``groups`` are its ``(key, values)`` groups in key order, as
    :func:`combiner_groups` makes them.  Returns the combined output —
    each emission a run of one record, its value in a one-item tuple,
    in emission order, which is all the wire and the reduce merge ask
    of a partition — and its payload bytes, sized per column.  Counter
    deltas (COMBINE_INPUT/OUTPUT_RECORDS) land in ``counters``.  The
    order is checked in debug mode at one step per group: no key may be
    split over two adjacent groups, and keys of
    ``SORT_KEY_PINS_ENCODING`` classes must be non-descending
    (:func:`_groups_in_order`).
    """
    counters.increment(C.COMBINE_INPUT_RECORDS, _records(groups))
    if __debug__ and not _groups_in_order(groups):
        raise AssertionError("run_combiner received groups out of key order")
    combiner = combiner_cls()
    combiner.setup(context)
    for key, values in groups:
        combiner.reduce(key, values, context)
    combiner.cleanup(context)
    keys, values = typed_columns(*context.drain_columns())
    counters.increment(C.COMBINE_OUTPUT_RECORDS, len(keys.items))
    runs = list(zip(keys.writables(), zip(values.writables())))
    return runs, keys.nbytes() + values.nbytes()


@dataclass
class MapOutput:
    """One completed map task's partitioned, (optionally) combined output.

    Two representations share this class:

    - **object form** (``partitions``): partition -> key runs, what the
      serial path produces and what an output whose columns do not pack
      stays in;
    - **binary form** (``frames``): partition -> wire blob, produced by
      :meth:`freeze` inside pool workers so a map result crosses the
      process boundary as a few ``bytes`` objects instead of thousands
      of pickled Writables.  Under ``shuffle_transport="shm"``
      :meth:`publish_shm` then moves the blobs into a shared segment
      and leaves each partition's
      :class:`~repro.mapreduce.shm.ShmSlice` — where its blob now
      lives — in the blob's place, so only (segment, offset, length)
      triples cross the pool; readers decode from a shared
      ``memoryview`` via :func:`repro.mapreduce.shm.attach_slice`.

    Both forms carry per-partition totals, ``records`` and ``nbytes``,
    set once when the attempt ends by the pass that already touches
    every record: the combiner's output columns, the wire encoder in
    :meth:`freeze`, or else :func:`bucket_totals`.  The JobTracker and
    every reduce's shuffle pricing read them as they stand.  Byte
    totals are *payload* bytes (identical between the two forms — the
    codec's entry payload width equals ``serialized_size()``), which is
    what keeps framed and object runs' counters bit-identical.  An
    absent partition is empty: read totals with ``.get(p, 0)``.
    """

    task_index: int
    node: str
    #: Object form; ``None`` once frozen into frames.
    partitions: dict[int, list[Run]] | None = field(default_factory=dict)
    #: Binary form; ``None`` until :meth:`freeze`.  Each value is the
    #: partition's wire blob, or after :meth:`publish_shm` the
    #: ``ShmSlice`` locating it in shared memory.
    frames: dict[int, bytes | ShmSlice] | None = None
    #: partition -> record count.
    records: dict[int, int] = field(default_factory=dict)
    #: partition -> serialized payload bytes.
    nbytes: dict[int, int] = field(default_factory=dict)

    @property
    def frozen(self) -> bool:
        """In the binary form."""
        return self.frames is not None

    def freeze(self, perf: PerfStats | None = None) -> bool:
        """Encode every partition into a wire blob and drop the lists.

        Returns ``True`` on success.  A partition with a column that does
        not pack (mixed classes, an integer past its kind's width, a
        custom or ``record_writable`` class: see :mod:`repro.mapreduce.wire`)
        leaves the output in object form — it ships as pickled runs
        instead, counted in ``perf.frame_fallbacks`` — and returns
        ``False``.  On success the totals are the encoder's own
        accounting.  The ``map_serialize_ms`` clock stops before the
        lists are dropped: freeing records is not encoding.
        """
        if self.frozen:
            return True
        assert self.partitions is not None
        t0 = _perf_clock() if perf is not None else 0.0
        frames: dict[int, bytes] = {}
        records: dict[int, int] = {}
        nbytes: dict[int, int] = {}
        try:
            for partition, runs in self.partitions.items():
                frames[partition], nbytes[partition] = wire.encode_runs(runs)
                records[partition] = _records(runs)
        except WireFormatError:
            if perf is not None:
                perf.frame_fallbacks += 1
            return False
        if perf is not None:
            perf.map_serialize_ms += (_perf_clock() - t0) * 1e3
            perf.blobs_encoded += len(frames)
            perf.bytes_framed += sum(len(b) for b in frames.values())
        self.frames, self.records, self.nbytes = frames, records, nbytes
        self.partitions = None
        return True

    def publish_shm(self, token: str, perf: PerfStats | None = None) -> bool:
        """Move frozen frames into a shared segment.

        ``token`` is the parent's :class:`~repro.mapreduce.shm.ShmScope`
        token.  Publishing is strictly best-effort: on any failure (no
        frames, empty output, segment directory gone or full) the output
        stays framed — always correct, just copied across the pool —
        and this returns ``False``.  On success each blob is replaced
        by its slice; the blob bytes then exist exactly once on the
        host, inside the segment.
        """
        if not self.frames:
            return False
        from repro.mapreduce import shm

        slices = shm.publish_frames(self.frames, token, perf)
        if slices is None:
            return False
        self.frames.update(slices)
        return True

    def _blob_for(self, partition: int, perf: PerfStats | None = None):
        """The partition's wire blob — ``bytes``, a shared
        ``memoryview`` (published, attaching lazily), or ``None`` when
        absent.  Callers only in binary form."""
        assert self.frames is not None
        blob = self.frames.get(partition)
        if blob is None or isinstance(blob, bytes):
            return blob
        from repro.mapreduce import shm

        if perf is not None:
            # These bytes never crossed the pool: the reader decodes
            # straight from the shared mapping.
            perf.copy_avoided_bytes += blob.length
        return shm.attach_slice(blob, perf)

    def slice_for(self, partition: int) -> "MapOutput":
        """A slim copy carrying only one partition's frame.

        Framed/shm reduce dispatch ships these so a reduce attempt's
        IPC payload holds just its own partition, not every partition
        of every map — and once published the payload is a ~50-byte
        triple regardless of blob size.  Only meaningful on frozen
        outputs; an unfrozen output is returned whole.
        """
        if self.partitions is not None:
            return self
        blob = self.frames.get(partition)
        if blob is None:
            return MapOutput(self.task_index, self.node, partitions=None, frames={})
        return MapOutput(
            self.task_index,
            self.node,
            partitions=None,
            frames={partition: blob},
            records={partition: self.records[partition]},
            nbytes={partition: self.nbytes[partition]},
        )


class ReduceInput(NamedTuple):
    """One reduce partition merged *and grouped*, with its totals."""

    groups: list[Run]
    records: int
    nbytes: int


def merge_for_reduce(
    outputs: Iterable[MapOutput], partition: int, perf: PerfStats | None = None
) -> ReduceInput:
    """Merge and group one partition's key runs from every map output.

    A k-way merge of sorted runs in Hadoop.  Here each output's runs —
    its own list in object form, decoded from its blob when frozen —
    are taken in map order and grouped by :func:`_groups`: the groups a
    stable sort of the outputs' records would cut (the sort cost model
    charges the equivalent comparisons), whatever mix of forms the
    outputs are in.  The totals are the outputs' own.  When a
    blob is decoded, ``perf`` gets the decode time
    (``shuffle_decode_ms``), the grouping time (``merge_ms``) and the
    blob count.
    """
    t0 = _perf_clock() if perf is not None else 0.0
    runs: list[Run] = []
    records = nbytes = decoded = 0
    for output in outputs:
        records += output.records.get(partition, 0)
        nbytes += output.nbytes.get(partition, 0)
        if output.partitions is not None:
            runs += output.partitions.get(partition, ())
        elif (blob := output._blob_for(partition, perf)) is not None:
            runs += wire.decode_runs(blob)
            decoded += 1
    if perf is None or not decoded:
        return ReduceInput(_groups(runs), records, nbytes)
    t1 = _perf_clock()
    groups = _groups(runs)
    perf.blobs_decoded += decoded
    perf.shuffle_decode_ms += (t1 - t0) * 1e3
    perf.merge_ms += (_perf_clock() - t1) * 1e3
    return ReduceInput(groups, records, nbytes)


# ``benchmarks/perf/trace.py:44-47`` still names this in its trace table,
# and the tracer resolves every name listed there; the alias goes with
# ROADMAP item 1(a).
framed_merge_for_reduce = merge_for_reduce
