"""Sort, partition, combine, group: the machinery between map and reduce.

This module is pure data-plumbing over Writable pairs; the byte and
record accounting it returns feeds the counters the course's combiner
lecture has students compare ("increased map task run time ... versus
reduced network traffic").

Hot-path notes: these functions sit inside every task attempt, so they
pay per *distinct key* where they can, and per record only where they
must.  A map attempt's output arrives as two typed columns
(:class:`~repro.mapreduce.types.Column`), the keys and the values as
user code emitted them.  One grouping rule serves both sides: records
in emission order become what a stable sort by ``sort_key()`` and a
cut between adjacent unequal keys (``Writable.__eq__``) would give —
key-sorted runs of equal keys, each in emission order.  When every key
is of one exact class in
:data:`~repro.mapreduce.types.SORT_KEY_PINS_ENCODING` (``Text``,
``IntWritable``, ``LongWritable``, ``NullWritable``), equal sort keys
are identical keys, so a run *is* the dict entry of its sort key
(:func:`_hash_runs`): records are filed by hashing their sort keys — a
plain key itself, or a Writable's ``value`` read in one C-level pass —
and only the distinct sort keys are sorted.  Every other key column
(``FloatWritable``, whose ``0.0 == -0.0``; ``record_writable`` keys,
whose ``(1,) == (1.0,)``; subclasses; mixed classes) becomes Writable
pairs and takes the stable sort and the neighbour walk of
:func:`_key_runs`.

:func:`partition_pairs` turns the columns into key-sorted buckets.  A
hashed run costs one key Writable, one partitioner call and one extend
of its bucket; its values become Writables only there, one fresh
instance per plain value, as the ``(key, values)`` group the combiner
consumes (so :func:`run_combiner` does not regroup) or as the pairs of
a job without a combiner.  Byte totals come per column
(:meth:`Column.nbytes <repro.mapreduce.types.Column.nbytes>`).  A run of a class that does not pin the
encoding is partitioned record by record, which keeps buckets, tallies
and groups identical to a per-record pass.  :func:`merge_for_reduce`
groups the concatenated map outputs by the same rule, and
``MapOutput`` memoises per-partition byte totals.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from itertools import chain, compress, islice, pairwise, repeat
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple

from repro.mapreduce import wire
from repro.mapreduce.api import Context, Reducer
from repro.mapreduce.counters import C, Counters, PerfStats, _perf_clock
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.types import SORT_KEY_PINS_ENCODING, Column, Writable
from repro.util.errors import WireFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.shm import ShmSlice

Pair = tuple[Writable, Writable]

_KEY = operator.itemgetter(0)
_VALUE = operator.itemgetter(1)


def serialized_bytes(pairs: Iterable[Pair]) -> int:
    """Wire size of a pair list (key bytes + value bytes per record)."""
    return sum(k.serialized_size() + v.serialized_size() for k, v in pairs)


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
    """``(start, stop)`` of each maximal run of adjacent equal keys.

    Two keys are equal — one reduce group — exactly when
    :meth:`Writable.__eq__ <repro.mapreduce.types.Writable.__eq__>`
    says so: same class, and ``sort_key()`` values that compare equal.
    Each key's ``sort_key()`` is taken once and neighbours are compared
    in C-level passes.  The sort keys meet through ``operator.ne``
    directly, never inside a tuple: tuple comparison short-circuits on
    identity and would merge two ``FloatWritable`` NaN keys sharing one
    ``nan`` object, which ``__eq__`` keeps apart.
    """
    count = len(pairs)
    if not count:
        return iter(())
    sort_keys = [kv[0].sort_key() for kv in pairs]
    is_boundary = map(operator.ne, sort_keys, islice(sort_keys, 1, None))
    classes = list(map(type, map(_KEY, pairs)))
    if len(set(classes)) > 1:
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


def _sorted_runs(pairs: list[Pair]) -> list[list[Pair]]:
    """The sorted grouping rule: a stable sort, then :func:`_key_runs`."""
    ordered = sort_pairs(pairs)
    return [ordered[start:stop] for start, stop in _key_runs(ordered)]


def _runs(pairs: list[Pair]) -> list[list[Pair]]:
    """The one grouping rule over pairs: key-sorted runs of equal keys.

    The runs are what :func:`sort_pairs` followed by :func:`_key_runs`
    cuts, the same pair objects in the same order; a key column of one
    class in ``SORT_KEY_PINS_ENCODING`` finds them by hashing.
    """
    if not pairs:
        return []
    keys = list(map(_KEY, pairs))
    classes = set(map(type, keys))
    if len(classes) == 1 and (cls := classes.pop()) in SORT_KEY_PINS_ENCODING:
        return list(map(_VALUE, _hash_runs(Column(keys, cls).sort_keys(), pairs)))
    return _sorted_runs(pairs)


def _groups(pairs: list[Pair]) -> list[tuple[Writable, list[Writable]]]:
    """``(key, values)`` per run of :func:`_runs`: the reduce groups."""
    return [(run[0][0], list(map(_VALUE, run))) for run in _runs(pairs)]


def _groups_in_order(groups: list[tuple[Writable, list[Writable]]]) -> bool:
    """Group keys non-descending by :func:`is_key_sorted`'s own rule, and
    no key split over two adjacent groups (``Writable.__eq__``)."""
    keys = list(map(_KEY, groups))
    return is_key_sorted(groups) and not any(
        map(operator.eq, keys, islice(keys, 1, None))
    )


class PartitionTally:
    """What :func:`partition_pairs` learns on its way, besides the buckets.

    ``records`` / ``nbytes`` are the map-output record and payload-byte
    totals.  ``key_runs`` (only collected when ``runs``) maps each
    partition to the lengths of its bucket's runs of equal keys — the
    cuts :func:`_key_runs` would make — which a pooled attempt's
    :meth:`MapOutput.freeze` hands to :func:`wire.encode_pairs
    <repro.mapreduce.wire.encode_pairs>`, so the key column is written
    per run, not re-derived per record.
    """

    __slots__ = ("records", "nbytes", "key_runs")

    def __init__(self, runs: bool = False):
        self.records = 0
        self.nbytes = 0
        self.key_runs: dict[int, list[int]] | None = {} if runs else None


def partition_pairs(
    keys: Column,
    values: Column,
    partitioner: Partitioner,
    num_reduces: int,
    tally: PartitionTally | None = None,
    *,
    grouped: bool = False,
) -> dict[int, list]:
    """Order a map attempt's output by key and bucket it by partition.

    ``keys`` and ``values`` are the attempt's typed columns, in emission
    order.  Each non-empty partition's bucket comes back key-sorted
    (stably): its pairs, or with ``grouped`` its ``(key, values)``
    groups, what the combiner consumes — what a stable sort and a
    per-record bucketing pass would make.  Consumers read absent
    partitions via ``.get(p, ())``.

    The partitioner is asked once per run of equal keys and the run
    joins its bucket whole — except a run of a class whose sort key does
    not pin its encoding, whose records may still partition apart
    (``0.0`` and ``-0.0`` are one ``FloatWritable`` group but two CRC32
    inputs) and are taken one by one.  A hashed run's key is its first
    emitted key (plain keys: one Writable built for the run).
    ``tally``, when given, is filled along the way.
    """
    key_runs = None
    if tally is not None:
        tally.records = len(keys.items)
        tally.nbytes = keys.nbytes() + values.nbytes()
        key_runs = tally.key_runs
    part = partitioner.partition
    if keys.cls not in SORT_KEY_PINS_ENCODING:
        pairs = list(zip(keys.writables(), values.writables()))
        return _partition_sorted(pairs, part, num_reduces, grouped, key_runs)
    sort_keys = keys.sort_keys()
    runs = _hash_runs(sort_keys, values.items)
    if keys.plain:
        heads = map(keys.cls, map(_KEY, runs))
    else:
        first_emitted = dict(zip(reversed(sort_keys), reversed(keys.items)))
        heads = map(first_emitted.__getitem__, map(_KEY, runs))
    build = values.cls if values.plain else None
    buckets: dict[int, list] = {}
    for key, (_, run) in zip(heads, runs):
        p = part(key, num_reduces)
        bucket = buckets.get(p)
        if bucket is None:
            bucket = buckets[p] = []
        if key_runs is not None:
            key_runs.setdefault(p, []).append(len(run))
        # Distinct keys: a run never meets its key in its bucket.
        if grouped:
            bucket.append((key, run if build is None else list(map(build, run))))
        elif len(run) == 1:
            bucket.append((key, run[0] if build is None else build(run[0])))
        else:
            bucket += zip(repeat(key), run if build is None else map(build, run))
    return buckets


def _partition_sorted(
    pairs: list[Pair],
    part,
    num_reduces: int,
    grouped: bool,
    key_runs: dict[int, list[int]] | None,
) -> dict[int, list]:
    """:func:`partition_pairs` over Writable pairs, by the sorted rule.

    A span that meets an equal key at the end of its bucket joins that
    key's group and run.
    """
    buckets: dict[int, list] = {}
    for run in _sorted_runs(pairs):
        if len(run) == 1 or type(run[0][0]) in SORT_KEY_PINS_ENCODING:
            spans = (run,)
        else:
            spans = [[kv] for kv in run]
        for span in spans:
            key = span[0][0]
            p = part(key, num_reduces)
            bucket = buckets.get(p)
            if bucket is None:
                buckets[p] = [(key, list(map(_VALUE, span)))] if grouped else span
                if key_runs is not None:
                    key_runs[p] = [len(span)]
                continue
            # The bucket's last entry may carry this key too (a run
            # taken record by record, or IntWritable(1) runs either side
            # of a LongWritable(1) one): one group and one run, as
            # grouping the bucket would make them.
            joins = (grouped or key_runs is not None) and bucket[-1][0] == key
            if not grouped:
                bucket += span
            elif joins:
                bucket[-1][1].extend(map(_VALUE, span))
            else:
                bucket.append((key, list(map(_VALUE, span))))
            if key_runs is not None:
                if joins:
                    key_runs[p][-1] += len(span)
                else:
                    key_runs[p].append(len(span))
    return buckets


def run_combiner(
    combiner_cls: type[Reducer],
    groups: list[tuple[Writable, list[Writable]]],
    context: Context,
    counters: Counters,
) -> list[Pair]:
    """Apply a combiner to one partition of a map task's output.

    ``groups`` are its ``(key, values)`` groups in key order, as
    :func:`partition_pairs` returns them with ``grouped``.  Returns the
    combined pair list.  Counter deltas (COMBINE_INPUT/OUTPUT_RECORDS)
    land in ``counters``.  The order is checked in debug mode at one
    step per group: keys must be non-descending and no key may be split
    over two adjacent groups.
    """
    counters.increment(C.COMBINE_INPUT_RECORDS, sum(map(len, map(_VALUE, groups))))
    if __debug__ and not _groups_in_order(groups):
        raise AssertionError("run_combiner received groups out of key order")
    combiner = combiner_cls()
    combiner.setup(context)
    for key, values in groups:
        combiner.reduce(key, values, context)
    combiner.cleanup(context)
    combined = context.drain()
    counters.increment(C.COMBINE_OUTPUT_RECORDS, len(combined))
    return combined


@dataclass
class MapOutput:
    """One completed map task's partitioned, (optionally) combined output.

    Two representations share this class:

    - **object form** (``partitions``): partition -> pair list, what
      the serial path produces and what an output whose columns do not
      pack stays in;
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

    Partition contents are immutable once the map task finishes, so
    per-partition byte/record totals are memoised: the JobTracker and
    every reduce's shuffle pricing re-read them repeatedly.  Byte
    totals are *payload* bytes (identical between the two forms — the
    codec's entry payload width equals ``serialized_size()``), which is
    what keeps framed and object runs' counters bit-identical.  The
    binary form is priced from the memos :meth:`freeze` fills alone.
    """

    task_index: int
    node: str
    #: Object form; ``None`` once frozen into frames.
    partitions: dict[int, list[Pair]] | None = field(default_factory=dict)
    #: Binary form; ``None`` until :meth:`freeze`.  Each value is the
    #: partition's wire blob, or after :meth:`publish_shm` the
    #: ``ShmSlice`` locating it in shared memory.
    frames: dict[int, bytes | ShmSlice] | None = None
    #: partition -> serialized payload bytes: filled by :meth:`freeze`,
    #: or lazily in object form.
    _bytes_memo: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: partition -> record count: filled by :meth:`freeze`, or lazily in
    #: object form.
    _records_memo: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def frozen(self) -> bool:
        """In the binary form the framed reduce path consumes."""
        return self.frames is not None

    def freeze(
        self,
        perf: PerfStats | None = None,
        key_runs: dict[int, list[int]] | None = None,
    ) -> bool:
        """Encode every partition into a wire blob and drop the lists.

        Returns ``True`` on success.  A partition with a column that does
        not pack (mixed classes, an integer past its kind's width, a
        custom or ``record_writable`` class: see :mod:`repro.mapreduce.wire`)
        leaves the output in object form — it ships as pickled pairs
        instead, counted in ``perf.frame_fallbacks`` — and returns
        ``False``.  Byte/record memos are filled from the encoder's own
        accounting: they are what prices the binary form.
        ``key_runs`` are the partitions' run lengths as
        :class:`PartitionTally` records them; the blobs are the same
        with or without them.  The ``map_serialize_ms`` clock stops
        before the lists are dropped: freeing records is not encoding.
        """
        if self.frozen:
            return True
        assert self.partitions is not None
        t0 = _perf_clock() if perf is not None else 0.0
        frames: dict[int, bytes] = {}
        key_runs = key_runs or {}
        try:
            for partition, pairs in self.partitions.items():
                blob, payload_bytes = wire.encode_pairs(pairs, key_runs.get(partition))
                frames[partition] = blob
                self._bytes_memo[partition] = payload_bytes
                self._records_memo[partition] = len(pairs)
        except WireFormatError:
            self._records_memo.clear()
            if perf is not None:
                perf.frame_fallbacks += 1
            return False
        if perf is not None:
            perf.map_serialize_ms += (_perf_clock() - t0) * 1e3
            perf.blobs_encoded += len(frames)
            perf.bytes_framed += sum(len(b) for b in frames.values())
        self.frames = frames
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

    def partition_ids(self) -> list[int]:
        """Sorted ids of non-empty partitions (any form)."""
        return sorted(self.partitions if self.frames is None else self.frames)

    def pairs_for(self, partition: int, perf: PerfStats | None = None) -> list[Pair]:
        """This partition's pairs as a list, decoding when binary.

        Callers must treat the result as read-only: in object form it
        is the partition's own list, not a copy.
        """
        if self.partitions is not None:
            return self.partitions.get(partition, [])
        blob = self._blob_for(partition, perf)
        if blob is None:
            return []
        pairs = wire.decode_pair_list(blob)
        if perf is not None:
            perf.blobs_decoded += 1
        return pairs

    def partition_key_sorted(self, partition: int) -> bool:
        """Is this partition non-descending by key?  O(1) when binary
        (the codec records the flag at encode time)."""
        if self.partitions is not None:
            return is_key_sorted(self.partitions.get(partition, []))
        blob = self._blob_for(partition)
        return True if blob is None else wire.blob_key_sorted(blob)

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
        sliced = MapOutput(
            task_index=self.task_index, node=self.node, partitions=None
        )
        blob = self.frames.get(partition)
        sliced.frames = {} if blob is None else {partition: blob}
        if partition in self._bytes_memo:
            sliced._bytes_memo[partition] = self._bytes_memo[partition]
        if partition in self._records_memo:
            sliced._records_memo[partition] = self._records_memo[partition]
        return sliced

    def partition_records(self, partition: int) -> int:
        count = self._records_memo.get(partition)
        if count is None:
            # Binary forms miss only for an absent (empty) partition.
            count = len(self.partitions.get(partition, ())) if self.partitions else 0
            self._records_memo[partition] = count
        return count

    def partition_bytes(self, partition: int) -> int:
        size = self._bytes_memo.get(partition)
        if size is None:
            size = serialized_bytes(self.partitions.get(partition, ())) if self.partitions else 0
            self._bytes_memo[partition] = size
        return size

    def total_bytes(self) -> int:
        return sum(self.partition_bytes(p) for p in self.partition_ids())

    def total_records(self) -> int:
        return sum(self.partition_records(p) for p in self.partition_ids())


class ReduceInput(NamedTuple):
    """One reduce partition merged *and grouped*, with its totals."""

    groups: list[tuple[Writable, list[Writable]]]
    records: int
    nbytes: int


def merge_for_reduce(outputs: Iterable[MapOutput], partition: int) -> ReduceInput:
    """Merge and group one partition's pairs from every map output.

    A k-way merge in Hadoop; here the map outputs are concatenated in
    map order and grouped by :func:`_runs` — the groups a stable sort
    of the concatenation would cut (the sort cost model charges the
    equivalent comparisons).  The totals come from the outputs' memos.
    """
    merged: list[Pair] = []
    nbytes = 0
    for output in outputs:
        merged.extend(output.pairs_for(partition))
        nbytes += output.partition_bytes(partition)
    return ReduceInput(_groups(merged), len(merged), nbytes)


def framed_merge_for_reduce(
    outputs: Iterable[MapOutput], partition: int, perf: PerfStats | None = None
) -> ReduceInput:
    """Merge one partition from framed map outputs, k-way, run by run.

    Each map's blob decodes to key runs — one key Writable and its
    values — already key-sorted (the codec recorded the flag), so the
    runs heap-merge without re-sorting.  ``heapq.merge`` is stable and
    prefers earlier iterables on equal keys — map order, the sequence
    :func:`merge_for_reduce`'s concatenate-and-stable-sort produces,
    since a stream's equal-key records move together either way.
    Adjacent runs of equal keys then join into the groups
    :func:`merge_for_reduce` would cut (the same :func:`_key_runs`
    rule); the totals come from the outputs' memos, not from the
    records.  Any unsorted blob (custom partitioner games, NaN keys)
    falls back to grouping the flattened pairs by :func:`_runs`.
    """
    t0 = _perf_clock() if perf is not None else 0.0
    streams: list[list[tuple[Writable, list[Writable]]]] = []
    all_sorted = True
    records = nbytes = 0
    for output in outputs:
        blob = output._blob_for(partition, perf)
        if blob is None:
            continue
        streams.append(list(wire.decode_runs(blob)))
        all_sorted = all_sorted and output.partition_key_sorted(partition)
        records += output.partition_records(partition)
        nbytes += output.partition_bytes(partition)
    if perf is not None:
        t1 = _perf_clock()
        perf.blobs_decoded += len(streams)
        perf.shuffle_decode_ms += (t1 - t0) * 1e3
        t0 = t1
    if all_sorted:
        runs = list(heapq.merge(*streams, key=_pair_sort_key))
        groups = []
        for start, stop in _key_runs(runs):
            key, values = runs[start]
            for _, more in runs[start + 1 : stop]:
                values += more
            groups.append((key, values))
    else:
        groups = _groups(list(wire.flatten_runs(chain.from_iterable(streams))))
    if perf is not None:
        perf.merge_ms += (_perf_clock() - t0) * 1e3
    return ReduceInput(groups, records, nbytes)
