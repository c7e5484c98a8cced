"""Sort, partition, combine, group: the machinery between map and reduce.

This module is pure data-plumbing over Writable pairs; the byte and
record accounting it returns feeds the counters the course's combiner
lecture has students compare ("increased map task run time ... versus
reduced network traffic").

Hot-path notes: these functions sit inside every task attempt, so they
pay per *run of equal keys* rather than per record.  A map task sorts
its output exactly once; :func:`partition_pairs` then walks that list
as runs of adjacent keys of equal ``(type, sort_key)`` — the grouping
rule of ``Writable.__eq__``, found with one ``sort_key()`` per record
and C-level neighbour comparisons (:func:`_key_runs`).  Each run costs
one partitioner call, one key size and one slice-extend of its bucket
(materialising only non-empty partitions), and is kept as the
``(key, values)`` group the combiner consumes, so :func:`run_combiner`
(``presorted``, still checked) does not regroup.  Runs whose key class
does not pin the encoding to the sort key are partitioned and sized
record by record (:func:`_uniform_runs`), which keeps buckets, tallies
and groups identical to a per-record pass for any input order.  The
reduce side's :func:`group_by_key` is the same walk.  Sizes come from
per-instance ``serialized_size`` memos (see
:class:`~repro.mapreduce.types.Writable`) and per-partition byte memos
on :class:`MapOutput`.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from itertools import chain, compress, islice, pairwise
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from repro.mapreduce import wire
from repro.mapreduce.api import Context, Reducer
from repro.mapreduce.counters import C, Counters, PerfStats, _perf_clock
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.types import SORT_KEY_PINS_ENCODING, Writable
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


def group_by_key(sorted_pairs: Iterable[Pair]) -> Iterator[tuple[Writable, list[Writable]]]:
    """Group a key-sorted pair stream into (key, values) runs."""
    pairs = sorted_pairs if isinstance(sorted_pairs, list) else list(sorted_pairs)
    values = list(map(_VALUE, pairs))
    for start, stop in _key_runs(pairs):
        yield pairs[start][0], values[start:stop]


def _uniform_runs(pairs: list[Pair]) -> Iterator[tuple[int, int]]:
    """:func:`_key_runs`, cut down to spans one partitioner call and one
    key size are exact for.

    For the classes in
    :data:`~repro.mapreduce.types.SORT_KEY_PINS_ENCODING` equal sort keys
    mean identical keys.  For any other class they need not — ``0.0``
    and ``-0.0`` are one ``FloatWritable`` group but two CRC32 inputs,
    and a custom class may order on a subset of what it encodes — so a
    longer run of those is taken record by record.
    """
    for start, stop in _key_runs(pairs):
        if stop - start == 1 or type(pairs[start][0]) in SORT_KEY_PINS_ENCODING:
            yield start, stop
        else:
            yield from zip(range(start, stop), range(start + 1, stop + 1))


class PartitionTally:
    """What :func:`partition_pairs` learns on its way, besides the buckets.

    ``records`` / ``nbytes`` are the map-output record and payload-byte
    totals.  ``groups`` (only collected when ``grouped``) maps each
    partition to ``group_by_key`` of its bucket, as a list — what the
    combiner consumes, so it does not regroup per record.
    """

    __slots__ = ("records", "nbytes", "groups")

    def __init__(self, grouped: bool = False):
        self.records = 0
        self.nbytes = 0
        self.groups: dict[int, list[tuple[Writable, list[Writable]]]] | None = (
            {} if grouped else None
        )


def partition_pairs(
    pairs: Iterable[Pair],
    partitioner: Partitioner,
    num_reduces: int,
    tally: PartitionTally | None = None,
) -> dict[int, list[Pair]]:
    """Bucket pairs by reduce partition, one step per run of equal keys.

    Only partitions that receive at least one pair are materialised;
    consumers read absent partitions via ``.get(p, ())``.  For wide
    reduce fan-outs this skips allocating hundreds of empty lists per
    map task.

    Adjacent equal keys share a partition and a key size, so the
    partitioner is asked once per run and the run is slice-copied into
    its bucket.  Any input order gives the buckets a per-record pass
    would; the key-sorted list a map task hands over just has the
    fewest runs.  ``tally``, when given, is filled along the way.
    """
    if not isinstance(pairs, list):
        pairs = list(pairs)
    buckets: dict[int, list[Pair]] = {}
    groups = tally.groups if tally is not None else None
    values = list(map(_VALUE, pairs)) if groups is not None else None
    # Value sizes first: their scratch list is gone before the buckets
    # and groups grow.
    nbytes = (
        sum([kv[1].serialized_size() for kv in pairs]) if tally is not None else 0
    )
    part = partitioner.partition
    for start, stop in _uniform_runs(pairs):
        key = pairs[start][0]
        p = part(key, num_reduces)
        nbytes += key.serialized_size() * (stop - start)
        bucket = buckets.get(p)
        if bucket is None:
            buckets[p] = pairs[start:stop]
        else:
            bucket += pairs[start:stop]
        if groups is None:
            continue
        pgroups = groups.get(p)
        if pgroups is None:
            groups[p] = [(key, values[start:stop])]
        elif pgroups[-1][0] == key:
            # The bucket's previous pair carries this key too (a run cut
            # up above, or unsorted input): one group, as group_by_key
            # over the bucket would make it.
            pgroups[-1][1].extend(values[start:stop])
        else:
            pgroups.append((key, values[start:stop]))
    if tally is not None:
        tally.records = len(pairs)
        tally.nbytes = nbytes
    return buckets


def run_combiner(
    combiner_cls: type[Reducer],
    pairs: list[Pair],
    context: Context,
    counters: Counters,
    presorted: bool = False,
    groups: Iterable[tuple[Writable, list[Writable]]] | None = None,
) -> list[Pair]:
    """Apply a combiner to one map task's (sorted) output.

    Returns the combined pair list.  Counter deltas
    (COMBINE_INPUT/OUTPUT_RECORDS) land in ``counters``.

    ``presorted=True`` promises the caller already key-sorted ``pairs``
    (the map task sorts its output exactly once before partitioning, and
    a stable sort bucketed on a key-derived partition stays sorted), so
    the redundant per-partition re-sort is skipped.  The promise is
    checked in debug mode.

    ``groups`` are the key groups of presorted ``pairs`` when the caller
    already holds them (:class:`PartitionTally` does), which saves
    regrouping them here.
    """
    counters.increment(C.COMBINE_INPUT_RECORDS, len(pairs))
    if presorted and __debug__ and not is_key_sorted(pairs):
        raise AssertionError(
            "run_combiner(presorted=True) received unsorted pairs"
        )
    if groups is None:
        groups = group_by_key(pairs if presorted else sort_pairs(pairs))
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
      the serial path produces and what an output that cannot be
      framed stays in;
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
    codec's frame payload width equals ``serialized_size()``), which is
    what keeps framed and object runs' counters bit-identical.
    """

    task_index: int
    node: str
    #: Object form; ``None`` once frozen into frames.
    partitions: dict[int, list[Pair]] | None = field(default_factory=dict)
    #: Binary form; ``None`` until :meth:`freeze`.  Each value is the
    #: partition's wire blob, or after :meth:`publish_shm` the
    #: ``ShmSlice`` locating it in shared memory.
    frames: dict[int, bytes | ShmSlice] | None = None
    #: partition -> serialized payload bytes, filled lazily.
    _bytes_memo: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: partition -> record count (filled at freeze time).
    _records_memo: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def frozen(self) -> bool:
        """In the binary form the framed reduce path consumes."""
        return self.frames is not None

    def freeze(self, perf: PerfStats | None = None) -> bool:
        """Encode every partition into a wire blob and drop the lists.

        Returns ``True`` on success.  A partition that cannot be framed
        (a Writable subclass whose class reference does not round-trip)
        leaves the output in object form — it ships as pickled pairs
        instead, mirroring the backend's pickling-error fallback — and
        returns ``False``.  Byte/record memos are filled from the
        encoder's own accounting, so later pricing never re-encodes.
        """
        if self.frozen:
            return True
        assert self.partitions is not None
        t0 = _perf_clock() if perf is not None else 0.0
        frames: dict[int, bytes] = {}
        try:
            for partition, pairs in self.partitions.items():
                blob, payload_bytes = wire.encode_pairs(pairs)
                frames[partition] = blob
                self._bytes_memo[partition] = payload_bytes
                self._records_memo[partition] = len(pairs)
        except WireFormatError:
            self._records_memo.clear()
            if perf is not None:
                perf.frame_fallbacks += 1
            return False
        self.frames = frames
        self.partitions = None
        if perf is not None:
            perf.map_serialize_ms += (_perf_clock() - t0) * 1e3
            perf.blobs_encoded += len(frames)
            perf.bytes_framed += sum(len(b) for b in frames.values())
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
            if self.partitions is not None:
                count = len(self.partitions.get(partition, ()))
            else:
                blob = self._blob_for(partition)
                count = 0 if blob is None else wire.blob_record_count(blob)
            self._records_memo[partition] = count
        return count

    def partition_bytes(self, partition: int) -> int:
        size = self._bytes_memo.get(partition)
        if size is None:
            if self.partitions is not None:
                size = serialized_bytes(self.partitions.get(partition, ()))
            else:
                # Freeze always fills the memo before publish, so binary
                # forms only miss here for an absent (empty) partition —
                # or a hand-built output, priced by decoding.
                blob = self._blob_for(partition)
                if blob is None:
                    size = 0
                else:
                    size = serialized_bytes(self.pairs_for(partition))
            self._bytes_memo[partition] = size
        return size

    def total_bytes(self) -> int:
        return sum(self.partition_bytes(p) for p in self.partition_ids())

    def total_records(self) -> int:
        return sum(self.partition_records(p) for p in self.partition_ids())


def merge_for_reduce(
    outputs: Iterable[MapOutput], partition: int
) -> list[Pair]:
    """Merge one partition's pairs from every map output, key-sorted.

    A k-way merge in Hadoop; a concatenate-and-sort here (same result,
    and the sort cost model charges the equivalent comparisons).  Map
    outputs arrive key-sorted per partition, so Timsort's galloping
    merge makes this pass close to linear.
    """
    merged: list[Pair] = []
    for output in outputs:
        merged.extend(output.pairs_for(partition))
    return sort_pairs(merged)


class ReduceInput(NamedTuple):
    """One reduce partition merged *and grouped*, with its totals."""

    groups: list[tuple[Writable, list[Writable]]]
    records: int
    nbytes: int


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
    :func:`group_by_key` would cut (the same :func:`_key_runs` rule);
    the totals come from the outputs' memos, not from the records.  Any
    unsorted blob (custom partitioner games, NaN keys) falls back to
    the full sort.
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
        pairs = list(wire.flatten_runs(chain.from_iterable(streams)))
        groups = list(group_by_key(sort_pairs(pairs)))
    if perf is not None:
        perf.merge_ms += (_perf_clock() - t0) * 1e3
    return ReduceInput(groups, records, nbytes)
