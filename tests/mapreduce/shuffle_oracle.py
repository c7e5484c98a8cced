"""Reference oracle: the pair-list, sort-then-walk map and reduce sides.

These are the bodies ``repro.mapreduce.shuffle`` had before map output
was buffered as typed columns, before the map side grouped
``SORT_KEY_PINS_ENCODING`` keys by hashing, and before key runs became
the one shape of a map-output partition: ``Context.write`` wrapped
every emission into a Writable pair, one stable sort ordered the pair
list (:func:`sort_pairs`), and a walk over runs of adjacent equal keys
partitioned each run once (:func:`partition_pairs`); on the reduce side
a list-returning :func:`merge_for_reduce` concatenated every output's
records and was grouped with :func:`group_by_key`.  :func:`map_side`,
:func:`combiner_groups`, :func:`run_combiner` and :func:`reduce_input`
are what the parent's ``execute_map`` and ``execute_reduce`` computed,
reported through today's signatures — key runs, read back as records
(:func:`records_of`) wherever the parent read pairs; they define what
the column, hash and run paths must reproduce exactly
(``test_shuffle_runs.py`` and ``tests/properties/test_map_columns.py``
compare them).  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import operator
from itertools import compress, islice, pairwise, repeat
from typing import Iterable, Iterator

from repro.mapreduce import wire
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.shuffle import MapOutput, Pair, ReduceInput
from repro.mapreduce.types import (
    SORT_KEY_PINS_ENCODING,
    Column,
    Writable,
    typed_columns,
    wrap,
)

_KEY = operator.itemgetter(0)
_VALUE = operator.itemgetter(1)

Group = tuple[Writable, list[Writable]]
Run = Group


def is_key_sorted(pairs: list[Pair]) -> bool:
    return all(
        pairs[i][0].sort_key() <= pairs[i + 1][0].sort_key()
        for i in range(len(pairs) - 1)
    )


def sort_pairs(pairs: list[Pair]) -> list[Pair]:
    return sorted(pairs, key=lambda kv: kv[0].sort_key())


def _key_runs(pairs: list[Pair]) -> Iterator[tuple[int, int]]:
    count = len(pairs)
    if not count:
        return iter(())
    sort_keys = [kv[0].sort_key() for kv in pairs]
    is_boundary = map(operator.ne, sort_keys, islice(sort_keys, 1, None))
    classes = list(map(type, map(_KEY, pairs)))
    if len(set(classes)) > 1:
        is_boundary = map(
            operator.or_,
            is_boundary,
            map(operator.is_not, classes, islice(classes, 1, None)),
        )
    return pairwise([0, *compress(range(1, count), is_boundary), count])


def group_by_key(sorted_pairs: Iterable[Pair]) -> Iterator[tuple[Writable, list[Writable]]]:
    pairs = sorted_pairs if isinstance(sorted_pairs, list) else list(sorted_pairs)
    values = list(map(_VALUE, pairs))
    for start, stop in _key_runs(pairs):
        yield pairs[start][0], values[start:stop]


def _uniform_runs(pairs: list[Pair]) -> Iterator[tuple[int, int]]:
    for start, stop in _key_runs(pairs):
        if stop - start == 1 or type(pairs[start][0]) in SORT_KEY_PINS_ENCODING:
            yield start, stop
        else:
            yield from zip(range(start, stop), range(start + 1, stop + 1))


def serialized_bytes(pairs: Iterable[Pair]) -> int:
    """Wire size of a pair list (key bytes + value bytes per record)."""
    return sum(k.serialized_size() + v.serialized_size() for k, v in pairs)


def record_runs(pairs: Iterable[Pair]) -> list[Run]:
    """Each record as a run of its own."""
    return [(key, [value]) for key, value in pairs]


def records_of(runs: Iterable[Run]) -> list[Pair]:
    """The records of key runs, in order."""
    return [pair for key, values in runs for pair in zip(repeat(key), values)]


def encode_records(pairs: Iterable[Pair]) -> tuple[bytes, int]:
    """The RWF2 blob of records, one key run each (adjacent keys that
    encode alike still join into one wire run)."""
    return wire.encode_runs(record_runs(pairs))


def decode_records(blob) -> list[Pair]:
    """A blob's records, in order."""
    return records_of(wire.decode_runs(blob))


def runs_of(sorted_pairs: list[Pair]) -> list[Run]:
    """Key-sorted pairs as the key runs the walk partitions."""
    values = list(map(_VALUE, sorted_pairs))
    return [
        (sorted_pairs[start][0], values[start:stop])
        for start, stop in _uniform_runs(sorted_pairs)
    ]


def partition_pairs(
    pairs: list[Pair], partitioner: Partitioner, num_reduces: int
) -> tuple[dict[int, list[Run]], int]:
    """Buckets of key runs and payload bytes of key-sorted pairs."""
    buckets: dict[int, list[Run]] = {}
    part = partitioner.partition
    for run in runs_of(pairs):
        buckets.setdefault(part(run[0], num_reduces), []).append(run)
    return buckets, serialized_bytes(pairs)


def combiner_groups(runs: list[Run]) -> list[Group]:
    """A key-sorted bucket's groups: its records cut between unequal
    neighbours."""
    return list(group_by_key(records_of(runs)))


def run_combiner(combiner_cls, groups, context, counters) -> tuple[list[Run], int]:
    """The combine as the parent ran it: drained pairs, shipped in
    emission order, one record a run."""
    from repro.mapreduce.counters import C

    counters.increment(C.COMBINE_INPUT_RECORDS, sum(len(vs) for _, vs in groups))
    combiner = combiner_cls()
    combiner.setup(context)
    for key, values in groups:
        combiner.reduce(key, values, context)
    combiner.cleanup(context)
    pairs = context.drain()
    counters.increment(C.COMBINE_OUTPUT_RECORDS, len(pairs))
    return record_runs(pairs), serialized_bytes(pairs)


def output_pairs(output: MapOutput, partition: int) -> list[Pair]:
    """One map output's partition as records, its blob decoded when
    frozen."""
    if output.partitions is not None:
        return records_of(output.partitions.get(partition, ()))
    blob = output._blob_for(partition)
    return [] if blob is None else records_of(wire.decode_runs(blob))


def merge_for_reduce(outputs: Iterable[MapOutput], partition: int) -> list[Pair]:
    merged: list[Pair] = []
    for output in outputs:
        merged.extend(output_pairs(output, partition))
    return sort_pairs(merged)


def columns_of(pairs: list[Pair]) -> tuple[Column, Column]:
    """The typed columns of an attempt that emitted ``pairs`` in order."""
    return typed_columns(list(map(_KEY, pairs)), list(map(_VALUE, pairs)))


def emitted_pairs(keys: Column, values: Column) -> list[Pair]:
    """The pair list the parent's ``Context.write`` buffered: every
    emission wrapped, one fresh Writable per plain value."""
    return list(zip(map(wrap, keys.items), map(wrap, values.items)))


def map_side(
    keys: Column, values: Column, partitioner: Partitioner, num_reduces: int
) -> dict[int, list[Run]]:
    """The parent ``execute_map`` behind today's ``partition_pairs``
    signature: wrap per record, sort once, then partition the runs."""
    buckets, _ = partition_pairs(
        sort_pairs(emitted_pairs(keys, values)), partitioner, num_reduces
    )
    return buckets


def reduce_input(
    outputs: Iterable[MapOutput], partition: int, perf=None
) -> ReduceInput:
    """The parent ``execute_reduce``'s view of its merged partition."""
    merged = merge_for_reduce(outputs, partition)
    return ReduceInput(
        list(group_by_key(merged)), len(merged), serialized_bytes(merged)
    )


def patch_runtime(patch) -> None:
    """Swap the oracle's map, combine and reduce sides into the runtime
    (``patch`` is a pytest ``MonkeyPatch``)."""
    from repro.mapreduce import runtime

    patch.setattr(runtime, "partition_pairs", map_side)
    patch.setattr(runtime, "combiner_groups", combiner_groups)
    patch.setattr(runtime, "run_combiner", run_combiner)
    patch.setattr(runtime, "merge_for_reduce", reduce_input)
