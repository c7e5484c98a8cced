"""Reference oracle: the pair-list, sort-then-walk map and reduce sides.

These are the bodies ``repro.mapreduce.shuffle`` had before map output
was buffered as typed columns and before the map side grouped
``SORT_KEY_PINS_ENCODING`` keys by hashing: ``Context.write`` wrapped
every emission into a Writable pair, one stable sort ordered the pair
list (:func:`sort_pairs`), and a walk over runs of adjacent equal keys
partitioned each run once (:func:`partition_pairs`); on the reduce side
a list-returning :func:`merge_for_reduce` was grouped with
:func:`group_by_key`.  :func:`map_side` and :func:`reduce_input` are
what the parent's ``execute_map`` and ``execute_reduce`` computed,
reported through today's signatures; they define what the column and
hash paths must reproduce exactly (``test_shuffle_runs.py`` and
``tests/properties/test_map_columns.py`` compare them).  Not collected
by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import operator
from itertools import compress, islice, pairwise
from typing import Iterable, Iterator

from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.shuffle import (
    MapOutput,
    Pair,
    PartitionTally,
    ReduceInput,
    serialized_bytes,
)
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


def partition_pairs(
    pairs: list[Pair], partitioner: Partitioner, num_reduces: int
) -> tuple[dict[int, list[Pair]], dict[int, list[Group]], int]:
    """Buckets, combiner groups and payload bytes of key-sorted pairs."""
    buckets: dict[int, list[Pair]] = {}
    groups: dict[int, list[Group]] = {}
    values = list(map(_VALUE, pairs))
    nbytes = sum([kv[1].serialized_size() for kv in pairs])
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
        pgroups = groups.get(p)
        if pgroups is None:
            groups[p] = [(key, values[start:stop])]
        elif pgroups[-1][0] == key:
            pgroups[-1][1].extend(values[start:stop])
        else:
            pgroups.append((key, values[start:stop]))
    return buckets, groups, nbytes


def merge_for_reduce(outputs: Iterable[MapOutput], partition: int) -> list[Pair]:
    merged: list[Pair] = []
    for output in outputs:
        merged.extend(output.pairs_for(partition))
    return sort_pairs(merged)


def columns_of(pairs: list[Pair]) -> tuple[Column, Column]:
    """The typed columns of an attempt that emitted ``pairs`` in order."""
    return typed_columns(list(map(_KEY, pairs)), list(map(_VALUE, pairs)))


def emitted_pairs(keys: Column, values: Column) -> list[Pair]:
    """The pair list the parent's ``Context.write`` buffered: every
    emission wrapped, one fresh Writable per plain value."""
    return list(zip(map(wrap, keys.items), map(wrap, values.items)))


def map_side(
    keys: Column,
    values: Column,
    partitioner: Partitioner,
    num_reduces: int,
    tally: PartitionTally | None = None,
    *,
    grouped: bool = False,
) -> dict[int, list]:
    """The parent ``execute_map`` behind today's ``partition_pairs``
    signature: wrap per record, sort once, then partition the runs."""
    pairs = emitted_pairs(keys, values)
    buckets, groups, nbytes = partition_pairs(
        sort_pairs(pairs), partitioner, num_reduces
    )
    if tally is not None:
        tally.records, tally.nbytes = len(pairs), nbytes
        if tally.key_runs is not None:
            for p, bucket in buckets.items():
                tally.key_runs[p] = [stop - start for start, stop in _key_runs(bucket)]
    return groups if grouped else buckets


def reduce_input(outputs: Iterable[MapOutput], partition: int) -> ReduceInput:
    """The parent ``execute_reduce``'s view of its merged partition."""
    merged = merge_for_reduce(outputs, partition)
    return ReduceInput(
        list(group_by_key(merged)), len(merged), serialized_bytes(merged)
    )
