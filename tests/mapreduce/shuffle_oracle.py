"""Reference oracle: the per-record map output path, as it was.

These are the bodies ``repro.mapreduce.shuffle.partition_pairs``,
``group_by_key`` and ``repro.mapreduce.runtime._PairTally`` had before
the run-aware rewrite — one partitioner call, two ``serialized_size()``
calls and one ``Writable.__eq__`` per record.  They define what the
fast path must reproduce exactly; ``test_shuffle_runs.py`` compares the
two.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.shuffle import Pair, PartitionTally
from repro.mapreduce.types import Writable


def is_key_sorted(pairs: list[Pair]) -> bool:
    return all(
        pairs[i][0].sort_key() <= pairs[i + 1][0].sort_key()
        for i in range(len(pairs) - 1)
    )


def group_by_key(
    sorted_pairs: Iterable[Pair],
) -> Iterator[tuple[Writable, list[Writable]]]:
    current_key: Writable | None = None
    values: list[Writable] = []
    for key, value in sorted_pairs:
        if current_key is None or key != current_key:
            if current_key is not None:
                yield current_key, values
            current_key, values = key, [value]
        else:
            values.append(value)
    if current_key is not None:
        yield current_key, values


def partition_pairs(
    pairs: Iterable[Pair], partitioner: Partitioner, num_reduces: int
) -> dict[int, list[Pair]]:
    buckets: dict[int, list[Pair]] = {}
    part = partitioner.partition
    get = buckets.get
    for kv in pairs:
        p = part(kv[0], num_reduces)
        bucket = get(p)
        if bucket is None:
            buckets[p] = [kv]
        else:
            bucket.append(kv)
    return buckets


class PairTally:
    """Pass-through pair iterator tallying records and payload bytes."""

    __slots__ = ("source", "records", "nbytes")

    def __init__(self, source):
        self.source = source
        self.records = 0
        self.nbytes = 0

    def __iter__(self):
        for kv in self.source:
            self.records += 1
            self.nbytes += kv[0].serialized_size() + kv[1].serialized_size()
            yield kv


def tallied_partition_pairs(
    pairs: Iterable[Pair],
    partitioner: Partitioner,
    num_reduces: int,
    tally: PartitionTally | None = None,
) -> dict[int, list[Pair]]:
    """The oracle behind today's ``partition_pairs`` signature: what the
    old ``execute_map`` computed, reported the way the new one reads it
    (per-bucket ``group_by_key`` is what ``run_combiner`` used to do)."""
    counted = PairTally(pairs)
    buckets = partition_pairs(counted, partitioner, num_reduces)
    if tally is not None:
        tally.records, tally.nbytes = counted.records, counted.nbytes
        if tally.groups is not None:
            for partition, bucket in buckets.items():
                tally.groups[partition] = list(group_by_key(bucket))
    return buckets
