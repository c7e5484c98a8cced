"""Sort/partition/group/combine plumbing."""

import pytest

from repro.mapreduce.api import Context
from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.shuffle import (
    MapOutput,
    combiner_groups,
    is_key_sorted,
    merge_for_reduce,
    partition_pairs,
    run_combiner,
    serialized_bytes,
    sort_pairs,
)
from repro.mapreduce.types import IntWritable, Text
from tests.mapreduce import shuffle_oracle


def pairs_of(*items):
    return [(Text(k), IntWritable(v)) for k, v in items]


def runs_of(*items):
    """One-record key runs: a map output's partition, record by record."""
    return shuffle_oracle.record_runs(pairs_of(*items))


def partition(pairs, num_reduces):
    """``partition_pairs`` over the columns of an attempt that emitted
    ``pairs``: the buckets of key runs a map attempt ships."""
    return partition_pairs(
        *shuffle_oracle.columns_of(pairs), HashPartitioner(), num_reduces
    )


def groups_of(pairs):
    """The groups of key-sorted ``pairs``, as the combiner receives them."""
    return combiner_groups(shuffle_oracle.record_runs(pairs))


def records(bucket):
    return shuffle_oracle.records_of(bucket)


class TestSortAndGroup:
    def test_sort_by_key(self):
        pairs = pairs_of(("b", 1), ("a", 2), ("c", 3), ("a", 1))
        keys = [k.value for k, _ in sort_pairs(pairs)]
        assert keys == ["a", "a", "b", "c"]

    def test_sort_stable_for_equal_keys(self):
        pairs = pairs_of(("a", 1), ("a", 2), ("a", 3))
        values = [v.value for _, v in sort_pairs(pairs)]
        assert values == [1, 2, 3]

    def test_group_by_key(self):
        out = MapOutput(
            task_index=0, node="n0", partitions={0: runs_of(("a", 1), ("b", 5), ("a", 2))}
        )
        groups = [
            (k.value, [v.value for v in vs]) for k, vs in merge_for_reduce([out], 0).groups
        ]
        assert groups == [("a", [1, 2]), ("b", [5])]

    def test_group_empty(self):
        assert merge_for_reduce([], 0) == ([], 0, 0)


class TestPartitioning:
    def test_all_nonempty_partitions_present(self):
        pairs = pairs_of(*[(f"k{i}", i) for i in range(40)])
        buckets = partition(pairs, 4)
        assert set(buckets) == {0, 1, 2, 3}  # 40 keys fill all four
        assert sum(len(records(b)) for b in buckets.values()) == 40

    def test_empty_partitions_are_omitted(self):
        # partition_pairs is sparse: consumers use .get(p, ()), and the
        # single bucketing pass never materialises empty partitions.
        pairs = pairs_of(("dup", 1), ("dup", 2))
        buckets = partition(pairs, 64)
        assert len(buckets) == 1
        assert all(b for b in buckets.values())

    def test_no_pairs_no_partitions(self):
        assert partition([], 4) == {}

    def test_same_key_same_bucket(self):
        pairs = pairs_of(("dup", 1), ("dup", 2), ("dup", 3))
        buckets = partition(pairs, 8)
        nonempty = [p for p, b in buckets.items() if b]
        assert len(nonempty) == 1

    def test_stable_bucketing_of_sorted_input_stays_sorted(self):
        # Every bucket comes back key-sorted whatever the input order
        # (what lets the combiner take its runs as groups), equal keys
        # in emission order.
        pairs = pairs_of(*[(f"k{(i * 7) % 13}", i) for i in range(60)])
        buckets = partition(pairs, 4)
        for bucket in buckets.values():
            assert is_key_sorted(bucket)
            assert records(bucket) == sort_pairs(records(bucket))


class TestSerializedBytes:
    def test_counts_keys_and_values(self):
        runs = runs_of(("ab", 1))  # Text 2 bytes + IntWritable 4 bytes
        assert serialized_bytes(runs) == 6
        # A run's key counts once per record.
        assert serialized_bytes([(Text("ab"), [IntWritable(1)] * 3)]) == 18

    def test_empty(self):
        assert serialized_bytes([]) == 0


class TestCombiner:
    class SumCombiner:
        def setup(self, ctx):
            pass

        def reduce(self, key, values, ctx):
            ctx.write(key, IntWritable(sum(v.value for v in values)))

        def cleanup(self, ctx):
            pass

    def test_combiner_reduces_records(self):
        counters = Counters()
        context = Context(conf=JobConf(), counters=counters)
        pairs = pairs_of(("a", 1), ("a", 1), ("b", 1))
        combined, nbytes = run_combiner(
            self.SumCombiner, groups_of(pairs), context, counters
        )
        as_dict = {k.value: v.value for k, v in records(combined)}
        assert as_dict == {"a": 2, "b": 1}
        assert nbytes == serialized_bytes(combined) == 2 * (1 + 4)
        assert counters.get(C.COMBINE_INPUT_RECORDS) == 3
        assert counters.get(C.COMBINE_OUTPUT_RECORDS) == 2

    def test_presorted_skips_resort_same_answer(self):
        counters = Counters()
        context = Context(conf=JobConf(), counters=counters)
        pairs = sort_pairs(pairs_of(("b", 1), ("a", 2), ("a", 3)))
        combined, _ = run_combiner(self.SumCombiner, groups_of(pairs), context, counters)
        assert {k.value: v.value for k, v in records(combined)} == {"a": 5, "b": 1}

    def test_presorted_lie_is_caught_in_debug_mode(self):
        counters = Counters()
        context = Context(conf=JobConf(), counters=counters)
        unsorted = pairs_of(("b", 1), ("a", 2))
        in_emission_order = [(k, [v]) for k, v in unsorted]
        if __debug__:
            with pytest.raises(AssertionError):
                run_combiner(self.SumCombiner, in_emission_order, context, counters)

    @pytest.mark.parametrize("lie", ["out-of-order", "split-group"])
    def test_presorted_groups_lie_is_caught_in_debug_mode(self, lie):
        # The promise is checked over the groups: keys non-descending,
        # and no key split over two adjacent groups.
        a1, a2, b = Text("a"), Text("a"), Text("b")
        one = IntWritable(1)
        if lie == "out-of-order":
            pairs = [(b, one), (a1, one)]
            groups = [(b, [one]), (a1, [one])]
        else:
            pairs = [(a1, one), (a2, one), (b, one)]
            groups = [(a1, [one]), (a2, [one]), (b, [one])]
        counters = Counters()
        context = Context(conf=JobConf(), counters=counters)
        if __debug__:
            with pytest.raises(AssertionError):
                run_combiner(self.SumCombiner, groups, context, counters)
        # The honest groups of the same pairs pass.
        ordered = sort_pairs(pairs)
        combined, _ = run_combiner(
            self.SumCombiner, groups_of(ordered), context, counters
        )
        assert [(k.value, v.value) for k, v in records(combined)] == (
            [("a", 1), ("b", 1)] if lie == "out-of-order" else [("a", 2), ("b", 1)]
        )


def _assert_merge_matches_oracle(outputs, partition):
    """Same groups (the very same objects), records and bytes as the
    parent's sort-the-concatenation-then-group merge."""
    got = merge_for_reduce(outputs, partition)
    want = shuffle_oracle.reduce_input(outputs, partition)
    assert (got.records, got.nbytes) == (want.records, want.nbytes)
    assert [(id(k), list(map(id, vs))) for k, vs in got.groups] == [
        (id(k), list(map(id, vs))) for k, vs in want.groups
    ]
    return got


class TestMergeForReduce:
    def test_merges_across_map_outputs(self):
        out1 = MapOutput(
            task_index=0, node="n0", partitions={0: runs_of(("b", 1), ("c", 3))}
        )
        out2 = MapOutput(
            task_index=1, node="n1", partitions={0: runs_of(("a", 2), ("b", 4))}
        )
        merged = _assert_merge_matches_oracle([out1, out2], 0)
        assert [(k.value, [v.value for v in vs]) for k, vs in merged.groups] == [
            ("a", [2]),
            ("b", [1, 4]),
            ("c", [3]),
        ]
        assert (merged.records, merged.nbytes) == (4, 4 * 5)

    def test_partition_isolation(self):
        out = MapOutput(
            task_index=0,
            node="n0",
            partitions={0: runs_of(("a", 1)), 1: runs_of(("b", 1))},
        )
        merged = _assert_merge_matches_oracle([out], 1)
        assert [k.value for k, _ in merged.groups] == ["b"]

    def test_byte_accounting(self):
        out = MapOutput(
            task_index=0, node="n0", partitions={0: [(Text("ab"), [IntWritable(1)] * 2)]}
        )
        assert out.partition_bytes(0) == 12
        assert out.partition_bytes(1) == 0
        assert out.partition_records(0) == 2
        assert out.partition_records(1) == 0
