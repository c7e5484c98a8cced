"""The run-aware map output path ≡ the per-record path it replaced.

``partition_pairs`` / ``group_by_key`` walk runs of adjacent equal keys;
``shuffle_oracle`` keeps the per-record bodies they had before.  Every
check here is a differential: identical buckets (the very same pair
objects, in the same order), identical record/byte tallies, identical
combiner groups — for sorted and unsorted input, and for the key kinds
where "equal sort key" does *not* mean "same key".
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import IntSumReducer, WordCountJob, WordCountWithCombinerJob
from repro.mapreduce import runtime, shuffle
from repro.mapreduce.api import Job, Mapper
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import C
from repro.mapreduce.local_runner import LocalJobRunner
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mapreduce.shuffle import (
    PartitionTally,
    group_by_key,
    is_key_sorted,
    partition_pairs,
    sort_pairs,
)
from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    Writable,
    record_writable,
)
from tests.mapreduce import shuffle_oracle as oracle

SETTINGS = settings(max_examples=150, deadline=None)

#: One ``nan`` object shared by several keys: ``nan == nan`` is False,
#: so each is its own group, but ``nan is nan`` — the identity shortcut
#: container comparisons take must not merge them.
NAN = float("nan")

Pt = record_writable("Pt", [("x", float), ("y", int)])


class LossyKey(Writable):
    """Orders and groups on ``name`` only; ``tag`` still rides in
    ``encode()``, so two equal keys may differ in size and partition."""

    __slots__ = ("name", "tag")

    def __init__(self, name: str, tag: int):
        self.name = name
        self.tag = tag

    def encode(self) -> str:
        return f"{self.name}:{self.tag}"

    def sort_key(self) -> str:
        return self.name


class EncodedLengthPartitioner(Partitioner):
    """A custom partitioner that looks at the whole encoded key."""

    def partition(self, key: Writable, num_reduces: int) -> int:
        encoded = key.encode()
        return (len(encoded) + sum(map(ord, encoded))) % num_reduces


# Key families: sort keys compare with ``<`` inside a family (so the
# list can be key-sorted) but only with ``==`` across families.
_stringy = st.one_of(
    st.text(alphabet="abé", max_size=2).map(Text),
    st.just(NullWritable()),
)
_numeric = st.one_of(
    st.integers(min_value=-2, max_value=2).map(IntWritable),
    st.integers(min_value=-2, max_value=2).map(LongWritable),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, NAN]).map(FloatWritable),
    st.just(IntWritable(2**40)),  # widens to 8 bytes
)
_records = st.builds(
    Pt, st.sampled_from([1, 1.0, 2.5, NAN]), st.integers(min_value=0, max_value=1)
)
_lossy = st.builds(
    LossyKey, st.sampled_from(["a", "b"]), st.sampled_from([1, 22, 333])
)
_values = st.one_of(
    st.integers(min_value=-3, max_value=2**33).map(IntWritable),
    st.text(alphabet="xyé", max_size=3).map(Text),
)
_families = [_stringy, _numeric, _records, _lossy]


def _pairs_of(keys):
    return st.lists(st.tuples(keys, _values), max_size=40)


#: Sortable lists (one family each) and free mixtures of all of them.
sortable_pairs = st.one_of(*[_pairs_of(family) for family in _families])
any_pairs = _pairs_of(st.one_of(*_families))
partitioners = st.sampled_from([HashPartitioner(), EncodedLengthPartitioner()])
reduce_counts = st.sampled_from([1, 2, 3, 7])


def _ids(pairs):
    return [id(kv) for kv in pairs]


def _group_ids(groups):
    return [(id(key), [id(v) for v in values]) for key, values in groups]


def assert_matches_oracle(pairs, partitioner, num_reduces):
    expected_tally = PartitionTally(grouped=True)
    expected = oracle.tallied_partition_pairs(
        pairs, partitioner, num_reduces, expected_tally
    )
    tally = PartitionTally(grouped=True)
    got = partition_pairs(pairs, partitioner, num_reduces, tally)

    # Same partitions, first-seen order included, holding the very
    # same pair objects in the same order.
    assert list(got) == list(expected)
    for partition in expected:
        assert _ids(got[partition]) == _ids(expected[partition])
    assert (tally.records, tally.nbytes) == (
        expected_tally.records,
        expected_tally.nbytes,
    )
    assert list(tally.groups) == list(expected_tally.groups)
    for partition in expected:
        assert _group_ids(tally.groups[partition]) == _group_ids(
            expected_tally.groups[partition]
        )

    # Without groups (no combiner) and without a tally: same buckets.
    plain_tally = PartitionTally()
    plain = partition_pairs(pairs, partitioner, num_reduces, plain_tally)
    assert plain_tally.groups is None
    assert (plain_tally.records, plain_tally.nbytes) == (
        expected_tally.records,
        expected_tally.nbytes,
    )
    bare = partition_pairs(iter(pairs), partitioner, num_reduces)
    for other in (plain, bare):
        assert list(other) == list(expected)
        for partition in expected:
            assert _ids(other[partition]) == _ids(expected[partition])


class TestDifferential:
    @given(pairs=sortable_pairs, partitioner=partitioners, n=reduce_counts)
    @SETTINGS
    def test_key_sorted_input(self, pairs, partitioner, n):
        # What execute_map hands over: one stable sort, then partition.
        assert_matches_oracle(sort_pairs(pairs), partitioner, n)

    @given(pairs=any_pairs, partitioner=partitioners, n=reduce_counts)
    @SETTINGS
    def test_any_input_order(self, pairs, partitioner, n):
        assert_matches_oracle(pairs, partitioner, n)

    @given(pairs=any_pairs)
    @SETTINGS
    def test_group_by_key(self, pairs):
        expected = list(oracle.group_by_key(pairs))
        assert _group_ids(group_by_key(pairs)) == _group_ids(expected)
        assert _group_ids(group_by_key(iter(pairs))) == _group_ids(expected)

    @given(pairs=sortable_pairs, sort_first=st.booleans())
    @SETTINGS
    def test_is_key_sorted(self, pairs, sort_first):
        if sort_first:
            pairs = sort_pairs(pairs)
        assert is_key_sorted(pairs) == oracle.is_key_sorted(pairs)


def _one(value=1):
    return IntWritable(value)


class TestEdgeCases:
    """The named traps, spelled out (the properties above find them too)."""

    @pytest.mark.parametrize("n", [1, 4])
    def test_int_next_to_long_are_different_groups(self, n):
        pairs = [
            (IntWritable(1), _one()),
            (LongWritable(1), _one()),
            (LongWritable(1), _one()),
            (IntWritable(1), _one()),
        ]
        assert is_key_sorted(pairs)  # equal sort keys throughout
        assert [len(vs) for _, vs in group_by_key(pairs)] == [1, 2, 1]
        assert_matches_oracle(pairs, HashPartitioner(), n)

    def test_interleaved_classes_regroup_inside_a_bucket(self):
        # Long(1) leaves for another partition, so the two Int(1) runs
        # end up adjacent in their bucket: one combiner group, as
        # group_by_key over that bucket always made it.
        class ByClass(Partitioner):
            def partition(self, key, num_reduces):
                return 0 if type(key) is IntWritable else 1

        pairs = [
            (IntWritable(1), _one(10)),
            (LongWritable(1), _one(20)),
            (IntWritable(1), _one(30)),
        ]
        tally = PartitionTally(grouped=True)
        partition_pairs(pairs, ByClass(), 2, tally)
        assert [[v.value for v in vs] for _, vs in tally.groups[0]] == [[10, 30]]
        assert_matches_oracle(pairs, ByClass(), 2)

    def test_nan_keys_sharing_one_nan_object_stay_apart(self):
        pairs = [(FloatWritable(NAN), _one(i)) for i in range(3)]
        assert pairs[0][0].sort_key() is pairs[1][0].sort_key()
        assert len(list(group_by_key(pairs))) == 3
        assert_matches_oracle(pairs, HashPartitioner(), 4)

    def test_signed_zero_is_one_group_but_two_partitions(self):
        pairs = [
            (FloatWritable(0.0), _one()),
            (FloatWritable(-0.0), _one()),
            (FloatWritable(0.0), _one()),
        ]
        assert len(list(group_by_key(pairs))) == 1
        hashed = HashPartitioner()
        assert hashed.partition(pairs[0][0], 7) != hashed.partition(pairs[1][0], 7)
        assert_matches_oracle(pairs, hashed, 7)

    def test_null_keys(self):
        pairs = [(NullWritable(), Text(c)) for c in "abc"]
        tally = PartitionTally(grouped=True)
        buckets = partition_pairs(pairs, HashPartitioner(), 4, tally)
        assert list(buckets.values()) == [pairs]
        assert (tally.records, tally.nbytes) == (3, 3)
        assert_matches_oracle(pairs, HashPartitioner(), 4)

    def test_record_key(self):
        pairs = sort_pairs(
            [(Pt(x, y), _one()) for x in (1, 1.0, 2.5) for y in (0, 1, 0)]
        )
        # (1, 0) == (1.0, 0): one group whose members encode differently.
        assert len(list(group_by_key(pairs))) == 4
        assert_matches_oracle(pairs, HashPartitioner(), 5)

    @pytest.mark.parametrize(
        "partitioner", [HashPartitioner(), EncodedLengthPartitioner()]
    )
    def test_sort_key_that_ignores_an_encoded_field(self, partitioner):
        pairs = [(LossyKey("a", tag), _one()) for tag in (1, 22, 333, 1)]
        assert len(list(group_by_key(pairs))) == 1
        tally = PartitionTally()
        partition_pairs(pairs, partitioner, 5, tally)
        # key sizes 3 + 4 + 5 + 3, four 4-byte values: per record exact
        assert tally.nbytes == 15 + 16
        assert_matches_oracle(pairs, partitioner, 5)

    def test_single_reduce(self):
        pairs = sort_pairs([(Text(c), _one()) for c in "banana"])
        buckets = partition_pairs(pairs, EncodedLengthPartitioner(), 1)
        assert list(buckets) == [0] and buckets[0] == pairs
        assert_matches_oracle(pairs, EncodedLengthPartitioner(), 1)

    def test_non_ascii_text_sizes(self):
        pairs = sort_pairs([(Text(w), Text(w)) for w in ("é", "é", "e", "日本")])
        tally = PartitionTally()
        partition_pairs(pairs, HashPartitioner(), 3, tally)
        assert tally.nbytes == 2 * (2 + 2 + 1 + 6)


# --------------------------------------------------------------------------
# Whole jobs: the new path against the oracle patched into the runtime.


class SignedZeroMapper(Mapper):
    """Float keys that collide as groups but not as encodings."""

    def map(self, key, value, context):
        for word in value.value.split():
            sign = -1.0 if len(word) % 2 else 1.0
            context.write(FloatWritable(sign * (len(word) % 3) * 0.5), 1)


class SignedZeroJob(Job):
    mapper = SignedZeroMapper
    reducer = IntSumReducer
    combiner = IntSumReducer


CORPUS = "\n".join(
    f"line {i % 7} word{i % 13} wörd{i % 5} tail" for i in range(400)
)


def _run(job_cls, mr_config, split_size=4 * 1024):
    fs = LinuxFileSystem()
    fs.write_file("/in/corpus.txt", CORPUS)
    with LocalJobRunner(
        localfs=fs, mr_config=mr_config, split_size=split_size
    ) as runner:
        return runner.run(job_cls(JobConf(name="job", num_reduces=3)), "/in", "/out")


def _run_on_oracle(monkeypatch, job_cls, mr_config):
    """The same job with the per-record bodies swapped back in."""
    with monkeypatch.context() as patch:
        patch.setattr(runtime, "partition_pairs", oracle.tallied_partition_pairs)
        patch.setattr(runtime, "group_by_key", oracle.group_by_key)
        patch.setattr(shuffle, "group_by_key", oracle.group_by_key)
        patch.setattr(shuffle, "is_key_sorted", oracle.is_key_sorted)
        return _run(job_cls, mr_config)


class TestJobsMatchTheOracle:
    @pytest.mark.parametrize("job_cls", [WordCountWithCombinerJob, SignedZeroJob])
    @pytest.mark.parametrize(
        "config", [{}, {"sanitize": True}], ids=["plain", "sanitize"]
    )
    def test_counters_output_and_clock_equal(self, monkeypatch, job_cls, config):
        got = _run(job_cls, MapReduceConfig(**config))
        want = _run_on_oracle(monkeypatch, job_cls, MapReduceConfig(**config))
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.pairs == want.pairs
        assert got.simulated_seconds == want.simulated_seconds
        assert got.sanitizer_violations == want.sanitizer_violations == []
        assert got.counters.get(C.COMBINE_INPUT_RECORDS) == got.counters.get(
            C.MAP_OUTPUT_RECORDS
        )


class TestSortBufferSpills:
    """io.sort.mb: the spill is priced, never performed — a small buffer
    moves ``Spilled Records`` and the simulated clock and nothing else."""

    SORT_BUFFER = 1000

    @pytest.mark.parametrize("job_cls", [WordCountJob, WordCountWithCombinerJob])
    def test_small_buffer_moves_only_the_spill_accounting(self, job_cls):
        # One split, so the job's counters are the one map task's.
        roomy = _run(job_cls, MapReduceConfig(), split_size=1 << 20)
        tight = _run(
            job_cls,
            MapReduceConfig(sort_buffer_bytes=self.SORT_BUFFER),
            split_size=1 << 20,
        )
        assert roomy.num_splits == tight.num_splits == 1

        def part_files(result):
            fs = result.localfs
            return {name: fs.read_file(f"/out/{name}") for name in fs.listdir("/out")}

        assert part_files(tight) == part_files(roomy)
        want = roomy.counters.as_dict()
        got = tight.counters.as_dict()
        records = roomy.counters.get(C.MAP_OUTPUT_RECORDS)
        nbytes = roomy.counters.get(C.MAP_OUTPUT_BYTES)
        spills = math.ceil(nbytes / self.SORT_BUFFER)
        assert spills > 1
        assert want["Map-Reduce Framework"].pop("Spilled Records") == records
        assert got["Map-Reduce Framework"].pop("Spilled Records") == records * spills
        assert got == want
        extra_passes = (spills - 1) * nbytes / LocalJobRunner.LOCAL_DISK_BW
        assert tight.simulated_seconds - roomy.simulated_seconds == pytest.approx(
            extra_passes, rel=1e-6
        )
