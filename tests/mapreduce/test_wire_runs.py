"""The key column written from partition runs ≡ the one written per record.

A pooled map attempt without a combiner collects its buckets' run
lengths while :func:`partition_pairs` builds them, and
``wire.encode_pairs(pairs, key_runs)`` writes the key column from the
run heads alone.  Every check here is a differential against
``wire.encode_pairs(pairs)``: the same bytes and the same payload width
— or the same ``WireFormatError`` — over every key column, including
those that must decline the runs and take the per-record path
(``FloatWritable``, ``NullWritable``) and those that do not pack at all
(``record_writable`` and mixed classes, integers too wide to pack).
The cost guard makes any per-record key read raise; the attempt guard
checks that a pooled attempt, which now freezes inside
:func:`execute_map`, ships exactly what ``execute_map()`` followed by
``freeze()`` shipped — bytes, or objects when a column does not pack.
"""

from itertools import accumulate, pairwise

import pytest
from hypothesis import given, settings, strategies as st

from repro.jobs.wordcount import (
    IntSumReducer,
    WordCountJob,
    WordCountWithCombinerJob,
)
from repro.mapreduce import runtime, wire
from repro.mapreduce.api import Job, Mapper
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.inputformat import TextInputFormat
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mapreduce.shuffle import MapOutput, PartitionTally, _key_runs, partition_pairs
from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    Writable,
    record_writable,
)
from repro.util.errors import WireFormatError
from tests.mapreduce import shuffle_oracle, wire_oracle

SETTINGS = settings(max_examples=150, deadline=None)

Station = record_writable("Station", [("name", str), ("level", float)])

#: One class each; the runs may stand for the column (wide integers
#: aside).
RUN_COLUMNS = {
    "text": st.text(alphabet="abé日\U0001f600", max_size=2).map(Text),
    "int": st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([2**31, -(2**31) - 1, 2**40]),
    ).map(IntWritable),
    "long": st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([2**40, 2**63, -(2**63) - 1, 10**30]),
    ).map(LongWritable),
}
#: Columns whose runs must not stand for the key column.
OTHER_COLUMNS = {
    "null": st.just(NullWritable()),
    "float": st.sampled_from([0.0, -0.0, 1.5, float("nan")]).map(FloatWritable),
    "record": st.builds(
        Station, st.sampled_from(["x", "y"]), st.sampled_from([1, 1.0, 2.5])
    ),
    "int-and-long": st.one_of(
        st.integers(min_value=0, max_value=2).map(IntWritable),
        st.integers(min_value=0, max_value=2).map(LongWritable),
    ),
    "text-and-null": st.one_of(
        st.sampled_from(["", "a", "b"]).map(Text), st.just(NullWritable())
    ),
}
_values = st.integers(min_value=-3, max_value=2**31 - 1).map(IntWritable)


def _outputs_of(keys):
    """Emission-order map outputs: any, one key throughout (a single
    run), and all keys distinct (single-record runs)."""
    return st.one_of(
        st.lists(st.tuples(keys, _values), max_size=40),
        st.tuples(keys, st.lists(_values, min_size=1, max_size=12)).map(
            lambda kv: [(kv[0], value) for value in kv[1]]
        ),
        st.lists(
            st.tuples(keys, _values),
            max_size=20,
            unique_by=lambda kv: (type(kv[0]), kv[0].encode()),
        ),
    )


class EncodedLengthPartitioner(Partitioner):
    """A custom partitioner that looks at the whole encoded key."""

    def partition(self, key: Writable, num_reduces: int) -> int:
        encoded = key.encode()
        return (len(encoded) + sum(map(ord, encoded))) % num_reduces


partitioners = st.sampled_from([HashPartitioner(), EncodedLengthPartitioner()])
reduce_counts = st.sampled_from([1, 2, 3, 7])


def _run_class(bucket) -> bool:
    """Are the keys all ``Text``, all ``IntWritable`` or all
    ``LongWritable`` — a column the runs may stand for?"""
    classes = {type(key) for key, _ in bucket}
    return len(classes) == 1 and classes <= {Text, IntWritable, LongWritable}


def _encoded(bucket, runs=None):
    """``encode_pairs``' result, or the ``WireFormatError`` it raised."""
    try:
        return wire.encode_pairs(bucket, runs)
    except WireFormatError as exc:
        return type(exc)


def _cuts(runs):
    return list(pairwise(accumulate(runs, initial=0)))


def _partition(pairs, partitioner, num_reduces, tally, grouped=False):
    """``partition_pairs`` over the columns of an attempt that emitted
    ``pairs``."""
    return partition_pairs(
        *shuffle_oracle.columns_of(pairs),
        partitioner,
        num_reduces,
        tally,
        grouped=grouped,
    )


def assert_runs_encode_alike(pairs, partitioner, num_reduces):
    tally = PartitionTally(runs=True)
    buckets = _partition(pairs, partitioner, num_reduces, tally)
    assert list(tally.key_runs) == list(buckets)
    for partition, bucket in buckets.items():
        runs = tally.key_runs[partition]
        assert _cuts(runs) == list(_key_runs(bucket))
        assert _encoded(bucket, runs) == _encoded(bucket)
        column: list[bytes] = []
        if _run_class(bucket) and not wire_oracle.rwf2_packs(k for k, _ in bucket):
            with pytest.raises(WireFormatError, match="beyond"):
                wire._encode_key_runs(column, bucket, runs)
        else:
            taken = wire._encode_key_runs(column, bucket, runs)
            assert (taken is not None) == _run_class(bucket)
            if taken is None:
                assert column == []  # declined before appending anything


class TestRunsEqualRecords:
    @given(
        pairs=st.sampled_from(sorted(RUN_COLUMNS)).flatmap(
            lambda name: _outputs_of(RUN_COLUMNS[name])
        ),
        partitioner=partitioners,
        n=reduce_counts,
    )
    @SETTINGS
    def test_run_columns(self, pairs, partitioner, n):
        assert_runs_encode_alike(pairs, partitioner, n)

    @given(
        pairs=st.sampled_from(sorted(OTHER_COLUMNS)).flatmap(
            lambda name: _outputs_of(OTHER_COLUMNS[name])
        ),
        partitioner=partitioners,
        n=reduce_counts,
    )
    @SETTINGS
    def test_other_columns_take_the_per_record_path(self, pairs, partitioner, n):
        """Float and null keys pack record by record; the others raise."""
        assert_runs_encode_alike(pairs, partitioner, n)

    def test_single_record_runs(self):
        pairs = [(Text(f"k{i:03d}"), IntWritable(i)) for i in range(50)]
        tally = PartitionTally(runs=True)
        (bucket,) = _partition(pairs, HashPartitioner(), 1, tally).values()
        assert tally.key_runs[0] == [1] * 50
        assert wire.encode_pairs(bucket, tally.key_runs[0]) == wire.encode_pairs(bucket)

    def test_single_run_bucket(self):
        pairs = [(LongWritable(7), Text(f"v{i}")) for i in range(9)]
        tally = PartitionTally(runs=True)
        (bucket,) = _partition(pairs, HashPartitioner(), 3, tally).values()
        assert list(tally.key_runs.values()) == [[9]]
        assert wire.encode_pairs(bucket, [9]) == wire.encode_pairs(bucket)

    def test_wide_ints_fall_back_to_object_form(self):
        for cls, wide in ((IntWritable, 2**31), (LongWritable, 2**63)):
            bucket = [(cls(1), NullWritable()), (cls(wide), NullWritable())]
            for runs in ([1, 1], None):
                with pytest.raises(WireFormatError, match="beyond"):
                    wire.encode_pairs(bucket, runs)
            output = MapOutput(task_index=0, node="n", partitions={0: bucket})
            assert not output.freeze(key_runs={0: [1, 1]})
            assert output.pairs_for(0) == bucket

    def test_runs_that_do_not_fit_the_pairs_are_not_used(self):
        # Caught: wrong totals, empty runs, equal adjacent heads.  A run
        # over unequal keys is not: the runs are trusted, not re-read.
        bucket = [(Text("a"), NullWritable())] * 2 + [(Text("b"), NullWritable())]
        for runs in ([1, 1, 1], [2, 0, 1], [2, 2], [], [1, 2]):
            assert wire._encode_key_runs([], bucket, runs) is None
        assert wire.encode_pairs(bucket, [2, 1]) == wire.encode_pairs(bucket)

    def test_no_runs_unless_asked(self):
        pairs = [(Text("a"), IntWritable(1))]
        for grouped in (False, True):
            tally = PartitionTally()
            _partition(pairs, HashPartitioner(), 2, tally, grouped=grouped)
            assert tally.key_runs is None


class TestKeyColumnReadsOnlyRunHeads:
    def test_non_head_keys_are_never_read(self):
        words = sorted(f"wé{i:03d}" for i in range(40))
        runs = [1 + i % 5 for i in range(len(words))]
        intact, hollow = [], []
        for word, length in zip(words, runs):
            for i in range(length):
                value = IntWritable(i)
                intact.append((Text(word), value))
                key = Text(word)
                if i:
                    del key.value  # any per-record key read now raises
                hollow.append((key, value))
        assert wire.encode_pairs(hollow, runs) == wire.encode_pairs(intact)
        with pytest.raises(AttributeError):
            wire.encode_pairs(hollow)


# -- a pooled attempt ships what execute_map() + freeze() shipped ----------


class FloatKeyMapper(Mapper):
    """Float keys that collide as groups but not as encodings."""

    def map(self, key, value, context):
        for word in value.value.split():
            sign = -1.0 if len(word) % 2 else 1.0
            context.write(FloatWritable(sign * (len(word) % 3) * 0.5), IntWritable(1))


class FloatKeyJob(Job):
    mapper = FloatKeyMapper
    reducer = IntSumReducer


class StationMapper(Mapper):
    def map(self, key, value, context):
        for word in value.value.split():
            context.write(Station(word[:2], float(len(word) % 2)), IntWritable(1))


class StationJob(Job):
    mapper = StationMapper
    reducer = IntSumReducer


CORPUS = "\n".join(
    f"line {i % 7} word{i % 13} wörd{i % 5} tail" for i in range(400)
).encode("utf-8")


def _prefetched(job):
    (split,) = TextInputFormat.splits_for_file("/in/corpus.txt", [len(CORPUS)], [("n",)])

    def fetch(path, block_index, max_bytes, offset=0):
        chunk = CORPUS[offset:]
        return (chunk if max_bytes is None else chunk[:max_bytes]), 0.0

    return split, runtime.prefetch_split(job, split, fetch)


class TestPooledAttemptFreezesAlike:
    @pytest.mark.parametrize(
        "job_cls, packs",
        [(WordCountJob, True), (WordCountWithCombinerJob, True), (FloatKeyJob, True), (StationJob, False)],
    )
    def test_frames_and_memos_equal_execute_then_freeze(self, job_cls, packs):
        job = job_cls(JobConf(name="job", num_reduces=3))
        config = MapReduceConfig()
        split, prefetched = _prefetched(job)
        parent = runtime.execute_map(
            job, split, prefetched, config, task_node="n", disk_write_bw=1e8
        )
        assert parent.output.freeze() is packs
        split, prefetched = _prefetched(job)
        got = runtime.map_attempt_work(job, split, prefetched, config, "n", 1e8)
        assert got.output.frozen is packs
        assert got.output.frames == parent.output.frames
        assert got.output.partitions == parent.output.partitions
        assert got.output._bytes_memo == parent.output._bytes_memo
        assert got.output._records_memo == parent.output._records_memo
        assert got.counters.as_dict() == parent.counters.as_dict()
        assert got.duration == parent.duration
        assert got.perf["blobs_encoded"] == len(parent.output.frames or ())
        assert got.perf["frame_fallbacks"] == (not packs)

    @pytest.mark.parametrize(
        "job_cls, from_runs", [(WordCountJob, True), (WordCountWithCombinerJob, False)]
    )
    def test_only_a_job_without_combiner_uses_the_runs(self, monkeypatch, job_cls, from_runs):
        taken = []
        real = wire._encode_key_runs

        def spy(out, pairs, key_runs):
            result = real(out, pairs, key_runs)
            taken.append(result is not None)
            return result

        job = job_cls(JobConf(name="job", num_reduces=3))
        split, prefetched = _prefetched(job)
        monkeypatch.setattr(wire, "_encode_key_runs", spy)
        runtime.map_attempt_work(job, split, prefetched, MapReduceConfig(), "n", 1e8)
        if from_runs:
            assert taken and all(taken)
        else:
            assert taken == []  # combiner output is encoded record by record
