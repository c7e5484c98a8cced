"""A bucket's key runs encode exactly as its records do.

:func:`partition_pairs` hands each partition over as key runs, and
``wire.encode_runs`` writes the key column from the run heads, one
entry per run, joining adjacent heads that encode alike.  Every check
here is a differential against the same records framed one run each:
the same bytes and the same payload width — or the same
``WireFormatError`` — over every key column, both ways round, including
the columns whose keys are runs of one record (``FloatWritable``,
``record_writable``, mixed classes) and those that do not pack at all
(``record_writable`` and mixed classes, integers too wide to pack).
The attempt guard checks that a pooled attempt, which freezes inside
:func:`execute_map`, ships exactly what ``execute_map()`` followed by
``freeze()`` shipped — bytes, or objects when a column does not pack.
"""

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
from repro.mapreduce.shuffle import MapOutput, partition_pairs
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
from tests.mapreduce import shuffle_oracle

SETTINGS = settings(max_examples=150, deadline=None)

Station = record_writable("Station", [("name", str), ("level", float)])

#: One class each, hashed into runs of many records (wide integers
#: aside, which do not pack).
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
#: Null keys (one run), and columns whose keys are runs of one record
#: or do not pack.
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


def _encoded(runs):
    """``encode_runs``' result, or the ``WireFormatError`` it raised."""
    try:
        return wire.encode_runs(runs)
    except WireFormatError as exc:
        return type(exc)


def _records_encoded(runs):
    return _encoded(shuffle_oracle.record_runs(shuffle_oracle.records_of(runs)))


def _texts(runs):
    """Runs' records by class and encoding (``nan`` is not ``== nan``)."""
    return [
        (type(k), k.encode(), type(v), v.encode())
        for k, v in shuffle_oracle.records_of(runs)
    ]


def assert_runs_encode_alike(pairs, partitioner, num_reduces):
    buckets = partition_pairs(
        *shuffle_oracle.columns_of(pairs), partitioner, num_reduces
    )
    for bucket in buckets.values():
        encoded = _encoded(bucket)
        assert encoded == _records_encoded(bucket)
        if encoded is not WireFormatError:
            # Both ways round: the blob decodes into runs that encode
            # into the very same blob.
            runs = list(wire.decode_runs(encoded[0]))
            assert _texts(runs) == _texts(bucket)
            assert wire.encode_runs(runs) == encoded


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
        """Float keys are runs of one record and pack as records; the
        unpackable columns raise either way."""
        assert_runs_encode_alike(pairs, partitioner, n)

    def test_single_record_runs(self):
        pairs = [(Text(f"k{i:03d}"), IntWritable(i)) for i in range(50)]
        (bucket,) = partition_pairs(
            *shuffle_oracle.columns_of(pairs), HashPartitioner(), 1
        ).values()
        assert [len(values) for _, values in bucket] == [1] * 50
        assert wire.encode_runs(bucket) == shuffle_oracle.encode_records(pairs)

    def test_single_run_bucket(self):
        pairs = [(LongWritable(7), Text(f"v{i}")) for i in range(9)]
        (bucket,) = partition_pairs(
            *shuffle_oracle.columns_of(pairs), HashPartitioner(), 3
        ).values()
        assert [len(values) for _, values in bucket] == [9]
        assert wire.encode_runs(bucket) == shuffle_oracle.encode_records(pairs)

    def test_wide_ints_fall_back_to_object_form(self):
        for cls, wide in ((IntWritable, 2**31), (LongWritable, 2**63)):
            bucket = [(cls(1), [NullWritable()]), (cls(wide), [NullWritable()])]
            with pytest.raises(WireFormatError, match="beyond"):
                wire.encode_runs(bucket)
            output = MapOutput(task_index=0, node="n", partitions={0: bucket})
            assert not output.freeze()
            assert output.partitions[0] == bucket

    def test_adjacent_runs_that_encode_alike_join(self):
        # Two one-record runs of one bit pattern are one wire run, and
        # so are runs a bucket keeps apart under keys that encode alike;
        # 0.0 and -0.0 do not encode alike.
        one, zero, minus = FloatWritable(1.5), FloatWritable(0.0), FloatWritable(-0.0)
        v = IntWritable(1)
        runs = [(minus, [v]), (zero, [v]), (zero, [v]), (one, [v]), (one, [v])]
        blob, _ = wire.encode_runs(runs)
        decoded = list(wire.decode_runs(blob))
        assert [(repr(k.value), len(vs)) for k, vs in decoded] == [
            ("-0.0", 1),
            ("0.0", 2),
            ("1.5", 2),
        ]
        a = Text("a")
        assert (
            wire.encode_runs([(a, [v]), (Text("a"), [v, v]), (Text("b"), [v])])
            == wire.encode_runs([(a, [v, v, v]), (Text("b"), [v])])
        )


class TestKeyColumnReadsOnlyRunHeads:
    def test_non_head_keys_are_never_read(self):
        # A hashed run keeps its first emitted key; the equal keys
        # emitted after it are never read again on the way to the wire.
        words = sorted(f"wé{i:03d}" for i in range(40))
        keys = [Text(word) for i, word in enumerate(words) for _ in range(1 + i % 5)]
        pairs = [(key, IntWritable(i)) for i, key in enumerate(keys)]
        intact = shuffle_oracle.encode_records(pairs)
        (bucket,) = partition_pairs(
            *shuffle_oracle.columns_of(pairs), HashPartitioner(), 1
        ).values()
        heads = {id(key) for key, _ in bucket}
        for key in keys:
            if id(key) not in heads:
                del key.value  # any read of a non-head key now raises
        assert wire.encode_runs(bucket) == intact
        with pytest.raises(AttributeError):
            shuffle_oracle.encode_records(pairs)


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
        assert got.output.records == parent.output.records
        assert got.output.nbytes == parent.output.nbytes
        assert got.counters.as_dict() == parent.counters.as_dict()
        assert got.duration == parent.duration
        assert got.perf["blobs_encoded"] == len(parent.output.frames or ())
        assert got.perf["frame_fallbacks"] == (not packs)
        for partition, blob in (got.output.frames or {}).items():
            split, prefetched = _prefetched(job)
            runs = runtime.execute_map(
                job, split, prefetched, config, task_node="n", disk_write_bw=1e8
            ).output.partitions[partition]
            assert blob == shuffle_oracle.encode_records(shuffle_oracle.records_of(runs))[0]
