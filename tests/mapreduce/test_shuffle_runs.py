"""The hash-grouped map and reduce sides ≡ the sort-then-walk ones.

``partition_pairs`` takes a map attempt's output as typed columns in
emission order and returns buckets of key runs in key order;
``combiner_groups`` joins a bucket's runs into the combiner's groups,
and ``merge_for_reduce`` returns a partition of every map output's runs
grouped.  ``shuffle_oracle`` keeps the bodies they replaced: one stable
sort of a pair list, then a walk over runs of adjacent equal keys.
Every check here is a differential over Writable emissions: the very
same run and group keys and values in the same order, identical
record/byte totals, partitioner call sequence and ``ReduceInput`` —
over every key column, including those where "equal sort key" does
*not* mean "same key", which must not take the hash path.  Plain
emissions are ``tests/properties/test_map_columns.py``'s.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.shakespeare import tokenize
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import IntSumReducer, WordCountJob, WordCountWithCombinerJob
from repro.mapreduce import runtime, shuffle
from repro.mapreduce.api import Job, Mapper
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import C
from repro.mapreduce.local_runner import LocalJobRunner
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mapreduce.shuffle import (
    MapOutput,
    combiner_groups,
    is_key_sorted,
    merge_for_reduce,
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
    typed_column,
)
from tests.mapreduce import shuffle_oracle as oracle

SETTINGS = settings(max_examples=150, deadline=None)

#: One ``nan`` object shared by several keys: ``nan == nan`` is False,
#: so each is its own group, but ``nan is nan`` — the identity shortcut
#: container comparisons (and dict lookups) take must not merge them.
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


class FoldedText(Text):
    """A ``Text`` subclass that orders and groups case-insensitively but
    encodes as written: ``A`` and ``a`` are one group, two partitions."""

    __slots__ = ()

    def sort_key(self) -> str:
        return self.value.lower()


class EncodedLengthPartitioner(Partitioner):
    """A custom partitioner that looks at the whole encoded key."""

    def partition(self, key: Writable, num_reduces: int) -> int:
        encoded = key.encode()
        return (len(encoded) + sum(map(ord, encoded))) % num_reduces


class RecordingPartitioner(Partitioner):
    """Delegates, and logs every key it is asked about."""

    def __init__(self, inner: Partitioner):
        self.inner = inner
        self.keys: list[Writable] = []

    def partition(self, key: Writable, num_reduces: int) -> int:
        self.keys.append(key)
        return self.inner.partition(key, num_reduces)


_ints = st.one_of(st.integers(min_value=-2, max_value=2), st.just(2**40))
_text = st.text(alphabet="aAb", max_size=2)

#: Key columns.  The first five hold one class of
#: ``SORT_KEY_PINS_ENCODING`` each and take the hash path; the rest
#: must take the sort path.
COLUMNS = {
    "text-ascii": _text.map(Text),
    "text-non-ascii": st.text(alphabet="aé日", max_size=2).map(Text),
    "int": _ints.map(IntWritable),
    "long": _ints.map(LongWritable),
    "null": st.just(NullWritable()),
    "int-and-long": st.one_of(_ints.map(IntWritable), _ints.map(LongWritable)),
    "text-and-null": st.one_of(_text.map(Text), st.just(NullWritable())),
    # A shared nan object and fresh ones (two nans are two objects).
    "float": st.one_of(
        st.sampled_from([0.0, -0.0, 1.5, NAN]).map(FloatWritable),
        st.builds(lambda: FloatWritable(float("nan"))),
    ),
    "record": st.builds(
        Pt, st.sampled_from([1, 1.0, 2.5, NAN]), st.integers(min_value=0, max_value=1)
    ),
    "lossy": st.builds(
        LossyKey, st.sampled_from(["a", "b"]), st.sampled_from([1, 22, 333])
    ),
    "text-subclass": _text.map(FoldedText),
    "text-and-subclass": st.one_of(_text.map(Text), _text.map(FoldedText)),
}
_values = st.one_of(
    st.integers(min_value=-3, max_value=2**33).map(IntWritable),
    st.text(alphabet="xyé", max_size=3).map(Text),
)


def _identity_class(kv):
    return type(kv[0]), kv[0].sort_key()


def _outputs_of(keys):
    """Emission-order map outputs over ``keys``: any, all-equal (one key
    object throughout) and all-distinct."""
    return st.one_of(
        st.lists(st.tuples(keys, _values), max_size=40),
        st.tuples(keys, st.lists(_values, max_size=12)).map(
            lambda kv: [(kv[0], value) for value in kv[1]]
        ),
        st.lists(st.tuples(keys, _values), max_size=20, unique_by=_identity_class),
    )


column_outputs = st.sampled_from(sorted(COLUMNS)).flatmap(
    lambda name: _outputs_of(COLUMNS[name])
)
#: Columns mixed freely: sort keys that do not compare (``str`` beside
#: ``int``) make both sides raise the same ``TypeError``.
mixed_outputs = _outputs_of(st.one_of(*COLUMNS.values()))
partitioners = st.sampled_from([HashPartitioner(), EncodedLengthPartitioner()])
reduce_counts = st.sampled_from([1, 2, 3, 7])


def _group_ids(groups):
    """Runs or groups, their keys and values by identity."""
    return [(id(key), [id(v) for v in values]) for key, values in groups]


def _reduce_groups(pairs):
    """The product's reduce groups of one map output's partition."""
    output = MapOutput(task_index=0, node="n", partitions={0: oracle.record_runs(pairs)})
    return merge_for_reduce([output], 0).groups


def _partition(pairs, partitioner, num_reduces):
    """``partition_pairs`` over the columns of an attempt that emitted
    ``pairs``."""
    return partition_pairs(*oracle.columns_of(pairs), partitioner, num_reduces)


def _totals(pairs):
    """The map-output record and byte totals ``execute_map`` counts:
    read from the columns."""
    keys, values = oracle.columns_of(pairs)
    return len(keys.items), keys.nbytes() + values.nbytes()


def assert_matches_oracle(pairs, partitioner, num_reduces):
    expected_calls = RecordingPartitioner(partitioner)
    try:
        expected = oracle.map_side(
            *oracle.columns_of(pairs), expected_calls, num_reduces
        )
    except TypeError:
        with pytest.raises(TypeError):
            _partition(pairs, partitioner, num_reduces)
        return
    calls = RecordingPartitioner(partitioner)
    got = _partition(pairs, calls, num_reduces)

    # Same partitions, first-seen order included, holding the very
    # same run keys and values in the same order, and joining into the
    # very same combiner groups; the partitioner asked about the same
    # key objects in the same order.
    assert list(got) == list(expected)
    for partition in expected:
        assert _group_ids(got[partition]) == _group_ids(expected[partition])
        assert _group_ids(combiner_groups(got[partition])) == _group_ids(
            oracle.combiner_groups(expected[partition])
        )
    assert list(map(id, calls.keys)) == list(map(id, expected_calls.keys))
    assert _totals(pairs) == (len(pairs), oracle.serialized_bytes(pairs))


def assert_reduce_matches_oracle(maps, as_runs=False):
    """``maps`` as one-record runs in the order given, or as the key runs
    a map attempt makes of them."""
    outputs = [
        MapOutput(
            task_index=i,
            node="n",
            partitions={
                0: _partition(pairs, HashPartitioner(), 1).get(0, [])
                if as_runs
                else oracle.record_runs(pairs)
            },
        )
        for i, pairs in enumerate(maps)
    ]
    try:
        expected = oracle.reduce_input(outputs, 0)
    except TypeError:
        with pytest.raises(TypeError):
            merge_for_reduce(outputs, 0)
        return
    got = merge_for_reduce(outputs, 0)
    assert (got.records, got.nbytes) == (expected.records, expected.nbytes)
    assert _group_ids(got.groups) == _group_ids(expected.groups)


class TestDifferential:
    @given(pairs=column_outputs, partitioner=partitioners, n=reduce_counts)
    @SETTINGS
    def test_key_sorted_input(self, pairs, partitioner, n):
        # Input that is sorted already: the hash path must not reorder it.
        try:
            pairs = sort_pairs(pairs)
        except TypeError:
            pass
        assert_matches_oracle(pairs, partitioner, n)

    @given(pairs=column_outputs, partitioner=partitioners, n=reduce_counts)
    @SETTINGS
    def test_emission_order_input(self, pairs, partitioner, n):
        # What execute_map hands over.
        assert_matches_oracle(pairs, partitioner, n)

    @given(pairs=mixed_outputs, partitioner=partitioners, n=reduce_counts)
    @SETTINGS
    def test_any_input_order(self, pairs, partitioner, n):
        assert_matches_oracle(pairs, partitioner, n)

    @given(pairs=mixed_outputs)
    @SETTINGS
    def test_group_by_key(self, pairs):
        # The reduce side's grouping of one output, any order, any mix.
        assert_reduce_matches_oracle([pairs])

    @given(
        maps=st.sampled_from(sorted(COLUMNS)).flatmap(
            lambda name: st.lists(_outputs_of(COLUMNS[name]), min_size=1, max_size=3)
        ),
        sort_first=st.booleans(),
    )
    @SETTINGS
    def test_reduce_input(self, maps, sort_first):
        # As map tasks hand them over (key runs), or as records in any
        # order.
        assert_reduce_matches_oracle(maps, as_runs=sort_first)

    @given(pairs=column_outputs, sort_first=st.booleans())
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
        assert [len(vs) for _, vs in _reduce_groups(pairs)] == [1, 2, 1]
        assert_matches_oracle(pairs, HashPartitioner(), n)

    def test_interleaved_classes_regroup_inside_a_bucket(self):
        # Long(1) leaves for another partition, so the two Int(1) runs
        # end up adjacent in their bucket: one combiner group, as
        # grouping that bucket always made it.
        class ByClass(Partitioner):
            def partition(self, key, num_reduces):
                return 0 if type(key) is IntWritable else 1

        pairs = [
            (IntWritable(1), _one(10)),
            (LongWritable(1), _one(20)),
            (IntWritable(1), _one(30)),
        ]
        bucket = _partition(pairs, ByClass(), 2)[0]
        assert [[v.value for v in vs] for _, vs in bucket] == [[10], [30]]
        groups = combiner_groups(bucket)
        assert [[v.value for v in vs] for _, vs in groups] == [[10, 30]]
        assert_matches_oracle(pairs, ByClass(), 2)

    def test_nan_keys_sharing_one_nan_object_stay_apart(self):
        pairs = [(FloatWritable(NAN), _one(i)) for i in range(3)]
        assert pairs[0][0].sort_key() is pairs[1][0].sort_key()
        assert len(_reduce_groups(pairs)) == 3
        assert_matches_oracle(pairs, HashPartitioner(), 4)

    def test_signed_zero_is_one_group_but_two_partitions(self):
        pairs = [
            (FloatWritable(0.0), _one()),
            (FloatWritable(-0.0), _one()),
            (FloatWritable(0.0), _one()),
        ]
        assert len(_reduce_groups(pairs)) == 1
        hashed = HashPartitioner()
        assert hashed.partition(pairs[0][0], 7) != hashed.partition(pairs[1][0], 7)
        assert_matches_oracle(pairs, hashed, 7)

    def test_null_keys(self):
        pairs = [(NullWritable(), Text(c)) for c in "abc"]
        buckets = _partition(pairs, HashPartitioner(), 4)
        assert list(buckets.values()) == [[(NullWritable(), [v for _, v in pairs])]]
        assert _totals(pairs) == (3, 3)
        assert_matches_oracle(pairs, HashPartitioner(), 4)

    def test_record_key(self):
        pairs = [(Pt(x, y), _one()) for x in (1, 1.0, 2.5) for y in (0, 1, 0)]
        # (1, 0) == (1.0, 0): one group whose members encode differently.
        assert len(_reduce_groups(pairs)) == 4
        assert_matches_oracle(pairs, HashPartitioner(), 5)

    @pytest.mark.parametrize(
        "partitioner", [HashPartitioner(), EncodedLengthPartitioner()]
    )
    def test_sort_key_that_ignores_an_encoded_field(self, partitioner):
        pairs = [(LossyKey("a", tag), _one()) for tag in (1, 22, 333, 1)]
        assert len(_reduce_groups(pairs)) == 1
        # key sizes 3 + 4 + 5 + 3, four 4-byte values: per record exact
        assert _totals(pairs) == (4, 15 + 16)
        (bucket,) = _partition(pairs, partitioner, 1).values()
        assert shuffle.serialized_bytes(bucket) == 15 + 16
        assert_matches_oracle(pairs, partitioner, 5)

    def test_text_subclass_is_not_hashed(self):
        # Equal under its own sort key, apart under CRC32 of its bytes.
        pairs = [(FoldedText(w), _one()) for w in ("b", "A", "a", "B", "a")]
        assert [len(vs) for _, vs in _reduce_groups(pairs)] == [3, 2]
        assert_matches_oracle(pairs, EncodedLengthPartitioner(), 3)

    def test_single_reduce(self):
        pairs = [(Text(c), _one()) for c in "banana"]
        buckets = _partition(pairs, EncodedLengthPartitioner(), 1)
        assert list(buckets) == [0]
        assert oracle.records_of(buckets[0]) == sort_pairs(pairs)
        assert_matches_oracle(pairs, EncodedLengthPartitioner(), 1)

    def test_empty_output(self):
        assert _partition([], HashPartitioner(), 4) == {}
        assert _totals([]) == (0, 0)
        assert _reduce_groups([]) == []

    def test_non_ascii_text_sizes(self):
        pairs = [(Text(w), Text(w)) for w in ("é", "é", "e", "日本")]
        assert _totals(pairs)[1] == 2 * (2 + 2 + 1 + 6)


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
    """The same job with the parent's sort-then-walk bodies swapped in:
    nothing of the new ordering runs on this path."""
    with monkeypatch.context() as patch:
        oracle.patch_runtime(patch)
        return _run(job_cls, mr_config)


class TestJobsMatchTheOracle:
    @pytest.mark.parametrize(
        "job_cls", [WordCountWithCombinerJob, SignedZeroJob, WordCountJob]
    )
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
        if job_cls.combiner is not None:
            assert got.counters.get(C.COMBINE_INPUT_RECORDS) == got.counters.get(
                C.MAP_OUTPUT_RECORDS
            )

    def test_a_reversed_distinct_key_sort_is_caught(self, monkeypatch):
        # Break the hashed rule's one sort: the map side's buckets come
        # out of key order and the job's output changes, while the
        # oracle run, which takes none of the new ordering, does not.
        clean = _run(WordCountJob, MapReduceConfig())
        real_hash_runs = shuffle._hash_runs

        def reversed_hash_runs(sort_keys, items):
            return real_hash_runs(sort_keys, items)[::-1]

        monkeypatch.setattr(shuffle, "_hash_runs", reversed_hash_runs)
        words = "to be or not to be".split()
        (bucket,) = partition_pairs(
            typed_column(words),
            typed_column([1] * len(words)),
            HashPartitioner(),
            1,
        ).values()
        assert not is_key_sorted(bucket)
        broken = _run(WordCountJob, MapReduceConfig())
        want = _run_on_oracle(monkeypatch, WordCountJob, MapReduceConfig())
        assert broken.pairs != clean.pairs
        assert want.pairs == clean.pairs


class TextTokenizerMapper(Mapper):
    """WordCount's mapper emitting Writable instances."""

    def map(self, key, value, context):
        for word in tokenize(value.value):
            context.write(Text(word), IntWritable(1))


class TextWordCountJob(Job):
    mapper = TextTokenizerMapper
    reducer = IntSumReducer


class TextWordCountWithCombinerJob(TextWordCountJob):
    combiner = IntSumReducer


def _count_in_map(monkeypatch, job_cls):
    """Run ``job_cls`` over one split, counting ``Text`` constructions
    and ``Text.sort_key()`` calls made inside ``execute_map``."""
    counts = {"sort_key": 0, "init": 0}
    in_map = [False]
    real_sort_key, real_init = Text.sort_key, Text.__init__
    real_execute_map = runtime.execute_map

    def counting_sort_key(self):
        counts["sort_key"] += in_map[0]
        return real_sort_key(self)

    def counting_init(self, value):
        counts["init"] += in_map[0]
        real_init(self, value)

    def execute_map(*args, **kwargs):
        in_map[0] = True
        try:
            return real_execute_map(*args, **kwargs)
        finally:
            in_map[0] = False

    monkeypatch.setattr(Text, "sort_key", counting_sort_key)
    monkeypatch.setattr(Text, "__init__", counting_init)
    monkeypatch.setattr(runtime, "execute_map", execute_map)
    result = _run(job_cls, MapReduceConfig(), split_size=1 << 20)
    assert result.num_splits == 1
    return result, counts


class TestCostPerDistinctKey:
    """What a ``Text``-keyed map attempt pays per record.  It asks no key
    for its ``sort_key()`` outside the combiner's order check over the
    groups (its order rule once, ``Writable.__eq__`` twice per neighbour:
    five calls per group, none without a combiner): a plain-emitting one
    builds a ``Text`` per distinct key, a Writable-emitting one reads the
    keys' values in C-level passes and builds none.  The sort-then-walk
    path paid two ``sort_key()`` calls per record (the sort, the run
    walk) and, with a combiner, a third (its presorted check over every
    pair)."""

    @pytest.mark.parametrize("job_cls", [WordCountJob, WordCountWithCombinerJob])
    def test_one_sort_key_per_record(self, monkeypatch, job_cls):
        result, counts = _count_in_map(monkeypatch, job_cls)
        records = result.counters.get(C.MAP_OUTPUT_RECORDS)
        groups = result.counters.get(C.REDUCE_INPUT_GROUPS)
        combined = result.counters.get(C.COMBINE_OUTPUT_RECORDS)
        assert records > 10 * groups
        assert counts["init"] <= groups + combined
        assert counts["sort_key"] <= 5 * combined

    @pytest.mark.parametrize(
        "job_cls", [TextWordCountJob, TextWordCountWithCombinerJob]
    )
    def test_writable_emission_asks_no_key_per_record(self, monkeypatch, job_cls):
        result, counts = _count_in_map(monkeypatch, job_cls)
        records = result.counters.get(C.MAP_OUTPUT_RECORDS)
        groups = result.counters.get(C.REDUCE_INPUT_GROUPS)
        combined = result.counters.get(C.COMBINE_OUTPUT_RECORDS)
        assert records > 10 * groups
        # The mapper's own Text per record, and not one more.
        assert counts["init"] <= records
        assert counts["sort_key"] <= 5 * combined


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
