"""The column buffer and its key runs ≡ the pair list they replaced.

A map attempt buffers its output as two columns — the keys and the
values as user code emitted them — types each column once, and orders,
groups, partitions and sizes on the columns.  ``shuffle_oracle.map_side``
is the pair-list path it replaced: every emission wrapped into a Writable
pair, one stable sort, a walk over runs of equal keys.  Each property
compares the two on drawn columns — plain ``str``/``int``/``float``/
``None``, Writable instances, both in one column, ``record_writable``
values, the hash partitioner and a custom one — over bucket runs,
combiner groups, record and byte totals and the partitioner's
questions.  Plain values become fresh Writables on both sides, so those
compare by class and encoding; emitted Writables compare by identity.

The reduce side's one merge meets drawn map outputs, each frozen (when
it packs) or in object form, and must group them as the oracle's
concatenate-and-sort of their records does.

The job-level cases run the reference jobs whole: serial ≡ pooled ≡ the
serial run with the oracle's map, combine and reduce sides patched in.
"""

import functools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.google_trace import generate_google_trace
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.trace_resubmissions import TraceResubmissionsJob
from repro.jobs.wordcount import (
    WordCountInMapperJob,
    WordCountJob,
    WordCountWithCombinerJob,
)
from repro.mapreduce import runtime
from repro.mapreduce.backend import create_backend
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.counters import Counters, PerfStats
from repro.mapreduce.shuffle import (
    MapOutput,
    combiner_groups,
    merge_for_reduce,
    partition_pairs,
    run_combiner,
)
from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    Text,
    Writable,
    record_writable,
    typed_columns,
)
from repro.mapreduce.local_runner import LocalJobRunner
from tests.mapreduce import shuffle_oracle as oracle

SETTINGS = settings(max_examples=200, deadline=None)

Pt = record_writable("Pt", [("x", float), ("y", int)])

_ascii = st.text(alphabet="abAB", max_size=3)
_text = st.text(alphabet="aé日\U0001f600", max_size=2)
_ints = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**31 - 1, 2**31, -(2**31) - 1, 2**63, -(2**63) - 1, 10**30]),
)
_floats = st.sampled_from([0.0, -0.0, 1.5, -2.25, float("nan")])

#: One kind of emission per column, plain and Writable, alone and
#: mixed (a mix of classes whose sort keys compare).
KINDS = {
    "str-ascii": _ascii,
    "str": _text,
    "int": _ints,
    "float": _floats,
    "none": st.none(),
    "Text": _text.map(Text),
    "IntWritable": _ints.map(IntWritable),
    "LongWritable": _ints.map(LongWritable),
    "str-and-Text": st.one_of(_ascii, _ascii.map(Text)),
    "int-and-IntWritable": st.one_of(_ints, _ints.map(IntWritable)),
    "IntWritable-and-LongWritable": st.one_of(
        _ints.map(IntWritable), _ints.map(LongWritable)
    ),
    "int-and-float": st.one_of(_ints, _floats),
}
#: Values may also be records; a record key sorts on its fields.
VALUE_KINDS = {
    **KINDS,
    "record": st.builds(Pt, _floats, st.integers(min_value=0, max_value=1)),
}


class EncodedLengthPartitioner(Partitioner):
    """A custom partitioner that looks at the whole encoded key."""

    def partition(self, key: Writable, num_reduces: int) -> int:
        encoded = key.encode()
        return (len(encoded) + sum(map(ord, encoded))) % num_reduces


class RecordingPartitioner(Partitioner):
    def __init__(self, inner: Partitioner):
        self.inner = inner
        self.keys: list[Writable] = []

    def partition(self, key: Writable, num_reduces: int) -> int:
        self.keys.append(key)
        return self.inner.partition(key, num_reduces)


def _outputs(key_kind, value_kind):
    """Emission-order ``(keys, values)``: any, one key throughout and
    all keys distinct."""
    keys, values = KINDS[key_kind], VALUE_KINDS[value_kind]
    return st.one_of(
        st.lists(st.tuples(keys, values), max_size=40),
        st.tuples(keys, st.lists(values, min_size=1, max_size=12)).map(
            lambda kv: [(kv[0], value) for value in kv[1]]
        ),
        st.lists(st.tuples(keys, values), max_size=20, unique_by=lambda kv: repr(kv[0])),
    ).map(lambda pairs: ([k for k, _ in pairs], [v for _, v in pairs]))


outputs = st.tuples(st.sampled_from(sorted(KINDS)), st.sampled_from(sorted(VALUE_KINDS))).flatmap(
    lambda kinds: _outputs(*kinds)
)
partitioners = st.sampled_from([HashPartitioner(), EncodedLengthPartitioner()])
reduce_counts = st.sampled_from([1, 2, 3, 7])


def _encoded(obj):
    return type(obj).__name__, obj.encode()


def _viewer(emitted: list):
    """A Writable as the shuffle hands it on: by identity when user code
    emitted it, else by class and encoding."""
    emitted_ids = {id(x) for x in emitted if isinstance(x, Writable)}

    def view(obj):
        return id(obj) if id(obj) in emitted_ids else _encoded(obj)

    return view


def _map_side(side, keys, values, partitioner, n):
    calls = RecordingPartitioner(partitioner)
    out = side(*typed_columns(keys, values), calls, n)
    return out, calls.keys


def assert_columns_match_oracle(keys, values, partitioner, n):
    view = _viewer(keys + values)

    def runs_view(runs):
        return [(view(k), list(map(view, vs))) for k, vs in runs]

    try:
        want_out, want_calls = _map_side(oracle.map_side, keys, values, partitioner, n)
    except TypeError:  # keys that do not compare (str beside int)
        with pytest.raises(TypeError):
            _map_side(partition_pairs, keys, values, partitioner, n)
        return
    got_out, got_calls = _map_side(partition_pairs, keys, values, partitioner, n)
    assert list(got_out) == list(want_out)
    for partition in want_out:
        assert runs_view(got_out[partition]) == runs_view(want_out[partition])
        assert runs_view(combiner_groups(got_out[partition])) == runs_view(
            oracle.combiner_groups(want_out[partition])
        )
    assert list(map(view, got_calls)) == list(map(view, want_calls))
    key_column, value_column = typed_columns(keys, values)
    pairs = oracle.emitted_pairs(key_column, value_column)
    assert (len(key_column.items), key_column.nbytes() + value_column.nbytes()) == (
        len(pairs),
        oracle.serialized_bytes(pairs),
    )


class TestColumnsMatchThePairPath:
    @given(output=outputs, partitioner=partitioners, n=reduce_counts)
    @SETTINGS
    def test_buckets_groups_runs_and_tallies(self, output, partitioner, n):
        keys, values = output
        assert_columns_match_oracle(keys, values, partitioner, n)

    @given(
        keys=st.lists(st.one_of(*KINDS.values()), max_size=30),
        data=st.data(),
        partitioner=partitioners,
    )
    @SETTINGS
    def test_any_mix(self, keys, data, partitioner):
        values = data.draw(
            st.lists(st.one_of(*VALUE_KINDS.values()), min_size=len(keys), max_size=len(keys))
        )
        assert_columns_match_oracle(keys, values, partitioner, 3)

    @pytest.mark.parametrize(
        "keys",
        [
            [0.0, -0.0, 0.0, float("nan"), float("nan")],
            ["é", "e", "é", "日本", "e"],
            [2**31, 1, -(2**31) - 1, 1, 2**70],
            [None, None, None],
            ["a", Text("a"), "b", Text("a")],
            [IntWritable(1), LongWritable(1), IntWritable(1)],
        ],
        ids=["signed-zero-and-nan", "non-ascii", "wide-ints", "none", "str-and-Text", "int-and-long"],
    )
    def test_named_traps(self, keys):
        values = list(range(len(keys)))
        for n in (1, 4):
            assert_columns_match_oracle(keys, values, HashPartitioner(), n)
            assert_columns_match_oracle(keys, values, EncodedLengthPartitioner(), n)


# --------------------------------------------------------------------------
# The reduce side's one merge ≡ the oracle's concatenate-and-sort, over
# drawn map outputs in either form.

#: One ``nan`` object shared by several keys: each is its own group.
NAN = float("nan")
_merge_floats = st.sampled_from([0.0, -0.0, 1.5, NAN, -NAN])
#: Map-output key columns: one class per attempt, or a mix.
MERGE_KEYS = {
    "float": _merge_floats.map(FloatWritable),
    "int": st.integers(min_value=-2, max_value=2).map(IntWritable),
    "long": st.integers(min_value=-2, max_value=2).map(LongWritable),
    "int-and-long": st.one_of(
        st.integers(min_value=-2, max_value=2).map(IntWritable),
        st.integers(min_value=-2, max_value=2).map(LongWritable),
    ),
    "text": st.sampled_from(["a", "b", "é"]),
    "wide-int": st.sampled_from([1, 2**40]),
}
#: Key families whose attempts may meet in one reduce (sort keys compare).
MERGE_FAMILIES = [["float"], ["int", "long", "int-and-long", "wide-int"], ["text"]]


class SumCombiner(Reducer):
    def reduce(self, key, values, context):
        context.write(key, sum(v.value for v in values))


class ReversingCombiner(Reducer):
    """Emits its groups' sums at cleanup, last group first, each key
    twice: its output is out of key order."""

    def setup(self, context):
        self.sums = []

    def reduce(self, key, values, context):
        self.sums.append((key, sum(v.value for v in values)))

    def cleanup(self, context):
        for key, total in reversed(self.sums):
            context.write(key, total)
            context.write(key, IntWritable(-total))


COMBINERS = [None, SumCombiner, ReversingCombiner]


def _has_nan(keys) -> bool:
    return any(k != k for k in (getattr(w, "value", w) for w in keys))


@st.composite
def map_outputs(draw):
    """A few map attempts' outputs over two partitions: each attempt's
    emissions ordered, partitioned and (maybe) combined by the product,
    then frozen when drawn so and when it packs."""
    family = draw(st.sampled_from(MERGE_FAMILIES))
    combiner = draw(st.sampled_from(COMBINERS))
    outputs = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        keys = draw(st.lists(MERGE_KEYS[draw(st.sampled_from(family))], max_size=16))
        if combiner is not None:
            # run_combiner's debug order check refuses a NaN key group
            # (``nan <= x`` is false), so a combiner never meets one.
            keys = [w for w in keys if not _has_nan([w])]
        values = [IntWritable(draw(st.integers(min_value=0, max_value=3))) for _ in keys]
        partitions = partition_pairs(*typed_columns(keys, values), HashPartitioner(), 2)
        if combiner is not None:
            context = Context(conf=JobConf(), counters=Counters())
            partitions = {
                p: run_combiner(combiner, combiner_groups(runs), context, Counters())[0]
                for p, runs in partitions.items()
            }
        output = MapOutput(task_index=index, node="n", partitions=partitions)
        if draw(st.booleans()):
            output.freeze()
        outputs.append(output)
    return outputs


def _fact(w):
    """A Writable by class, sort key and encoding; floats by bits."""
    value = getattr(w, "value", None)
    if isinstance(value, float):
        return type(w), struct.pack(">d", value)
    return type(w), w.sort_key(), w.encode()


def _merge_view(merged):
    groups, records, nbytes = merged
    return [(_fact(k), list(map(_fact, vs))) for k, vs in groups], records, nbytes


class SortingReducer(Reducer):
    """Sorts its ``values`` list in place, then emits it."""

    def reduce(self, key, values, context):
        values.sort(key=lambda v: -v.value)
        for value in values:
            context.write(key, value)


class SortingReducerJob(Job):
    mapper = Mapper
    reducer = SortingReducer


class TestMergeMatchesThePairListOracle:
    @given(outputs=map_outputs())
    @SETTINGS
    def test_any_mix_of_forms(self, outputs):
        for partition in (0, 1):
            perf = PerfStats()
            got = merge_for_reduce(outputs, partition, perf)
            want = oracle.reduce_input(outputs, partition)
            assert _merge_view(got) == _merge_view(want)
            decoded = sum(
                o.frozen and o.frames.get(partition) is not None for o in outputs
            )
            assert perf.blobs_decoded == decoded

    @given(outputs=map_outputs())
    @SETTINGS
    def test_a_reducer_that_sorts_its_values_twice(self, outputs):
        # A retried reduce attempt merges the same outputs again: the
        # first attempt's in-place sort must not reach them.
        job = SortingReducerJob(JobConf(name="sorting"))
        for partition in (0, 1):
            before = _merge_view(oracle.reduce_input(outputs, partition))
            first = runtime.reduce_attempt_work(job, outputs, partition, None, MapReduceConfig())
            second = runtime.reduce_attempt_work(job, outputs, partition, None, MapReduceConfig())
            assert first[1] == second[1]
            assert _merge_view(oracle.reduce_input(outputs, partition)) == before


# --------------------------------------------------------------------------
# Whole jobs: serial ≡ pooled ≡ the pair-list oracle.

CORPUS = "\n".join(
    f"line {i % 7} word{i % 13} wörd{i % 5} tail café{i % 3}" for i in range(600)
)
TRACE = generate_google_trace(seed=14, num_jobs=25)

JOBS = {
    "wordcount": (WordCountJob, CORPUS),
    "wordcount-combiner": (WordCountWithCombinerJob, CORPUS),
    "wordcount-in-mapper": (WordCountInMapperJob, CORPUS),
    "trace-resubmissions": (TraceResubmissionsJob, TRACE.events_text),
}


def _run(name, backend_name="serial", sanitize=False):
    job_cls, text = JOBS[name]
    fs = LinuxFileSystem()
    fs.write_file("/in/input.txt", text)
    backend = create_backend(backend_name, 2)
    with LocalJobRunner(
        localfs=fs,
        backend=backend,
        mr_config=MapReduceConfig(sanitize=sanitize),
        split_size=4 * 1024,
    ) as runner:
        result = runner.run(job_cls(conf=JobConf(name=name, num_reduces=3)), "/in", "/out")
        if backend_name != "serial":
            assert backend.inline_fallbacks == 0
    assert result.sanitizer_violations == []
    outputs = {path: fs.read_file(f"/out/{path}") for path in fs.listdir("/out")}
    return (
        result.counters.as_dict(),
        result.pairs,
        result.simulated_seconds,
        result.num_splits,
        outputs,
    )


@pytest.mark.parametrize("name", sorted(JOBS))
def test_serial_pooled_and_oracle_agree(monkeypatch, name):
    serial = _run(name)
    assert serial[3] > 1  # several map attempts, several partitions
    assert _run(name, "pooled") == serial
    with monkeypatch.context() as patch:
        oracle.patch_runtime(patch)
        assert _run(name) == serial


@pytest.mark.parametrize(
    "name", ["wordcount", "wordcount-combiner", "wordcount-in-mapper"]
)
def test_sanitize_on_equals_off(name):
    assert _run(name, sanitize=True) == _run(name)


def test_the_oracle_patch_reaches_the_attempt(monkeypatch):
    """The oracle run above really takes the pair path."""
    calls = []
    monkeypatch.setattr(
        runtime,
        "partition_pairs",
        functools.partial(_spy, calls, oracle.map_side),
    )
    _run("wordcount-combiner")
    assert calls and all(calls)


def _spy(calls, side, keys, values, *args, **kwargs):
    calls.append(keys.plain)  # TokenizerMapper emits plain str
    return side(keys, values, *args, **kwargs)
