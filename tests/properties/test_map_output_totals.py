"""A map output's per-partition totals ≡ the per-record oracle.

A map attempt sizes its output once, when it ends (``execute_map``):
by the combiner's output columns, by the wire encoder when a pooled
attempt's output freezes, or else by one column pass per bucket
(``shuffle.bucket_totals``: a run's key sized once and counted per
record, the bucket's values as one ``Column``), which also sizes an
output that does not pack.  Over drawn attempts — plain ``str``
(non-ASCII too), ``int`` (past 32 and 64 bits), ``float`` and ``None``
columns, exact-Writable, ``record_writable`` and mixed columns, the
combiner on and off, one to four reduces — every partition's record
count and payload bytes must equal ``shuffle_oracle.serialized_bytes``
over its records, serial and pooled alike.  A frozen output's totals
must equal the encoder's payload count, and ``slice_for`` must carry
them.
"""

from hypothesis import given, settings, strategies as st

from repro.mapreduce import runtime, wire
from repro.mapreduce.api import Job, Mapper, Reducer
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import C, PerfStats
from repro.mapreduce.inputformat import TextInputFormat
from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    record_writable,
)
from tests.mapreduce import shuffle_oracle as oracle

SETTINGS = settings(max_examples=150, deadline=None)

Pt = record_writable("Pt", [("x", int), ("y", int)])

_TEXT = st.text(alphabet="abé日\U0001f600", max_size=3)
_INTS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**31 - 1, 2**31, -(2**31) - 1, 2**63, -(2**63) - 1, 10**30]),
)
_FLOATS = st.sampled_from([0.0, -0.0, 1.5, -2.25, float("nan")])
_POINTS = st.builds(Pt, x=st.integers(0, 2), y=st.integers(0, 2))

#: Key columns.  Mixed classes sort only as ``IntWritable`` beside
#: ``LongWritable`` (equal sort-key types).
KEYS = {
    "str": st.sampled_from(["a", "b", "é", "日"]),
    "int": st.integers(min_value=-2, max_value=2),
    "wide int": _INTS,
    "float": _FLOATS,
    "Text": st.builds(Text, st.sampled_from(["a", "b", "é"])),
    "Int|Long": st.one_of(st.builds(IntWritable, st.integers(0, 2)), st.builds(LongWritable, st.integers(0, 2))),
    "record": _POINTS,
    "None": st.none(),
}
#: Value columns.
VALUES = {
    "str": _TEXT,
    "int": _INTS,
    "float": _FLOATS,
    "None": st.none(),
    "Text": st.builds(Text, _TEXT),
    "IntWritable": st.builds(IntWritable, st.integers(-3, 3)),
    "LongWritable": st.builds(LongWritable, _INTS.filter(lambda i: -(2**63) <= i < 2**63)),
    "FloatWritable": st.builds(FloatWritable, _FLOATS),
    "NullWritable": st.just(NullWritable()),
    "record": _POINTS,
    "mixed": st.one_of(_TEXT, st.integers(-3, 3), st.builds(Text, _TEXT), _POINTS),
}


class CountCombiner(Reducer):
    """Emits each group's value count as a plain ``int``."""

    def reduce(self, key, values, context):
        context.write(key, len(values))


class PassCombiner(Reducer):
    """Emits every value of the group as it came."""

    def reduce(self, key, values, context):
        for value in values:
            context.write(key, value)


class EmitDrawn(Mapper):
    """Emits ``pairs``, whatever the split holds."""

    pairs: list = []

    def run(self, split, context):
        for key, value in self.pairs:
            context.write(key, value)


@st.composite
def attempts(draw):
    """A job whose one map attempt emits drawn pairs."""
    key_kind = draw(st.sampled_from(sorted(KEYS)))
    value_kind = draw(st.sampled_from(sorted(VALUES)))
    size = draw(st.integers(min_value=0, max_value=24))
    keys = draw(st.lists(KEYS[key_kind], min_size=size, max_size=size))
    values = draw(st.lists(VALUES[value_kind], min_size=size, max_size=size))
    mapper = type("Emit", (EmitDrawn,), {"pairs": list(zip(keys, values))})
    combiner = draw(st.sampled_from([None, CountCombiner, PassCombiner]))
    job_cls = type("Drawn", (Job,), {"mapper": mapper, "combiner": combiner})
    return job_cls(JobConf(name="drawn", num_reduces=draw(st.integers(1, 4))))


def _execute(job, perf=None):
    (split,) = TextInputFormat.splits_for_file("/in/x.txt", [2], [("n",)])
    prefetched = runtime.prefetch_split(job, split, lambda *args, **kw: (b"x\n", 0.0))
    return runtime.execute_map(
        job, split, prefetched, MapReduceConfig(), task_node="n", perf=perf
    )


@given(job=attempts())
@SETTINGS
def test_totals_equal_the_per_record_oracle(job):
    serial = _execute(job)
    output = serial.output
    assert not output.frozen
    want = oracle.totals_of(output.partitions)
    assert (output.records, output.nbytes) == want
    assert sum(output.nbytes.values()) == serial.counters.get(C.FILE_BYTES_WRITTEN)

    pooled = _execute(job, PerfStats()).output
    assert (pooled.records, pooled.nbytes) == want
    if not pooled.frozen:  # a column that does not pack
        return
    for partition, runs in output.partitions.items():
        assert wire.encode_runs(runs)[1] == want[1][partition]
    for partition in range(job.conf.num_reduces):
        sliced = pooled.slice_for(partition)
        assert sliced.records == {p: n for p, n in want[0].items() if p == partition}
        assert sliced.nbytes == {p: n for p, n in want[1].items() if p == partition}

