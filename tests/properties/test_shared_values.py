"""Shared value Writables ≡ one fresh Writable per record.

A map attempt turns a plain ``str`` or ``int`` column into one Writable
per distinct item, and every record of that item shares it
(:meth:`Column.writables <repro.mapreduce.types.Column.writables>`); a
``float`` column keeps one Writable per record, since ``0.0 == -0.0``;
``None`` is the ``NullWritable`` singleton.
``shuffle_oracle`` wraps every emission into a Writable of its own.
Each property runs both over drawn plain columns, on the map side
(both key paths of ``_runs``) and through a combiner that emits plain
values, and compares every record's class, value (a float by its bits),
encoding and size, the byte totals and the wire blob.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce import wire
from repro.mapreduce.api import Context, Reducer
from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import Counters
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.shuffle import (
    combiner_groups,
    partition_pairs,
    run_combiner,
)
from repro.mapreduce.types import FloatWritable, typed_column, typed_columns, wrap
from repro.util.errors import WireFormatError
from tests.mapreduce import shuffle_oracle as oracle

SETTINGS = settings(max_examples=200, deadline=None)

#: Plain value columns, one exact type each: non-ASCII text, integers
#: past 32 and 64 bits, both zeros and ``nan``, ``None``.
VALUES = {
    "str": st.text(alphabet="abé日\U0001f600", max_size=2),
    "int": st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([2**31 - 1, 2**31, -(2**31) - 1, 2**63, -(2**63) - 1, 10**30]),
    ),
    "float": st.sampled_from([0.0, -0.0, 1.5, float("nan"), -float("nan")]),
    "none": st.none(),
}
#: Key columns: plain ``str``/``int`` take the hashed path of ``_runs``,
#: plain ``float`` its sorted path.
KEYS = {
    "str": st.sampled_from(["a", "b", "é"]),
    "int": st.integers(min_value=-2, max_value=2),
    "float": st.sampled_from([0.0, -0.0, 1.5, float("nan")]),
}


@st.composite
def columns(draw):
    """Emission-order plain keys and values, of one drawn type each."""
    value_kind = draw(st.sampled_from(sorted(VALUES)))
    key_kind = draw(st.sampled_from(sorted(KEYS)))
    size = draw(st.integers(min_value=0, max_value=30))
    keys = draw(st.lists(KEYS[key_kind], min_size=size, max_size=size))
    values = draw(st.lists(VALUES[value_kind], min_size=size, max_size=size))
    return keys, values


def _fact(w):
    """A Writable by class, value, encoding and size; a float value by
    its bits, so each record keeps its own sign and ``nan``."""
    value = getattr(w, "value", None)
    if isinstance(value, float):
        value = struct.pack(">d", value)
    return type(w), value, w.encode(), w.serialized_size()


def _view(runs):
    return [(_fact(key), list(map(_fact, values))) for key, values in runs]


def _blob(runs):
    try:
        return wire.encode_runs(runs)
    except WireFormatError:  # an integer past 64 bits does not pack
        return None


def assert_runs_match(got, want):
    assert _view(got) == _view(want)
    assert oracle.totals_of({0: got}) == oracle.totals_of({0: want})
    assert _blob(got) == _blob(want)


def assert_shared_as_ruled(items, writables):
    """One Writable per distinct ``str``/``int`` item, one per ``float``
    record."""
    ids = {id(w) for w in writables}
    if items and type(items[0]) is float:
        assert len(ids) == len(items)
    elif items and items[0] is not None:
        assert len(ids) == len(set(items))


class PlainEchoCombiner(Reducer):
    """Emits each record of its group back as plain key and value."""

    def reduce(self, key, values, context):
        for value in values:
            context.write(key.value, getattr(value, "value", None))


class TestSharedValuesMatchTheOracle:
    @given(output=columns(), n=st.sampled_from([1, 3]))
    @SETTINGS
    def test_map_side(self, output, n):
        keys, values = output
        got = partition_pairs(*typed_columns(keys, values), HashPartitioner(), n)
        want = oracle.map_side(*typed_columns(keys, values), HashPartitioner(), n)
        assert list(got) == list(want)
        for partition in want:
            assert_runs_match(got[partition], want[partition])
        assert_shared_as_ruled(
            values, [w for runs in got.values() for _, vs in runs for w in vs]
        )

    @given(output=columns())
    @SETTINGS
    def test_combiner(self, output):
        keys, values = output
        for runs in partition_pairs(*typed_columns(keys, values), HashPartitioner(), 2).values():
            groups = combiner_groups(runs)
            got, got_bytes = run_combiner(
                PlainEchoCombiner, groups, Context(conf=JobConf(), counters=Counters()), Counters()
            )
            want, want_bytes = oracle.run_combiner(
                PlainEchoCombiner,
                oracle.combiner_groups(runs),
                Context(conf=JobConf(), counters=Counters()),
                Counters(),
            )
            assert_runs_match(got, want)
            assert got_bytes == want_bytes
            assert all(type(vs) is tuple and len(vs) == 1 for _, vs in got)


@pytest.mark.parametrize(
    "items",
    [
        ["a", "é", "a", "\U0001f600", "é"],
        [1, 2**40, 1, 10**30, 2**40],
        [0.0, -0.0, 0.0, float("nan"), float("nan")],
        [None, None, None],
    ],
    ids=["str", "int", "float", "none"],
)
def test_writables_share_per_distinct_item(items):
    column = typed_column(items)
    writables = column.writables()
    assert [w.encode() for w in writables] == [wrap(i).encode() for i in items]
    assert_shared_as_ruled(items, writables)
    if column.cls is FloatWritable:
        signs = [struct.pack(">d", w.value) for w in writables]
        assert signs == [struct.pack(">d", i) for i in items]
    else:
        # Equal items share one object, the first emitted builds it.
        first = {}
        for item, w in zip(items, writables):
            assert first.setdefault(item, w) is w
