"""RWF2 (run-packed columns) against the RWF1 oracle it replaced.

``wire_oracle.py`` is the per-record frame codec, verbatim.  The new
layout may differ in bytes only: everything a consumer can see —
decoded class, value, ``_size_memo``, ``payload_bytes``, record count
and the key-sorted flag — must equal the oracle's, over sorted and
unsorted inputs and every column shape (packed, run-packed, tagged).
Malformed input still fails closed, and the cost guard counts what the
rewrite was for: one key Writable per run and ``struct`` calls per
column, not per record.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce import wire
from repro.mapreduce.shuffle import (
    MapOutput,
    framed_merge_for_reduce,
    merge_for_reduce,
    serialized_bytes,
    sort_pairs,
)
from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    record_writable,
)
from repro.util.errors import WireFormatError
from tests.mapreduce import shuffle_oracle, wire_oracle

SETTINGS = settings(max_examples=120, deadline=None)

Reading = record_writable("Reading", [("station", str), ("celsius", int)])

# -- strategies -------------------------------------------------------------
# Small alphabets so that adjacent equal entries (runs) actually occur.

small_ints = st.integers(min_value=-2, max_value=2)
wide_ints = st.sampled_from([2**31 - 1, 2**31, -(2**31) - 1, 2**63 - 1, 2**63, -(2**63) - 1, 10**30])
mostly_small_ints = st.one_of(small_ints, small_ints, wide_ints)

#: One strategy per class: a column drawn from one of them is packed
#: (or, with a wide integer in it, tagged).
BY_CLASS = [
    st.sampled_from(["", "a", "b", "naïve", "日本", "\U0001f600", "a\x00b", "zz"]).map(Text),
    small_ints.map(IntWritable),
    mostly_small_ints.map(IntWritable),
    mostly_small_ints.map(LongWritable),
    st.sampled_from(
        [0.0, -0.0, 1.5, -2.25, float("inf"), float("-inf"), float("nan"), -float("nan")]
    ).map(FloatWritable),
    st.just(NullWritable()),
    st.builds(Reading, st.sampled_from(["x", "y"]), small_ints),
]
#: A column's element strategy: one class, or any mix (always tagged).
column_strategies = st.sampled_from([*BY_CLASS, st.one_of(*BY_CLASS)])


@st.composite
def pair_lists(draw):
    keys, values = draw(column_strategies), draw(column_strategies)
    pairs = draw(st.lists(st.tuples(keys, values), max_size=24))
    if draw(st.booleans()):
        try:
            pairs = sort_pairs(pairs)
        except TypeError:  # mixed key classes do not sort
            pass
    return pairs


def _facts(w):
    """Everything observable about a decoded Writable, floats by bits."""
    value = getattr(w, "value", None)
    if isinstance(value, float):
        value = struct.pack(">d", value)
    return type(w), w.encode(), value, getattr(w, "_size_memo", None)


def _has_nan_key(pairs) -> bool:
    return any(k.sort_key() != k.sort_key() for k, _ in pairs)


# -- differential -----------------------------------------------------------


class TestAgainstOracle:
    @given(pairs=pair_lists())
    @SETTINGS
    def test_round_trip_payload_count_and_flag(self, pairs):
        old_blob, old_payload = wire_oracle.encode_pairs(pairs)
        new_blob, new_payload = wire.encode_pairs(pairs)
        assert new_payload == old_payload
        assert wire.blob_record_count(new_blob) == wire_oracle.blob_record_count(old_blob)
        expected = wire_oracle.decode_pair_list(old_blob)
        for decode in (wire.decode_pair_list, lambda b: list(wire.flatten_runs(wire.decode_runs(b)))):
            decoded = decode(new_blob)
            assert len(decoded) == len(expected)
            for (k1, v1), (k2, v2) in zip(decoded, expected):
                assert _facts(k1) == _facts(k2) and _facts(v1) == _facts(v2)
        if _has_nan_key(pairs):
            # the one intended difference: RWF1 called NaN keys sorted
            assert not wire.blob_key_sorted(new_blob)
        else:
            assert wire.blob_key_sorted(new_blob) == wire_oracle.blob_key_sorted(old_blob)

    def test_mixed_int_and_long_keys_keep_their_classes(self):
        pairs = [(IntWritable(1), Text("i")), (LongWritable(1), Text("l"))] * 3
        decoded = wire.decode_pair_list(wire.encode_pairs(pairs)[0])
        assert [type(k) for k, _ in decoded] == [IntWritable, LongWritable] * 3

    def test_signed_zeros_are_separate_runs(self):
        pairs = [(FloatWritable(z), NullWritable()) for z in (-0.0, -0.0, 0.0, 0.0, -0.0)]
        runs = list(wire.decode_runs(wire.encode_pairs(pairs)[0]))
        assert [(repr(k.value), len(vs)) for k, vs in runs] == [("-0.0", 2), ("0.0", 2), ("-0.0", 1)]

    def test_run_length_one_input_stays_smaller_than_rwf1(self):
        pairs = [(Text(f"word{i}"), IntWritable(i)) for i in range(500)]
        assert len(wire.encode_pairs(pairs)[0]) < len(wire_oracle.encode_pairs(pairs)[0])


# -- the run-level reduce merge ---------------------------------------------


@st.composite
def map_outputs(draw):
    """A few map tasks' partition-0 pairs, keys of one sortable family."""
    keys = draw(st.sampled_from([*BY_CLASS, st.one_of(BY_CLASS[1], BY_CLASS[3])]))
    values = draw(column_strategies)
    maps = draw(st.lists(st.lists(st.tuples(keys, values), max_size=12), min_size=1, max_size=4))
    # A map task sorts its output; a rogue one (custom partitioner
    # games) may not.
    return [pairs if draw(st.booleans()) and i == 0 else sort_pairs(pairs) for i, pairs in enumerate(maps)]


class TestRunMergeEqualsRecordMerge:
    @given(maps=map_outputs())
    @SETTINGS
    def test_groups_and_totals_equal_the_object_path(self, maps):
        plain = [MapOutput(task_index=i, node="n", partitions={0: p}) for i, p in enumerate(maps)]
        frozen = [MapOutput(task_index=i, node="n", partitions={0: list(p)}) for i, p in enumerate(maps)]
        assert all(output.freeze() for output in frozen)
        merged = merge_for_reduce(plain, 0)
        expected = list(shuffle_oracle.group_by_key(merged))
        groups, records, nbytes = framed_merge_for_reduce(frozen, 0)
        assert (records, nbytes) == (len(merged), serialized_bytes(merged))
        assert len(groups) == len(expected)
        for (k1, vs1), (k2, vs2) in zip(groups, expected):
            assert _facts(k1)[:3] == _facts(k2)[:3]
            assert [_facts(v)[:3] for v in vs1] == [_facts(v)[:3] for v in vs2]


# -- malformed input --------------------------------------------------------

BLOBS = {
    "run-packed": [(Text(w), IntWritable(1)) for w in "aaabbbccd"],
    "packed-no-runs": [(Text(w), IntWritable(i)) for i, w in enumerate(["a", "日本", "c"])],
    "floats-longs": [(FloatWritable(f), LongWritable(7)) for f in (-0.0, 0.0, 0.0, 1.5)],
    "tagged": [(IntWritable(1), Text("x")), (LongWritable(2**70), FloatWritable(1.0)), (Text("k"), NullWritable())],
    "generic": [(Reading("x", 1), Reading("y", -2)), (Reading("x", 1), Reading("y", 3))],
    "null-keys": [(NullWritable(), Text("v")), (NullWritable(), Text("v"))],
}


@pytest.mark.parametrize("name", BLOBS)
class TestFailsClosed:
    def test_truncated_at_every_offset(self, name):
        blob, _ = wire.encode_pairs(BLOBS[name])
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                wire.decode_pair_list(blob[:cut])

    def test_single_byte_mutations(self, name):
        """A flipped byte is either caught or decodes to *some* pairs of
        the right count (payload bytes carry no checksum) — it never
        leaks ``struct.error`` / ``ValueError`` / ``IndexError``."""
        pairs = BLOBS[name]
        blob, _ = wire.encode_pairs(pairs)
        _kind, key_bytes = wire.COLUMN.unpack_from(blob, wire.HEADER.size)
        value_column = wire.HEADER.size + wire.COLUMN.size + key_bytes
        # Bytes no flip of which may pass: magic, record count and the
        # two body lengths.  (A kind byte may flip to one of equal width.)
        structural = {
            *range(4),
            *range(5, wire.HEADER.size),
            *range(wire.HEADER.size + 1, wire.HEADER.size + wire.COLUMN.size),
            *range(value_column + 1, value_column + wire.COLUMN.size),
        }
        for offset in range(len(blob)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(blob)
                mutated[offset] ^= flip
                try:
                    decoded = wire.decode_pair_list(bytes(mutated))
                except WireFormatError:
                    continue
                assert offset not in structural, (offset, flip)
                assert len(decoded) == len(pairs)


# -- cost guard -------------------------------------------------------------


class _CountingStruct:
    """Stands in for the ``struct`` module or one compiled ``Struct``."""

    error = struct.error

    def __init__(self, real, tally):
        self._real, self._tally = real, tally
        self.size = getattr(real, "size", None)

    def _counted(name):
        def call(self, *args):
            self._tally[0] += 1
            return getattr(self._real, name)(*args)

        return call

    pack, unpack, unpack_from = _counted("pack"), _counted("unpack"), _counted("unpack_from")


def _sorted_wordcount_pairs(scale: int):
    return [(Text(f"w{i:03d}"), IntWritable(1)) for i in range(200) for _ in range(5 * scale)]


class TestCostPerRunNotPerRecord:
    def test_one_key_writable_per_run(self):
        for scale in (1, 4):
            blob, _ = wire.encode_pairs(_sorted_wordcount_pairs(scale))
            decoded = wire.decode_pair_list(blob)
            assert len(decoded) == 1000 * scale
            assert len({id(k) for k, _ in decoded}) == 200
            assert len(list(wire.decode_runs(blob))) == 200

    def test_struct_calls_do_not_grow_with_records(self, monkeypatch):
        tally = [0]
        monkeypatch.setattr(wire, "struct", _CountingStruct(struct, tally))
        for name in ("HEADER", "COLUMN", "_U16", "_U32", "_I32", "_I64", "_F64"):
            monkeypatch.setattr(wire, name, _CountingStruct(getattr(wire, name), tally))
        calls = []
        for scale in (1, 4):
            tally[0] = 0
            blob, _ = wire.encode_pairs(_sorted_wordcount_pairs(scale))
            wire.decode_pair_list(blob)
            calls.append(tally[0])
        assert calls[0] == calls[1]
        assert calls[0] == 18  # header + four per column, encoding and decoding

    def test_struct_calls_grow_per_batch_of_runs(self, monkeypatch):
        """More runs than one batch: calls follow batches, not runs."""
        tally = [0]
        pairs = [(Text(f"{i:06d}"), IntWritable(i)) for i in range(3 * wire._BATCH)]
        blob, _ = wire.encode_pairs(pairs)
        monkeypatch.setattr(wire, "struct", _CountingStruct(struct, tally))
        assert len(wire.decode_pair_list(blob)) == len(pairs)
        assert tally[0] == 2 * 3  # per batch: the Text widths, the int entries
