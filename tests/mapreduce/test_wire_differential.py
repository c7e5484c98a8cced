"""RWF2 (run-packed columns) against the RWF1 oracle it replaced.

``wire_oracle.py`` is the per-record frame codec, verbatim.  Over every
column RWF2 packs, the new layout may differ in bytes only: everything
a consumer can see — decoded class, value, ``serialized_size()``,
``payload_bytes`` and record count — must equal the oracle's (the flags
byte RWF1 set for key-sorted blobs is reserved and 0 in RWF2), over sorted and unsorted inputs and both column shapes
(packed, run-packed).  Any other column (mixed classes, a wide integer,
a custom class), which RWF1 framed per record, raises instead and ships
as objects.  Malformed input still fails closed — an RWF1-era kind-0x00
column included — and the cost guard counts what the rewrite was for:
one key Writable per run and ``struct`` calls per column, not per
record.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce import wire
from repro.mapreduce.shuffle import MapOutput, merge_for_reduce, sort_pairs
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

#: One strategy per class: a column drawn from one of them packs.
BY_CLASS = [
    st.sampled_from(["", "a", "b", "naïve", "日本", "\U0001f600", "a\x00b", "zz"]).map(Text),
    small_ints.map(IntWritable),
    st.sampled_from([2**31 - 1, -(2**31)]).map(IntWritable),
    st.one_of(small_ints, st.sampled_from([2**31, -(2**31) - 1, 2**63 - 1, -(2**63)])).map(
        LongWritable
    ),
    st.sampled_from(
        [0.0, -0.0, 1.5, -2.25, float("inf"), float("-inf"), float("nan"), -float("nan")]
    ).map(FloatWritable),
    st.just(NullWritable()),
]
#: Columns RWF1 framed per record and RWF2 does not pack.
UNPACKABLE = [
    st.sampled_from([2**31, -(2**31) - 1, 2**63, 10**30]).map(IntWritable),
    st.sampled_from([2**63, -(2**63) - 1, 10**30]).map(LongWritable),
    st.builds(Reading, st.sampled_from(["x", "y"]), small_ints),
]
column_strategies = st.sampled_from(BY_CLASS)


@st.composite
def pair_lists(draw, columns=column_strategies):
    keys, values = draw(columns), draw(columns)
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
    return type(w), w.encode(), value, w.serialized_size()


def _packs(pairs) -> bool:
    return all(map(wire_oracle.rwf2_packs, zip(*pairs)))


# -- differential -----------------------------------------------------------


class TestAgainstOracle:
    @given(pairs=pair_lists())
    @SETTINGS
    def test_round_trip_payload_count_and_flag(self, pairs):
        old_blob, old_payload = wire_oracle.encode_pairs(pairs)
        new_blob, new_payload = shuffle_oracle.encode_records(pairs)
        assert new_payload == old_payload
        assert wire.HEADER.unpack_from(new_blob)[2] == wire_oracle.blob_record_count(old_blob)
        expected = wire_oracle.decode_pair_list(old_blob)
        decoded = shuffle_oracle.decode_records(new_blob)
        assert len(decoded) == len(expected)
        for (k1, v1), (k2, v2) in zip(decoded, expected):
            assert _facts(k1) == _facts(k2) and _facts(v1) == _facts(v2)
        # The flags byte is reserved: 0 whatever the key order.
        assert wire.HEADER.unpack_from(new_blob)[1] == 0

    @given(
        pairs=pair_lists(st.sampled_from([*BY_CLASS, *UNPACKABLE, st.one_of(*BY_CLASS)])).filter(
            lambda pairs: not _packs(pairs)
        )
    )
    @SETTINGS
    def test_what_rwf1_framed_per_record_raises(self, pairs):
        wire_oracle.encode_pairs(pairs)  # RWF1 framed every one of these
        with pytest.raises(WireFormatError, match="cannot pack"):
            shuffle_oracle.encode_records(pairs)

    def test_mixed_int_and_long_keys_keep_their_classes(self):
        """Mixed key classes do not pack; as objects they keep them."""
        pairs = [(IntWritable(1), Text("i")), (LongWritable(1), Text("l"))] * 3
        with pytest.raises(WireFormatError, match="IntWritable, LongWritable"):
            shuffle_oracle.encode_records(pairs)
        output = shuffle_oracle.map_output({0: shuffle_oracle.record_runs(pairs)})
        assert not output.freeze()
        assert [type(k) for k, _ in output.partitions[0]] == [IntWritable, LongWritable] * 3

    def test_signed_zeros_are_separate_runs(self):
        pairs = [(FloatWritable(z), NullWritable()) for z in (-0.0, -0.0, 0.0, 0.0, -0.0)]
        runs = list(wire.decode_runs(shuffle_oracle.encode_records(pairs)[0]))
        assert [(repr(k.value), len(vs)) for k, vs in runs] == [("-0.0", 2), ("0.0", 2), ("-0.0", 1)]

    def test_run_length_one_input_stays_smaller_than_rwf1(self):
        pairs = [(Text(f"word{i}"), IntWritable(i)) for i in range(500)]
        assert len(shuffle_oracle.encode_records(pairs)[0]) < len(wire_oracle.encode_pairs(pairs)[0])


# -- the reduce merge over frozen outputs -----------------------------------


@st.composite
def map_outputs(draw):
    """A few map tasks' partition-0 pairs, keys of one sortable family."""
    keys = draw(column_strategies)
    values = draw(column_strategies)
    maps = draw(st.lists(st.lists(st.tuples(keys, values), max_size=12), min_size=1, max_size=4))
    # A map task sorts its output; a rogue one (custom partitioner
    # games) may not.
    return [pairs if draw(st.booleans()) and i == 0 else sort_pairs(pairs) for i, pairs in enumerate(maps)]


class TestRunMergeEqualsRecordMerge:
    @given(maps=map_outputs())
    @SETTINGS
    def test_groups_and_totals_equal_the_object_path(self, maps):
        runs = [shuffle_oracle.record_runs(p) for p in maps]
        plain = [shuffle_oracle.map_output({0: r}, i) for i, r in enumerate(runs)]
        frozen = [MapOutput(task_index=i, node="n", partitions={0: r}) for i, r in enumerate(runs)]
        assert all(output.freeze() for output in frozen)
        merged = shuffle_oracle.merge_for_reduce(plain, 0)
        expected = list(shuffle_oracle.group_by_key(merged))
        groups, records, nbytes = merge_for_reduce(frozen, 0)
        assert (records, nbytes) == (len(merged), shuffle_oracle.serialized_bytes(merged))
        assert merge_for_reduce(plain, 0)[1:] == (records, nbytes)
        assert len(groups) == len(expected)
        for (k1, vs1), (k2, vs2) in zip(groups, expected):
            assert _facts(k1)[:3] == _facts(k2)[:3]
            assert [_facts(v)[:3] for v in vs1] == [_facts(v)[:3] for v in vs2]


# -- malformed input --------------------------------------------------------


def _kind_zero_blob(pairs) -> bytes:
    """An RWF1-era blob: both columns kind 0x00, one RWF1 frame per
    entry — what this wire wrote for columns it did not pack before it
    shipped them as objects."""
    parts = [wire.HEADER.pack(wire.MAGIC, 0, len(pairs))]
    for column in zip(*pairs):
        frames: list[bytes] = []
        for w in column:
            wire_oracle._encode_one(frames, w)
        body = b"".join(frames)
        parts += [wire.COLUMN.pack(0x00, len(body)), body]
    return b"".join(parts)


PACKED = {
    "run-packed": [(Text(w), IntWritable(1)) for w in "aaabbbccd"],
    "packed-no-runs": [(Text(w), IntWritable(i)) for i, w in enumerate(["a", "日本", "c"])],
    "floats-longs": [(FloatWritable(f), LongWritable(7)) for f in (-0.0, 0.0, 0.0, 1.5)],
    "null-keys": [(NullWritable(), Text("v")), (NullWritable(), Text("v"))],
}
KIND_ZERO = {
    "tagged": [(IntWritable(1), Text("x")), (LongWritable(2**70), FloatWritable(1.0)), (Text("k"), NullWritable())],
    "generic": [(Reading("x", 1), Reading("y", -2)), (Reading("x", 1), Reading("y", 3))],
}
#: name -> (blob, record count)
BLOBS = {
    **{name: (shuffle_oracle.encode_records(pairs)[0], len(pairs)) for name, pairs in PACKED.items()},
    **{name: (_kind_zero_blob(pairs), len(pairs)) for name, pairs in KIND_ZERO.items()},
}


@pytest.mark.parametrize("name", BLOBS)
class TestFailsClosed:
    def test_intact_blob(self, name):
        """A packed blob decodes; a kind-0x00 one is rejected whole."""
        blob, count = BLOBS[name]
        if name in KIND_ZERO:
            with pytest.raises(WireFormatError, match="unknown column kind 0x00"):
                shuffle_oracle.decode_records(blob)
        else:
            assert shuffle_oracle.decode_records(blob) == PACKED[name]

    def test_truncated_at_every_offset(self, name):
        blob, _ = BLOBS[name]
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                shuffle_oracle.decode_records(blob[:cut])

    def test_single_byte_mutations(self, name):
        """A flipped byte is either caught or decodes to *some* pairs of
        the right count (payload bytes carry no checksum) — it never
        leaks ``struct.error`` / ``ValueError`` / ``IndexError``."""
        blob, count = BLOBS[name]
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
                    decoded = shuffle_oracle.decode_records(bytes(mutated))
                except WireFormatError:
                    continue
                assert offset not in structural, (offset, flip)
                assert len(decoded) == count


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
            blob, _ = shuffle_oracle.encode_records(_sorted_wordcount_pairs(scale))
            decoded = shuffle_oracle.decode_records(blob)
            assert len(decoded) == 1000 * scale
            assert len({id(k) for k, _ in decoded}) == 200
            assert len(list(wire.decode_runs(blob))) == 200

    def test_struct_calls_do_not_grow_with_records(self, monkeypatch):
        tally = [0]
        monkeypatch.setattr(wire, "struct", _CountingStruct(struct, tally))
        for name in ("HEADER", "COLUMN", "_U32"):
            monkeypatch.setattr(wire, name, _CountingStruct(getattr(wire, name), tally))
        calls = []
        for scale in (1, 4):
            tally[0] = 0
            blob, _ = shuffle_oracle.encode_records(_sorted_wordcount_pairs(scale))
            shuffle_oracle.decode_records(blob)
            calls.append(tally[0])
        assert calls[0] == calls[1]
        assert calls[0] == 18  # header + four per column, encoding and decoding

    def test_struct_calls_grow_per_batch_of_runs(self, monkeypatch):
        """More runs than one batch: calls follow batches, not runs."""
        tally = [0]
        pairs = [(Text(f"{i:06d}"), IntWritable(i)) for i in range(3 * wire._BATCH)]
        blob, _ = shuffle_oracle.encode_records(pairs)
        monkeypatch.setattr(wire, "struct", _CountingStruct(struct, tally))
        assert len(shuffle_oracle.decode_records(blob)) == len(pairs)
        assert tally[0] == 2 * 3  # per batch: the Text widths, the int entries
