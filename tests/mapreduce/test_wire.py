"""The binary framed shuffle codec: round-trips, size agreement, errors.

Three contracts:

1. every Writable the framework ships round-trips bit-exactly through
   ``encode_pairs``/``decode_pairs`` (including the nasty corners:
   empty/NUL/astral-plane Text, negative and 2**63-boundary integers,
   signed zero and infinities);
2. an entry's payload width equals the Writable's ``serialized_size()``
   — the invariant that keeps framed and object runs' byte counters
   bit-identical;
3. malformed input raises :class:`WireFormatError` with a useful
   message, never raw ``struct.error`` noise.
"""

import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.zipf_text import ZipfTextGenerator
from repro.mapreduce import wire
from repro.mapreduce.counters import PerfStats
from repro.mapreduce.shuffle import MapOutput, serialized_bytes, sort_pairs
from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    record_writable,
)
from repro.util.errors import WireFormatError
from repro.util.rng import RngStream

SETTINGS = settings(max_examples=60, deadline=None)

SumCount = record_writable("SumCount", [("total", float), ("count", int)])


# -- strategies -------------------------------------------------------------

texts = st.text(max_size=40)  # full unicode, including astral planes
ints = st.one_of(
    st.integers(),
    st.sampled_from(
        [0, -1, 2**31 - 1, -(2**31), 2**31, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30]
    ),
)
floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 1e308]),
)

writables = st.one_of(
    texts.map(Text),
    ints.map(IntWritable),
    ints.map(LongWritable),
    floats.map(FloatWritable),
    st.just(NullWritable()),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers()).map(
        lambda t: SumCount(total=t[0], count=t[1])
    ),
)

pair_lists = st.lists(st.tuples(writables, writables), max_size=30)


def _identical(a, b) -> bool:
    """Stricter than ==: same concrete class, same encoded text."""
    return type(a) is type(b) and a.encode() == b.encode()


# -- round-trips ------------------------------------------------------------


class TestRoundTrip:
    @given(pairs=pair_lists)
    @SETTINGS
    def test_every_pair_roundtrips(self, pairs):
        blob, payload = wire.encode_pairs(pairs)
        decoded = wire.decode_pair_list(blob)
        assert len(decoded) == len(pairs)
        for (k1, v1), (k2, v2) in zip(pairs, decoded):
            assert _identical(k1, k2) and _identical(v1, v2)
        assert wire.blob_record_count(blob) == len(pairs)

    @pytest.mark.parametrize(
        "text",
        ["", "\x00", "a\x00b", "naïve", "\U0001f600\U0001f680", "\n\t\r", "x" * 5000],
    )
    def test_text_corners(self, text):
        blob, _ = wire.encode_pairs([(Text(text), Text(text))])
        (k, v), = wire.decode_pair_list(blob)
        assert k.value == text and v.value == text

    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 2**31 - 1, -(2**31), 2**31, -(2**31) - 1,
         2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**40, -(10**40)],
    )
    def test_integer_boundaries(self, value):
        for cls in (IntWritable, LongWritable):
            blob, _ = wire.encode_pairs([(cls(value), cls(-value if value else 0))])
            (k, v), = wire.decode_pair_list(blob)
            assert type(k) is cls and k.value == value
            assert type(v) is cls and v.value == (-value if value else 0)

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 1.5, -2.25, float("inf"), float("-inf"), 1e-308, 1e308]
    )
    def test_float_corners(self, value):
        blob, _ = wire.encode_pairs([(FloatWritable(value), NullWritable())])
        (k, v), = wire.decode_pair_list(blob)
        assert k.value == value
        # signed zero survives (== treats 0.0 and -0.0 alike; repr doesn't)
        assert repr(k.value) == repr(float(value))
        assert v is NullWritable()

    def test_record_writable_roundtrips(self):
        pairs = [(Text("k"), SumCount(total=1.5, count=3))]
        blob, _ = wire.encode_pairs(pairs)
        (k, v), = wire.decode_pair_list(blob)
        assert type(v) is SumCount and v.total == 1.5 and v.count == 3

    def test_local_class_refuses_to_frame(self):
        Local = record_writable("Local", [("x", int)])
        Local.__qualname__ = "test_local.<locals>.Local"  # unimportable ref
        with pytest.raises(WireFormatError):
            wire.encode_pairs([(Text("k"), Local(x=1))])

    def test_unframeable_output_stays_in_object_form_and_is_counted(self):
        Local = record_writable("Local", [("x", int)])
        Local.__qualname__ = "test_local.<locals>.Local"
        output = MapOutput(task_index=0, node="n", partitions={0: [(Text("k"), Local(x=1))]})
        perf = PerfStats()
        assert not output.freeze(perf)
        assert perf.frame_fallbacks == 1
        assert not output.frozen and output.pairs_for(0)[0][1].x == 1

    def test_non_writable_refuses_to_frame(self):
        with pytest.raises(WireFormatError):
            wire.encode_pairs([(Text("k"), "not a writable")])


# -- size agreement (satellite: serialized_size drift) ----------------------


class TestSizeAgreement:
    @given(pairs=pair_lists)
    @SETTINGS
    def test_payload_bytes_equal_serialized_bytes(self, pairs):
        _, payload = wire.encode_pairs(pairs)
        assert payload == serialized_bytes(pairs)

    @given(w=writables)
    @SETTINGS
    def test_decoded_size_memo_matches_fresh_instance(self, w):
        """Decoded Writables report the same serialized_size as the
        originals — their preset memo must not drift from the codec."""
        blob, _ = wire.encode_pairs([(w, w)])
        (k, v), = wire.decode_pair_list(blob)
        assert k.serialized_size() == w.serialized_size()
        assert v.serialized_size() == w.serialized_size()

    def test_emission_order_stream_is_smaller_than_pickle(self):
        """Pre-combine WordCount output in emission order: key runs of
        length ~1, the worst case for run packing, still beats pickle."""
        text = ZipfTextGenerator(RngStream(29).child("wire")).text_of_bytes(
            64 * 1024
        )
        pairs = [(Text(word), IntWritable(1)) for word in text.split()]
        blob, _ = wire.encode_pairs(pairs)
        assert wire.decode_pair_list(blob) == pairs
        assert len(blob) < len(pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL))


# -- sortedness flag --------------------------------------------------------


class TestSortedFlag:
    @given(pairs=pair_lists.filter(lambda ps: all(type(p[0]) is Text for p in ps)))
    @SETTINGS
    def test_flag_matches_actual_order(self, pairs):
        blob_raw, _ = wire.encode_pairs(pairs)
        keys = [k.sort_key() for k, _ in pairs]
        assert wire.blob_key_sorted(blob_raw) == (keys == sorted(keys))
        blob_sorted, _ = wire.encode_pairs(sort_pairs(pairs))
        assert wire.blob_key_sorted(blob_sorted)


# -- malformed input --------------------------------------------------------


class TestMalformed:
    def _blob(self):
        blob, _ = wire.encode_pairs(
            [(Text("hello"), IntWritable(7)), (Text("world"), FloatWritable(2.5))]
        )
        return blob

    def test_truncated_everywhere_raises_wire_error(self):
        blob = self._blob()
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                wire.decode_pair_list(blob[:cut])

    def test_truncation_message_names_offset(self):
        blob = self._blob()
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_pair_list(blob[:-1])

    def test_bad_magic(self):
        blob = b"XXXX" + self._blob()[4:]
        with pytest.raises(WireFormatError, match="magic"):
            wire.decode_pair_list(blob)

    def test_unknown_tag(self):
        blob = bytearray(self._blob())
        blob[wire.HEADER.size] = 0x7F  # the key column's kind
        with pytest.raises(WireFormatError, match="unknown column kind"):
            wire.decode_pair_list(bytes(blob))
        # mixed value classes ride in a tagged column: its first frame tag
        assert blob[self._value_column()] == wire.KIND_TAGGED
        blob = bytearray(self._blob())
        blob[self._value_column() + wire.COLUMN.size] = 0x7F
        with pytest.raises(WireFormatError, match="unknown frame tag"):
            wire.decode_pair_list(bytes(blob))

    def _value_column(self) -> int:
        """Offset of the value column header in ``_blob()``."""
        _kind, key_bytes = wire.COLUMN.unpack_from(self._blob(), wire.HEADER.size)
        return wire.HEADER.size + wire.COLUMN.size + key_bytes

    def test_trailing_garbage(self):
        with pytest.raises(WireFormatError, match="trailing"):
            wire.decode_pair_list(self._blob() + b"junk")

    def test_corrupt_utf8_payload(self):
        blob, _ = wire.encode_pairs([(Text("ab"), NullWritable())])
        broken = bytearray(blob)
        # column header, run count, one byte width, then the Text payload
        broken[wire.HEADER.size + wire.COLUMN.size + 8] = 0xFF
        with pytest.raises(WireFormatError, match="corrupt"):
            wire.decode_pair_list(bytes(broken))

    def test_garbage_is_never_struct_error(self):
        import random

        rng = random.Random(1234)
        for _ in range(200):
            junk = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            try:
                wire.decode_pair_list(junk)
            except WireFormatError:
                pass
            except struct.error as exc:  # pragma: no cover - the bug
                pytest.fail(f"raw struct.error escaped: {exc}")

    def test_bogus_class_ref(self):
        ref = b"no_such_module_xyz:Nope"
        payload = b"1"
        frame = (
            bytes((wire.TAG_GENERIC,))
            + struct.pack(">H", len(ref))
            + ref
            + struct.pack(">I", len(payload))
            + payload
        )
        blob = (
            wire.HEADER.pack(wire.MAGIC, 0, 1)
            + wire.COLUMN.pack(wire.KIND_TAGGED, len(frame))
            + frame
            + wire.COLUMN.pack(wire.TAG_NULL, 0)
        )
        with pytest.raises(WireFormatError, match="not importable"):
            wire.decode_pair_list(blob)
