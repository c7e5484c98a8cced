"""The binary framed shuffle codec: packs or raises, sizes, errors.

Three contracts:

1. a column of one framework class — ``Text``, ``IntWritable`` within
   32 bits, ``LongWritable`` within 64, ``FloatWritable``,
   ``NullWritable`` — round-trips bit-exactly through
   ``encode_runs``/``decode_runs`` (including the nasty corners:
   empty/NUL/astral-plane Text, 32- and 64-bit boundary integers, signed
   zero and infinities); any other column (mixed classes, an integer
   past its width, a custom or ``record_writable`` class) raises
   :class:`WireFormatError`, and ``MapOutput.freeze`` keeps that map
   output in object form;
2. an entry's payload width equals the Writable's ``serialized_size()``
   — the invariant that keeps framed and object runs' byte counters
   bit-identical;
3. malformed input raises :class:`WireFormatError` with a useful
   message, never raw ``struct.error`` noise.
"""

import pickle
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.zipf_text import ZipfTextGenerator
from repro.mapreduce import wire
from repro.mapreduce.counters import PerfStats
from repro.mapreduce.shuffle import MapOutput
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
from tests.mapreduce import shuffle_oracle, wire_oracle

SETTINGS = settings(max_examples=60, deadline=None)

SumCount = record_writable("SumCount", [("total", float), ("count", int)])

INT_BOUNDARIES = [
    0, 1, -1, 2**31 - 1, -(2**31), 2**31, -(2**31) - 1,
    2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**40, -(10**40),
]


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

#: One strategy per class; a column drawn from one of them packs unless
#: an integer is past its width.
by_class = [
    texts.map(Text),
    ints.map(IntWritable),
    ints.map(LongWritable),
    floats.map(FloatWritable),
    st.just(NullWritable()),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers()).map(
        lambda t: SumCount(total=t[0], count=t[1])
    ),
]
writables = st.one_of(*by_class)


@st.composite
def pair_lists(draw, keys=None):
    """Keys and values each of one class, or (sometimes) of any mix."""
    columns = st.sampled_from([*by_class, writables])
    keys = draw(columns) if keys is None else keys
    return draw(st.lists(st.tuples(keys, draw(columns)), max_size=30))


def _pairs_pack(pairs) -> bool:
    return all(map(wire_oracle.rwf2_packs, zip(*pairs)))


def _identical(a, b) -> bool:
    """Stricter than ==: same concrete class, same encoded text."""
    return type(a) is type(b) and a.encode() == b.encode()


def _assert_object_form(pairs):
    """A column that does not pack keeps its map output as objects."""
    runs = shuffle_oracle.record_runs(pairs)
    output = MapOutput(task_index=0, node="n", partitions={0: runs})
    perf = PerfStats()
    assert not output.freeze(perf)
    assert perf.frame_fallbacks == 1 and not output.frozen
    shipped = pickle.loads(pickle.dumps(output, pickle.HIGHEST_PROTOCOL))
    assert shipped.partitions[0] == runs
    assert shipped.partition_bytes(0) == shuffle_oracle.serialized_bytes(pairs)
    assert shipped.partition_records(0) == len(pairs)
    return shuffle_oracle.records_of(shipped.partitions[0])


# -- packs or raises --------------------------------------------------------


class TestRoundTrip:
    @given(pairs=pair_lists())
    @SETTINGS
    def test_every_pair_roundtrips(self, pairs):
        """Packable pairs round-trip as bytes; any other raises."""
        if not _pairs_pack(pairs):
            with pytest.raises(WireFormatError, match="cannot pack"):
                shuffle_oracle.encode_records(pairs)
            return
        blob, payload = shuffle_oracle.encode_records(pairs)
        decoded = shuffle_oracle.decode_records(blob)
        assert len(decoded) == len(pairs)
        for (k1, v1), (k2, v2) in zip(pairs, decoded):
            assert _identical(k1, k2) and _identical(v1, v2)
        assert wire.HEADER.unpack_from(blob)[2] == len(pairs)

    @pytest.mark.parametrize(
        "text",
        ["", "\x00", "a\x00b", "naïve", "\U0001f600\U0001f680", "\n\t\r", "x" * 5000],
    )
    def test_text_corners(self, text):
        blob, _ = shuffle_oracle.encode_records([(Text(text), Text(text))])
        (k, v), = shuffle_oracle.decode_records(blob)
        assert k.value == text and v.value == text

    @pytest.mark.parametrize("value", INT_BOUNDARIES)
    def test_integer_boundaries(self, value):
        """Within its kind's width an integer packs; past it, the column
        raises and the map output ships as objects, classes intact."""
        other = -value if value else 0
        for cls, bits in ((IntWritable, 32), (LongWritable, 64)):
            pairs = [(cls(value), cls(other))]
            if wire_oracle.rwf2_packs([cls(value), cls(other)]):
                blob, _ = shuffle_oracle.encode_records(pairs)
                (k, v), = shuffle_oracle.decode_records(blob)
            else:
                with pytest.raises(WireFormatError, match=f"beyond {bits} bits"):
                    shuffle_oracle.encode_records(pairs)
                (k, v), = _assert_object_form(pairs)
            assert type(k) is cls and k.value == value
            assert type(v) is cls and v.value == other

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 1.5, -2.25, float("inf"), float("-inf"), 1e-308, 1e308]
    )
    def test_float_corners(self, value):
        blob, _ = shuffle_oracle.encode_records([(FloatWritable(value), NullWritable())])
        (k, v), = shuffle_oracle.decode_records(blob)
        assert k.value == value
        # signed zero survives (== treats 0.0 and -0.0 alike; repr doesn't)
        assert repr(k.value) == repr(float(value))
        assert v is NullWritable()

    def test_record_writable_roundtrips(self):
        """A ``record_writable`` value does not pack: it round-trips as a
        pickled object, the form a pooled map output then ships in."""
        pairs = [(Text("k"), SumCount(total=1.5, count=3))]
        with pytest.raises(WireFormatError, match="cannot pack a column of SumCount"):
            shuffle_oracle.encode_records(pairs)
        (k, v), = _assert_object_form(pairs)
        assert type(v) is SumCount and v.total == 1.5 and v.count == 3

    def test_local_class_refuses_to_frame(self):
        Local = record_writable("Local", [("x", int)])
        Local.__qualname__ = "test_local.<locals>.Local"  # unimportable ref
        with pytest.raises(WireFormatError):
            shuffle_oracle.encode_records([(Text("k"), Local(x=1))])

    def test_unframeable_output_stays_in_object_form_and_is_counted(self):
        Local = record_writable("Local", [("x", int)])
        Local.__qualname__ = "test_local.<locals>.Local"
        output = MapOutput(task_index=0, node="n", partitions={0: [(Text("k"), [Local(x=1)])]})
        perf = PerfStats()
        assert not output.freeze(perf)
        assert perf.frame_fallbacks == 1
        assert not output.frozen and output.partitions[0][0][1][0].x == 1

    def test_non_writable_refuses_to_frame(self):
        with pytest.raises(WireFormatError):
            shuffle_oracle.encode_records([(Text("k"), "not a writable")])


# -- size agreement (satellite: serialized_size drift) ----------------------


class TestSizeAgreement:
    @given(pairs=pair_lists())
    @SETTINGS
    def test_payload_bytes_equal_serialized_bytes(self, pairs):
        if _pairs_pack(pairs):
            _, payload = shuffle_oracle.encode_records(pairs)
            assert payload == shuffle_oracle.serialized_bytes(pairs)

    @given(w=writables)
    @SETTINGS
    def test_decoded_size_memo_matches_fresh_instance(self, w):
        """Decoded Writables report the same serialized_size as the
        originals — their preset memo must not drift from the codec."""
        if not wire_oracle.rwf2_packs([w]):
            with pytest.raises(WireFormatError):
                shuffle_oracle.encode_records([(w, w)])
            return
        blob, _ = shuffle_oracle.encode_records([(w, w)])
        (k, v), = shuffle_oracle.decode_records(blob)
        assert k.serialized_size() == w.serialized_size()
        assert v.serialized_size() == w.serialized_size()

    def test_emission_order_stream_is_smaller_than_pickle(self):
        """Pre-combine WordCount output in emission order: key runs of
        length ~1, the worst case for run packing, still beats pickle."""
        text = ZipfTextGenerator(RngStream(29).child("wire")).text_of_bytes(
            64 * 1024
        )
        pairs = [(Text(word), IntWritable(1)) for word in text.split()]
        blob, _ = shuffle_oracle.encode_records(pairs)
        assert shuffle_oracle.decode_records(blob) == pairs
        assert len(blob) < len(pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL))


# -- malformed input --------------------------------------------------------


class TestMalformed:
    def _blob(self):
        blob, _ = shuffle_oracle.encode_records(
            [(Text("hello"), IntWritable(7)), (Text("world"), IntWritable(-2))]
        )
        return blob

    def test_truncated_everywhere_raises_wire_error(self):
        blob = self._blob()
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                shuffle_oracle.decode_records(blob[:cut])

    def test_truncation_message_names_offset(self):
        blob = self._blob()
        with pytest.raises(WireFormatError, match="truncated"):
            shuffle_oracle.decode_records(blob[:-1])

    def test_bad_magic(self):
        blob = b"XXXX" + self._blob()[4:]
        with pytest.raises(WireFormatError, match="magic"):
            shuffle_oracle.decode_records(blob)

    def test_unknown_tag(self):
        blob = bytearray(self._blob())
        blob[wire.HEADER.size] = 0x7F  # the key column's kind
        with pytest.raises(WireFormatError, match="unknown column kind 0x7f"):
            shuffle_oracle.decode_records(bytes(blob))
        # kind 0x00 (per-record frames) is no longer a column kind
        blob = bytearray(self._blob())
        blob[self._value_column()] = 0x00
        with pytest.raises(WireFormatError, match="unknown column kind 0x00"):
            shuffle_oracle.decode_records(bytes(blob))

    def _value_column(self) -> int:
        """Offset of the value column header in ``_blob()``."""
        _kind, key_bytes = wire.COLUMN.unpack_from(self._blob(), wire.HEADER.size)
        return wire.HEADER.size + wire.COLUMN.size + key_bytes

    def test_trailing_garbage(self):
        with pytest.raises(WireFormatError, match="trailing"):
            shuffle_oracle.decode_records(self._blob() + b"junk")

    def test_corrupt_utf8_payload(self):
        blob, _ = shuffle_oracle.encode_records([(Text("ab"), NullWritable())])
        broken = bytearray(blob)
        # column header, run count, one byte width, then the Text payload
        broken[wire.HEADER.size + wire.COLUMN.size + 8] = 0xFF
        with pytest.raises(WireFormatError, match="corrupt"):
            shuffle_oracle.decode_records(bytes(broken))

    def test_garbage_is_never_struct_error(self):
        import random

        rng = random.Random(1234)
        for _ in range(200):
            junk = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            try:
                shuffle_oracle.decode_records(junk)
            except WireFormatError:
                pass
            except struct.error as exc:  # pragma: no cover - the bug
                pytest.fail(f"raw struct.error escaped: {exc}")

    def test_bogus_class_ref(self):
        """A kind-0x00 column naming a class by ``module:qualname`` is
        rejected by its kind: decoding imports and resolves nothing."""
        ref = b"no_such_module_xyz:Nope"
        payload = b"1"
        frame = (
            bytes((wire_oracle.TAG_GENERIC,))
            + struct.pack(">H", len(ref))
            + ref
            + struct.pack(">I", len(payload))
            + payload
        )
        blob = (
            wire.HEADER.pack(wire.MAGIC, 0, 1)
            + wire.COLUMN.pack(0x00, len(frame))
            + frame
            + wire.COLUMN.pack(wire.KIND_NULL, 0)
        )
        with pytest.raises(WireFormatError, match="unknown column kind 0x00"):
            shuffle_oracle.decode_records(blob)
        assert "no_such_module_xyz" not in sys.modules
