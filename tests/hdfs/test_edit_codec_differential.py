"""The compiled journal codec against the field-by-field walkers it
replaced (``edit_codec_oracle``): the same edit and fsimage bytes for
every record and every value, the same exception type for every value
the encoder refuses, the same decoded values for every payload and
CRC-valid image body, and the same rejections — except that an
under-construction byte other than 0/1, which the old image decoder
read as "complete", is now refused like any other bool byte."""

import math
import struct
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hdfs import journal
from repro.hdfs.block import Block
from repro.hdfs.journal import (
    EDIT_SPECS,
    IMAGE_MAGIC,
    OP_SET_QUOTA,
    VERSION,
    decode_edit,
    decode_image,
    edits_header,
    empty_image_state,
    encode_edit,
    encode_image,
    frame_record,
    scan_edits,
)
from repro.util.errors import HdfsError, JournalFormatError
from tests.hdfs import edit_codec_oracle as oracle

SETTINGS = settings(max_examples=300, deadline=None)

_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_VALID = {
    "str": st.text(max_size=12),  # non-ASCII and astral included
    "u32": st.integers(min_value=0, max_value=2**32 - 1),
    "u64": st.integers(min_value=0, max_value=2**64 - 1),
    "i64": _I64,
    "f64": st.floats(),  # NaN, ±inf and ±0.0 included
    "bool": st.booleans(),
    "opt_i64": st.none() | _I64,
}
#: Values of any kind: out of range, wrong type, truthy non-bools,
#: unencodable surrogates.
_ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["\ud800", b"raw", (), [1]]),
)


def outcome(encode, op, values):
    try:
        return "ok", encode(op, values)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raised", type(exc)


def _records(field_values):
    def per_op(op):
        return st.tuples(*(field_values(kind) for kind in EDIT_SPECS[op])).map(
            lambda values: (op, values)
        )

    return st.one_of([per_op(op) for op in sorted(EDIT_SPECS)])


class TestSameBytes:
    @SETTINGS
    @given(record=_records(_VALID.__getitem__))
    @example(record=(journal.OP_MKDIRS, ("/ü/日本/😀", -0.0)))
    @example(record=(journal.OP_COMPLETE, ("/a", math.nan)))
    @example(record=(journal.OP_CREATE, ("/a", 3, -math.inf)))
    @example(record=(OP_SET_QUOTA, ("/q", None, None)))
    @example(record=(OP_SET_QUOTA, ("/q", -(2**63), 2**63 - 1)))
    def test_every_opcode_packs_identically(self, record):
        op, values = record
        assert outcome(encode_edit, op, values) == outcome(oracle.encode_edit, op, values)
        payload = encode_edit(op, values)
        decoded_op, decoded = decode_edit(payload)
        assert decoded_op == op
        # NaN != NaN: compare what the round trip re-encodes to.
        assert encode_edit(op, decoded) == payload

    @pytest.mark.parametrize("op", sorted(EDIT_SPECS))
    @pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_f64_specials_every_opcode(self, op, value):
        values = tuple(
            value if kind == "f64" else {"str": "/é", "bool": False, "opt_i64": None}.get(kind, 7)
            for kind in EDIT_SPECS[op]
        )
        assert encode_edit(op, values) == oracle.encode_edit(op, values)


class TestSameRefusals:
    @SETTINGS
    @given(record=_records(lambda _kind: _ANY))
    def test_any_value_same_bytes_or_same_exception(self, record):
        op, values = record
        assert outcome(encode_edit, op, values) == outcome(oracle.encode_edit, op, values)

    @pytest.mark.parametrize("op", sorted(EDIT_SPECS))
    def test_wrong_arity(self, op):
        arity = len(EDIT_SPECS[op])
        for values in (("/a",) * (arity - 1), ("/a",) * (arity + 1)):
            with pytest.raises(JournalFormatError, match="fields"):
                encode_edit(op, values)
            assert outcome(encode_edit, op, values) == outcome(oracle.encode_edit, op, values)

    @pytest.mark.parametrize("op", [0, 12, 99, -1])
    def test_unknown_opcode(self, op):
        with pytest.raises(JournalFormatError, match="opcode"):
            encode_edit(op, ())

    @pytest.mark.parametrize(
        "op, values, error",
        [
            (journal.OP_CREATE, ("/a", -1, 0.0), struct.error),
            (journal.OP_ADD_BLOCK, ("/a", 2**64, 0, 0), struct.error),
            (journal.OP_MKDIRS, ("/a", "1.0"), struct.error),
            (OP_SET_QUOTA, ("/q", 1.5, None), struct.error),
            (journal.OP_RENAME, ("/a", 7), AttributeError),
            (journal.OP_DECOMM_START, ("\ud800",), UnicodeEncodeError),
        ],
    )
    def test_named_refusals(self, op, values, error):
        with pytest.raises(error):
            encode_edit(op, values)
        assert outcome(oracle.encode_edit, op, values) == ("raised", error)


# -- decoding ---------------------------------------------------------------


def decoded(decode, data):
    """What a decoder makes of ``data``: its values (by ``repr``, so NaN
    and -0.0 compare exactly) or the type of what it raised."""
    try:
        return "ok", repr(decode(data))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raised", type(exc)


@st.composite
def mutated(draw, blobs):
    """A blob, then one of: a byte overwritten, a cut, bytes inserted."""
    data = bytearray(draw(blobs))
    how = draw(st.sampled_from(["set", "cut", "insert", "none"]))
    at = draw(st.integers(min_value=0, max_value=len(data)))
    if how == "set" and at < len(data):
        data[at] = draw(st.sampled_from([0, 1, 2, 0x7F, 0xFF]))
    elif how == "cut":
        del data[at:]
    elif how == "insert":
        data[at:at] = draw(st.binary(min_size=1, max_size=3))
    return bytes(data)


_PAYLOADS = mutated(
    _records(_VALID.__getitem__).map(lambda record: encode_edit(*record))
) | st.binary(max_size=24)


class TestSameDecoding:
    @SETTINGS
    @given(payload=_PAYLOADS)
    @example(payload=b"")
    @example(payload=bytes([journal.OP_DELETE]) + b"\x00\x00\x00\x01/\x02")
    @example(payload=bytes([OP_SET_QUOTA]) + b"\x00\x00\x00\x00\x03\x00")
    @example(payload=bytes([journal.OP_DECOMM_START]) + b"\x00\x00\x00\x01\xff")
    def test_every_payload_same_values_or_same_rejection(self, payload):
        assert decoded(decode_edit, payload) == decoded(oracle.decode_edit, payload)

    @SETTINGS
    @given(
        records=st.lists(_records(_VALID.__getitem__), max_size=6),
        damage=st.data(),
    )
    def test_torn_and_damaged_logs_scan_the_same(self, records, damage):
        frames = [frame_record(encode_edit(*record)) for record in records]
        if frames and damage.draw(st.booleans()):
            # Re-frame a damaged payload so its CRC holds: the scan then
            # stops on what the decoder refuses, not on the checksum.
            at = damage.draw(st.integers(min_value=0, max_value=len(frames) - 1))
            payload = damage.draw(mutated(st.just(frames[at][8:])))
            frames[at] = frame_record(payload)
        blob = edits_header() + b"".join(frames)
        blob = blob[: damage.draw(st.integers(min_value=0, max_value=len(blob)))]
        with mock.patch.object(journal, "decode_edit", oracle.decode_edit):
            expected = scan_edits(blob)
        assert repr(scan_edits(blob)) == repr(expected)


# -- the fsimage ------------------------------------------------------------


_NAMES = st.sampled_from(["a", "b", "ü", "日本", "😀", "x y"])
_MTIMES = st.floats()  # NaN, ±inf and ±0.0 included


@st.composite
def image_states(draw):
    """A random namespace (root mtime, nested directories, files open or
    complete with zero or more blocks), quotas with ``None`` halves,
    decommissioning datanodes and a next block id."""
    state = empty_image_state()
    ns = state.namespace
    ns.root.mtime = draw(_MTIMES)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        path = "/" + "/".join(draw(st.lists(_NAMES, min_size=1, max_size=3)))
        try:
            if draw(st.booleans()):
                ns.mkdirs(path, mtime=draw(_MTIMES))
                continue
            inode = ns.create_file(
                path, replication=draw(_VALID["u32"]), mtime=draw(_MTIMES)
            )
        except HdfsError:  # a file in the way, or the path is taken
            continue
        inode.under_construction = draw(st.booleans())
        inode.blocks = [
            Block(block_id=block_id, generation=generation, length=length)
            for block_id, generation, length in draw(
                st.lists(
                    st.tuples(_VALID["u64"], _VALID["u32"], _VALID["u64"]),
                    max_size=3,
                )
            )
        ]
    state.quotas = draw(
        st.dictionaries(
            st.text(max_size=6), st.tuples(_VALID["opt_i64"], _VALID["opt_i64"])
        )
    )
    state.decommissioning = draw(st.sets(st.text(max_size=6), max_size=3))
    state.next_block_id = draw(_VALID["u64"])
    return state


_HEADER_SIZE = 16  # magic, version, body length, CRC32


def rewrap(body: bytes) -> bytes:
    """An fsimage around ``body`` whose header and CRC are valid."""
    return struct.pack(">4sI", IMAGE_MAGIC, VERSION) + frame_record(body)


def image_outcome(decode, blob):
    """What a decoder makes of an fsimage: the state, re-encoded (so
    NaN mtimes compare by bits), or the type of what it raised."""
    try:
        return "ok", oracle.encode_image(decode(blob))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raised", type(exc)


class TestSameImage:
    @SETTINGS
    @given(state=image_states())
    def test_same_bytes_and_same_round_trip(self, state):
        blob = encode_image(state)
        assert blob == oracle.encode_image(state)
        assert image_outcome(decode_image, blob) == ("ok", blob)

    def test_an_open_multi_block_file_and_root_mtime(self):
        state = empty_image_state()
        state.namespace.root.mtime = 12.5
        inode = state.namespace.create_file("/d/f", replication=2, mtime=3.0)
        inode.blocks = [Block(1073741825 + i, i, 64) for i in range(3)]
        state.quotas = {"/d": (None, 100), "/e": (None, None)}
        blob = encode_image(state)
        assert blob == oracle.encode_image(state)
        restored = decode_image(blob)
        assert restored.namespace.root.mtime == 12.5
        assert restored.namespace.get_file("/d/f").under_construction
        assert restored.namespace.dump() == state.namespace.dump()
        assert restored.quotas == state.quotas

    def test_the_bool_fix_is_the_one_difference(self):
        state = empty_image_state()
        state.namespace.create_file("/f", replication=1).under_construction = False
        body = bytearray(encode_image(state)[_HEADER_SIZE:])
        assert body[-5:] == b"\x00\x00\x00\x00\x00"  # complete, no blocks
        body[-5] = 2
        blob = rewrap(bytes(body))
        assert not oracle.decode_image(blob).namespace.get_file("/f").under_construction
        with pytest.raises(JournalFormatError, match="bad bool byte 2"):
            decode_image(blob)

    def test_a_bad_bool_byte_is_refused_before_a_bad_path(self):
        # The oracle reads past the byte and fails on the relative path;
        # production refuses the byte first.
        state = empty_image_state()
        state.namespace.create_file("/f", replication=1).under_construction = False
        body = bytearray(encode_image(state)[_HEADER_SIZE:])
        body[-5] = 2
        at = body.rindex(b"/f")
        body[at : at + 2] = b"xf"
        blob = rewrap(bytes(body))
        with pytest.raises(HdfsError, match="must be absolute"):
            oracle.decode_image(blob)
        assert_same_or_the_bool_fix(blob)
        with pytest.raises(JournalFormatError, match="bad bool byte 2"):
            decode_image(blob)

    @SETTINGS
    @given(
        body=mutated(image_states().map(lambda s: encode_image(s)[_HEADER_SIZE:]))
    )
    def test_crc_valid_bodies_same_state_or_same_rejection(self, body):
        assert_same_or_the_bool_fix(rewrap(body))

    @SETTINGS
    @given(blob=mutated(image_states().map(encode_image)))
    def test_damaged_blobs_same_state_or_same_rejection(self, blob):
        assert_same_or_the_bool_fix(blob)


def assert_same_or_the_bool_fix(blob):
    ours = image_outcome(decode_image, blob)
    # The oracle with the fix: the under-construction byte read as a bool.
    assert ours == image_outcome(partial(oracle.decode_image, strict_bool=True), blob)
    if ours != image_outcome(oracle.decode_image, blob):
        # The one intended difference: the oracle reads an
        # under-construction byte that is not 0/1 as "complete", and
        # loads the file or fails later in the same record.
        with pytest.raises(JournalFormatError, match="bad bool byte"):
            decode_image(blob)
