"""The compiled edit encoder against the field-by-field walker it
replaced (``edit_codec_oracle``): the same bytes for every opcode and
every value, and the same exception type for every value it refuses."""

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hdfs import journal
from repro.hdfs.journal import EDIT_SPECS, OP_SET_QUOTA, decode_edit, encode_edit
from repro.util.errors import JournalFormatError
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
