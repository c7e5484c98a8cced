"""The one-pass element codec against the slice-and-recurse oracle.

``repro.sparklite.codec`` decodes by position (C-level token scans, no
copy of the remainder) and encodes through a ``type()``-keyed table;
``tests/sparklite/codec_oracle.py`` keeps the bodies it replaced.  The
format is frozen — the encoding *is* the shuffle key and the
partition-hash input — so:

- every element encodes byte for byte as the oracle encodes it, and
  decodes to an equal value with the same ``type()`` at every node and
  the same sign of zero;
- on corrupt input the decoder fails closed and only with
  :class:`CodecError`: every one-character mutation of every encoding
  either raises ``CodecError`` or returns what the oracle returns, and
  the only lines the oracle reads that the decoder refuses are the four
  kinds the oracle was lax about (see ``codec_oracle._notes``);
- the cost is one token scan per node and no slice longer than a token.
"""

import math
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.sparklite import codec
from repro.sparklite.codec import (
    CodecError,
    decode_element,
    encode_element,
    escape_text,
    sort_token,
    stable_hash,
    unescape_text,
)
from repro.util.errors import ReproError
from tests.sparklite import codec_oracle as oracle
from tests.sparklite.test_codec import CORPUS

SETTINGS = settings(max_examples=300, deadline=None)


class MyInt(int):
    pass


class MyStr(str):
    pass


class MyTuple(tuple):
    pass


_GNARLY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("\t\n\r\\,:-01tn😀é"), st.characters(exclude_categories=["Cs"])
    ),
    max_size=12,
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e16, 1e-7, 0.1 + 0.2]
    ),
)
_INTS = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80), st.sampled_from([0, -1, 2**64, -(2**64)])
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    _FLOATS,
    _GNARLY_TEXT,
    st.binary(max_size=6),
    _INTS.map(MyInt),
    _GNARLY_TEXT.map(MyStr),
)


def _nests(depth: int, width: int = 4):
    """Elements nested at most ``depth`` containers deep."""
    if depth == 0:
        return _SCALARS
    items = st.lists(_nests(depth - 1, width), max_size=width)
    return st.one_of(_SCALARS, items, items.map(tuple), items.map(MyTuple))


ELEMENTS = _nests(4)


def _same(a, b) -> bool:
    """Equal, same ``type()`` at every node, NaN == NaN, -0.0 != 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


class TestEncodeMatchesOracle:
    @SETTINGS
    @given(ELEMENTS)
    def test_every_byte_and_every_node(self, value):
        encoded = encode_element(value)
        assert encoded == oracle.encode_element(value)
        decoded = decode_element(encoded)
        assert _same(decoded, oracle.decode_element(encoded))
        # ... and the round trip loses nothing but subclass-ness.
        assert encode_element(decoded) == encoded

    @SETTINGS
    @given(ELEMENTS)
    def test_grouping_token_and_partition_hash_unchanged(self, value):
        token = oracle.encode_element(value)
        assert sort_token(value) == token
        assert stable_hash(value) == zlib.crc32(token.encode("utf-8")) & 0x7FFFFFFF

    @pytest.mark.parametrize("value", CORPUS, ids=repr)
    def test_corpus(self, value):
        assert encode_element(value) == oracle.encode_element(value)
        assert _same(decode_element(encode_element(value)), value)

    def test_unencodable_is_still_a_codec_error_with_the_same_message(self):
        for value in ({"a": 1}, frozenset(), 1j, [1, {2}]):
            with pytest.raises(CodecError) as new:
                encode_element(value)
            with pytest.raises(CodecError) as old:
                oracle.encode_element(value)
            assert str(new.value) == str(old.value)

    def test_bool_never_takes_the_int_row(self):
        assert encode_element(True) == "b1" and encode_element([False]) == "l1,2:b0"


class TestEscapes:
    @SETTINGS
    @given(_GNARLY_TEXT)
    def test_escape_is_byte_identical_and_inverts(self, text):
        escaped = escape_text(text)
        assert escaped == oracle.escape_text(text)
        assert unescape_text(escaped) == text

    @SETTINGS
    @given(st.text(alphabet="\\tnrq\t\n ab", max_size=10))
    def test_unescape_matches_oracle_on_every_input(self, text):
        try:
            expected = oracle.unescape_text(text)
        except CodecError as exc:
            with pytest.raises(CodecError) as caught:
                unescape_text(text)
            assert str(caught.value) == str(exc)
        else:
            assert unescape_text(text) == expected


# --------------------------------------------------------------------------
# fail closed, and only with CodecError

FAILED = object()

#: Replacement / insertion alphabet: every structural character of the
#: format, one character outside it, and two non-ASCII "digits"
#: (``str.isdigit`` is true for both; ``int`` accepts only the second).
MUTATION_ALPHABET = ",:-019tlisfnby\\e.+x²٣"


def _mutants(text: str):
    for offset in range(len(text) + 1):
        if offset < len(text):
            yield text[:offset] + text[offset + 1:]
        for ch in MUTATION_ALPHABET:
            if offset < len(text) and text[offset] != ch:
                yield text[:offset] + ch + text[offset + 1:]
            yield text[:offset] + ch + text[offset:]


def _check_mutant(text: str) -> None:
    # Anything but CodecError escaping here fails the test by itself.
    try:
        new = decode_element(text)
    except CodecError:
        new = FAILED
    try:
        old, notes = oracle.decode_with_notes(text)
    except (ReproError, ValueError):
        old, notes = FAILED, ()
    if new is not FAILED:
        assert old is not FAILED, f"{text!r}: decoded {new!r}, the oracle refuses it"
        assert _same(new, old), f"{text!r}: {new!r} != oracle {old!r}"
    elif old is not FAILED:
        assert notes, f"{text!r}: refused, but the oracle reads {old!r} with no laxity"


class TestMutations:
    @settings(max_examples=60, deadline=None)
    @given(_nests(3, width=3))
    def test_one_character_mutations(self, value):
        for mutant in _mutants(encode_element(value)):
            _check_mutant(mutant)

    @pytest.mark.parametrize("value", CORPUS, ids=repr)
    def test_one_character_mutations_of_the_corpus(self, value):
        for mutant in _mutants(encode_element(value)):
            _check_mutant(mutant)

    @pytest.mark.parametrize("text", ["i²", "f1-e", "f.", "yzz", "y0", "i" + "9" * 5000])
    def test_conversion_failures_are_codec_errors(self, text):
        # Bare ValueError out of int()/float()/fromhex() on the parent.
        with pytest.raises(CodecError):
            decode_element(text)

    @pytest.mark.parametrize(
        "text",
        [
            "t1,5:i1",  # item length past the end: was (1,)
            "t-1",  # negative count: was ()
            "l2,2:i1,-1:i2",  # negative length
            "t1,2;i1",  # length not closed by ':'
            "i٣",  # int() reads Arabic-Indic digits; the format is ASCII
            "t1,٢:i1",
        ],
    )
    def test_corrupt_lines_the_parent_accepted_as_data(self, text):
        with pytest.raises(CodecError):
            decode_element(text)

    @pytest.mark.parametrize(
        "text", ["", "t", "t1", "t1,", "t1,2", "t1,2:", "t1,2:i", "b", "b2", "q", "n1", "t1,1:n,"]
    )
    def test_truncations_and_trailers(self, text):
        with pytest.raises(CodecError):
            decode_element(text)

    def test_lenient_spellings_the_oracle_also_reads_still_decode(self):
        # Not produced by the encoder, but well-formed under the grammar.
        for text in ("i007", "i-0", "t01,2:i1", "f+inf", "f1e5", "t-0", "y ab"):
            assert _same(decode_element(text), oracle.decode_element(text))


# --------------------------------------------------------------------------
# cost: count token scans and slices, never seconds


class _CountingStr(str):
    """Records the length of every Python-level slice taken of it (and
    of the slices of those slices — the oracle recurses on copies)."""

    sliced: list

    def __getitem__(self, index):
        piece = super().__getitem__(index)
        if isinstance(index, slice):
            self.sliced.append(len(piece))
            piece = _CountingStr(piece)
            piece.sliced = self.sliced
        return piece


class _CountingPattern:
    def __init__(self, pattern, calls: list):
        self._pattern, self._calls = pattern, calls

    def match(self, *args):
        self._calls.append(self._pattern.pattern)
        return self._pattern.match(*args)


def _decode_counting(monkeypatch, decode, n: int):
    values = [(7919 * i) % 100_003 - 50_000 for i in range(n)]
    text = _CountingStr(oracle.encode_element(values))
    text.sliced = []
    scans: list = []
    for name in ("_INT", "_FLOAT", "_ITEM"):
        monkeypatch.setattr(codec, name, _CountingPattern(getattr(codec, name), scans))
    assert decode(text) == values
    return scans, text.sliced


class TestDecodeCost:
    LONGEST_TOKEN = len("i-50000")

    @pytest.mark.parametrize("n", [500, 5000])
    def test_flat_list_is_two_scans_per_item_and_no_tail_copies(self, monkeypatch, n):
        scans, sliced = _decode_counting(monkeypatch, decode_element, n)
        # One count, then per item one ",len:" header and one integer.
        assert len(scans) == 2 * n + 1
        assert [s for s in sliced if s > self.LONGEST_TOKEN] == []

    def test_the_guard_bites_on_the_oracle(self, monkeypatch):
        _scans, sliced = _decode_counting(monkeypatch, oracle.decode_element, 500)
        # Every consumed token re-sliced the whole tail: quadratic bytes.
        assert sum(sliced) > 500 * 500
