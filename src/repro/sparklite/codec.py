"""A canonical, injective text codec for sparklite elements.

Compiled execution (``repro.sparklite.planner``) ships RDD elements
through MapReduce stages as ``Text`` lines, so every element needs a
textual form that

- is **injective**: distinct elements never collide (``repr`` fails
  this — ``"1"`` vs ``1`` vs ``1.0`` — which is why partitioning and
  ordering used to be fragile);
- is **line-safe**: never contains ``\\t``, ``\\n`` or ``\\r``, so one
  encoded element is exactly one ``TextOutputFormat`` field;
- sorts **identically everywhere**: the in-memory evaluator and the MR
  shuffle order keys by the same encoded string, which is what makes
  compiled output bit-identical to in-memory output;
- is **seed-stable**: hashing the encoded bytes (CRC32) gives the same
  partition under every ``PYTHONHASHSEED`` and Python build.

The supported element universe is what RDD pipelines actually move:
``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and
``tuple``/``list`` nests of those.
"""

from __future__ import annotations

import math
import re
import struct
import zlib

from repro.util.errors import ReproError


class CodecError(ReproError):
    """An element outside the encodable universe, or a corrupt encoding."""


_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_ESCAPE_SEQ = re.compile(r"\\(.?)", re.DOTALL)

# Token scanners, applied in place with ``match(text, pos, end)``.  The
# classes are spelled out: ``\d`` would admit non-ASCII digits.
_INT = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"nan|[0-9+\-.einf]+")
_ITEM = re.compile(r",([0-9]+):")


def escape_text(text: str) -> str:
    """Make a string line-safe (no tab/newline/CR, reversible)."""
    if "\\" not in text and "\t" not in text and "\n" not in text and "\r" not in text:
        return text
    return text.translate(_ESCAPE_TABLE)


def _unescape_one(match: re.Match) -> str:
    nxt = match[1]
    plain = _UNESCAPES.get(nxt)
    if plain is None:
        if not nxt:
            raise CodecError(f"dangling escape in {match.string!r}")
        raise CodecError(f"bad escape \\{nxt} in {match.string!r}")
    return plain


def unescape_text(text: str) -> str:
    if "\\" not in text:
        return text
    return _ESCAPE_SEQ.sub(_unescape_one, text)


def _encode_float(value: float) -> str:
    # NaN alone is unequal to itself; repr round-trips every other
    # float (finite or +/-inf) exactly.
    return "fnan" if value != value else f"f{value!r}"


def _container_encoder(tag: str):
    def encode(value) -> str:
        pieces = [tag, ""]
        for item in value:
            part = encode_element(item)
            pieces.append(f",{len(part)}:{part}")
        pieces[1] = str(len(pieces) - 2)
        return "".join(pieces)

    return encode


#: Exact ``type()`` -> encoder.  ``bool`` has its own row, so it never
#: reaches the ``int`` one; subclasses go through :func:`_subclass_encoder`.
_ENCODERS = {
    type(None): lambda value: "n",
    bool: lambda value: "b1" if value else "b0",
    int: lambda value: f"i{value}",
    float: _encode_float,
    str: lambda value: "s" + escape_text(value),
    bytes: lambda value: "y" + value.hex(),
    tuple: _container_encoder("t"),
    list: _container_encoder("l"),
}


def _subclass_encoder(value):
    # bool before int: bool is an int subclass but must stay distinct.
    for base in (bool, int, float, str, bytes, tuple, list):
        if isinstance(value, base):
            return _ENCODERS[base]
    raise CodecError(
        f"cannot encode {type(value).__name__!r} element {value!r}; "
        "compiled sparklite supports None/bool/int/float/str/bytes and "
        "tuple/list nests of those"
    )


def encode_element(value) -> str:
    """Encode one element as a line-safe, injective, sortable-enough string.

    The leading tag byte keeps types apart (``1`` and ``"1"`` and
    ``True`` all encode differently); containers carry explicit length
    prefixes so nesting round-trips unambiguously.
    """
    encoder = _ENCODERS.get(type(value)) or _subclass_encoder(value)
    return encoder(value)


def decode_element(text: str):
    """Invert :func:`encode_element`; anything else is a :class:`CodecError`."""
    end = len(text)
    try:
        value, pos = _decode_at(text, 0, end)
    except ValueError as exc:  # int()/float()/fromhex() on a corrupt token
        raise CodecError(f"corrupt encoding {text!r}: {exc}") from exc
    if pos != end:
        raise CodecError(f"trailing bytes {text[pos:]!r} after decoding {text!r}")
    return value


def _decode_at(text: str, pos: int, end: int):
    """Decode the element starting at ``pos``; ``(value, next position)``.

    Reads ``text[pos:end]`` in place — no copy of the remainder — and
    may stop short of ``end``; callers check for trailing bytes.
    """
    if pos >= end:
        raise CodecError("empty encoding")
    tag = text[pos]
    pos += 1
    if tag == "i":
        match = _INT.match(text, pos, end)
        if match is None:
            raise CodecError(f"expected number at offset {pos} of {text!r}")
        return int(match[0]), match.end()
    if tag == "s":
        return unescape_text(text[pos:end]), end
    if tag == "f":
        match = _FLOAT.match(text, pos, end)
        if match is None:
            raise CodecError(f"expected float at offset {pos} of {text!r}")
        return float(match[0]), match.end()
    if tag == "t" or tag == "l":
        match = _INT.match(text, pos, end)
        count = -1 if match is None else int(match[0])
        if count < 0:
            raise CodecError(f"expected item count at offset {pos} of {text!r}")
        pos = match.end()
        items = []
        for _ in range(count):
            match = _ITEM.match(text, pos, end)
            if match is None:
                raise CodecError(f"bad container encoding {text!r}")
            start = match.end()
            stop = start + int(match[1])
            if stop > end:
                raise CodecError(f"item at offset {start} runs past the end of {text!r}")
            value, pos = _decode_at(text, start, stop)
            if pos != stop:
                raise CodecError(
                    f"trailing bytes {text[pos:stop]!r} in item at offset {start} of {text!r}"
                )
            items.append(value)
        return (tuple(items) if tag == "t" else items), pos
    if tag == "n":
        return None, pos
    if tag == "b":
        if pos == end or text[pos] not in "01":
            raise CodecError(f"bad bool encoding {text!r}")
        return text[pos] == "1", pos + 1
    if tag == "y":
        return bytes.fromhex(text[pos:end]), end
    raise CodecError(f"unknown tag {tag!r} in {text!r}")


def stable_hash(value) -> int:
    """A type-aware, ``PYTHONHASHSEED``-independent 31-bit hash.

    CRC32 over the canonical encoding: the Writable-serialization route
    the partitioners use, so in-memory hash partitioning and the MR
    :class:`~repro.mapreduce.partitioner.HashPartitioner` (CRC32 over
    the ``Text`` key, which *is* the encoding) agree by construction.
    """
    return zlib.crc32(sort_token(value).encode("utf-8")) & 0x7FFFFFFF


def sort_token(value) -> str:
    """The canonical grouping/ordering token both evaluators use.

    Keys with equal tokens shuffle to the same group; groups order by
    token.  Encodable values use the injective codec (so the MR ``Text``
    key *is* the token); anything outside the codec universe — legal on
    the local backend only — falls back to a ``repr`` token, preserving
    the historical permissiveness of in-memory evaluation.
    """
    try:
        return encode_element(value)
    except CodecError:
        return "z" + repr(value)


# --------------------------------------------------------------------------
# order-preserving scalar encodings (the Hive total-order sort stage)


def sortable_int(value: int) -> str:
    """Fixed-width text whose lexicographic order == numeric order.

    Valid for |value| < 10**19 (every schema INT this repo generates);
    the offset trick keeps negatives ordered without a sign branch.
    """
    if abs(value) >= 10**19:
        raise CodecError(f"sortable_int range exceeded: {value}")
    return str(value + 10**19).zfill(20)


def sortable_float(value: float) -> str:
    """IEEE-754 bit trick: flip sign bit (positives) or all bits
    (negatives) so the hex string sorts in numeric order.  NaN sorts
    last (all-ones prefix after flip puts it above +inf)."""
    if math.isnan(value):
        return "f" * 16 + "n"
    bits = struct.unpack(">Q", struct.pack(">d", value))[0]
    if bits & (1 << 63):
        bits = ~bits & ((1 << 64) - 1)
    else:
        bits |= 1 << 63
    return f"{bits:016x}"
