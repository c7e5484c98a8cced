"""The slice-and-recurse element codec, kept as the test oracle.

These are the bodies ``repro.sparklite.codec`` shipped before the
position-based decoder and the type-table encoder replaced them: one
``str`` slice per consumed token, a Python loop per digit, an
``isinstance`` ladder per encoded node.  Slow and — on corrupt input —
lax, but byte-for-byte the definition of the format, which is frozen
(the encoding *is* the shuffle key and the partition-hash input).

The only addition is :data:`_notes`: the old decoder accepted four kinds
of corrupt line as data, and each such spot records a note so the
mutation suite can tell "the oracle decoded a well-formed line" from
"the oracle was lax".  :func:`decode_with_notes` returns both.
"""

from __future__ import annotations

import math

from repro.sparklite.codec import CodecError

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}

#: Laxities of the decode in flight (see :func:`decode_with_notes`).
_notes: list[str] = []


def decode_with_notes(text: str):
    """``(value, notes)``; ``notes`` is empty when the oracle read a
    line it had no reason to doubt."""
    del _notes[:]
    value = decode_element(text)
    return value, tuple(_notes)


def escape_text(text: str) -> str:
    if "\\" not in text and "\t" not in text and "\n" not in text and "\r" not in text:
        return text
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def unescape_text(text: str) -> str:
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise CodecError(f"dangling escape in {text!r}")
            nxt = text[i + 1]
            if nxt not in _UNESCAPES:
                raise CodecError(f"bad escape \\{nxt} in {text!r}")
            out.append(_UNESCAPES[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def encode_element(value) -> str:
    # bool before int: bool is an int subclass but must stay distinct.
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        if math.isnan(value):
            return "fnan"
        # repr round-trips every finite float (and +/-inf) exactly.
        return f"f{value!r}"
    if isinstance(value, str):
        return "s" + escape_text(value)
    if isinstance(value, bytes):
        return "y" + value.hex()
    if isinstance(value, (tuple, list)):
        tag = "t" if isinstance(value, tuple) else "l"
        parts = [encode_element(item) for item in value]
        return tag + str(len(parts)) + "".join(f",{len(p)}:{p}" for p in parts)
    raise CodecError(
        f"cannot encode {type(value).__name__!r} element {value!r}; "
        "compiled sparklite supports None/bool/int/float/str/bytes and "
        "tuple/list nests of those"
    )


def decode_element(text: str):
    value, rest = _decode(text)
    if rest:
        raise CodecError(f"trailing bytes {rest!r} after decoding {text!r}")
    return value


def _decode(text: str):
    if not text:
        raise CodecError("empty encoding")
    tag, body = text[0], text[1:]
    if tag == "n":
        return None, body
    if tag == "b":
        if body[:1] not in ("0", "1"):
            raise CodecError(f"bad bool encoding {text!r}")
        return body[0] == "1", body[1:]
    if tag == "i":
        digits = _take_number(body)
        return int(digits), body[len(digits):]
    if tag == "f":
        if body.startswith("nan"):
            return math.nan, body[3:]
        digits = _take_float(body)
        return float(digits), body[len(digits):]
    if tag == "s":
        return unescape_text(body), ""
    if tag == "y":
        return bytes.fromhex(body), ""
    if tag in ("t", "l"):
        count_digits = _take_number(body)
        count = int(count_digits)
        if count < 0:
            _notes.append("negative count")
        rest = body[len(count_digits):]
        items = []
        for _ in range(count):
            if not rest.startswith(","):
                raise CodecError(f"bad container encoding {text!r}")
            rest = rest[1:]
            length_digits = _take_number(rest)
            length = int(length_digits)
            if length < 0:
                _notes.append("negative length")
            if rest[len(length_digits):len(length_digits) + 1] != ":":
                _notes.append("length not closed by ':'")
            rest = rest[len(length_digits) + 1:]  # skip digits + ':'
            if length > len(rest):
                _notes.append("item length runs past the end")
            items.append(decode_element(rest[:length]))
            rest = rest[length:]
        return (tuple(items) if tag == "t" else items), rest
    raise CodecError(f"unknown tag {tag!r} in {text!r}")


def _take_number(text: str) -> str:
    i = 0
    if text[:1] == "-":
        i = 1
    while i < len(text) and text[i].isdigit():
        i += 1
    if i == 0 or (i == 1 and text[:1] == "-"):
        raise CodecError(f"expected number at {text!r}")
    if not text[:i].isascii():
        _notes.append("non-ASCII digit")
    return text[:i]


def _take_float(text: str) -> str:
    i = 0
    allowed = set("0123456789+-.einf")
    while i < len(text) and text[i] in allowed:
        i += 1
    if i == 0:
        raise CodecError(f"expected float at {text!r}")
    return text[:i]
