"""Reference oracle: the RWF1 per-record frame codec, as it was, less
the size memo its decoder once preset on every Writable (Writables
carry no memo now).

This is the body ``repro.mapreduce.wire`` had before the run-packed RWF2
layout replaced it: one header, then one tagged frame per Writable, key
and value alternating — one ``_encode_one`` / ``_decode_one`` call per
frame.  It defines what RWF2 must reproduce exactly over every column
RWF2 packs (decoded class, value and ``serialized_size()``; ``payload_bytes``;
record count — RWF2 keeps the flags byte but reserves it, always 0; see
``test_wire_differential.py``, which compares the two);
:func:`rwf2_packs` restates which columns those are.  Not
collected by pytest (no ``test_`` prefix).

RWF1 blob layout (all integers big-endian)::

    +------+-------+---------+----------------------------+
    | RWF1 | flags | count   | frame frame frame ...      |
    | 4 B  | 1 B   | u32     | key/value alternating      |
    +------+-------+---------+----------------------------+

    frame := tag(1 B) + payload   (the ``TAG_*`` constants below)
"""

from __future__ import annotations

import struct
import sys
from typing import Iterable, Iterator

from repro.mapreduce.types import (
    INT32_MAX,
    INT32_MIN,
    INT64_MAX,
    INT64_MIN,
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    Writable,
)
from repro.util.errors import WireFormatError

Pair = tuple[Writable, Writable]

MAGIC = b"RWF1"
FLAG_KEY_SORTED = 0x01
HEADER = struct.Struct(">4sBI")  # magic, flags, record count

TAG_TEXT = 0x01
TAG_INT32 = 0x02
TAG_INT64 = 0x03
TAG_LONG64 = 0x04
TAG_FLOAT = 0x05
TAG_NULL = 0x06
TAG_INTBIG = 0x07
TAG_LONGBIG = 0x08
TAG_GENERIC = 0x09

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


# ---------------------------------------------------------------------------
# encoding


def _class_ref(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


_class_cache: dict[str, type] = {}


def _resolve_class(ref: str) -> type:
    """Resolve a ``module:qualname`` ref back to a Writable subclass."""
    cls = _class_cache.get(ref)
    if cls is not None:
        return cls
    module_name, _, qualname = ref.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        try:
            import importlib

            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise WireFormatError(
                f"cannot decode frame: module {module_name!r} for "
                f"Writable class {ref!r} is not importable ({exc})"
            ) from None
    obj: object = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise WireFormatError(
                f"cannot decode frame: {ref!r} does not resolve to a class"
            )
    if not (isinstance(obj, type) and issubclass(obj, Writable)):
        raise WireFormatError(
            f"cannot decode frame: {ref!r} is not a Writable subclass"
        )
    _class_cache[ref] = obj
    return obj


def _encode_generic(out: list[bytes], w: Writable) -> int:
    """Frame a custom/record Writable by class reference + encode() text.

    Verified round-trippable at encode time: the ref must resolve back
    to the instance's own class (a class defined inside a function has
    a ``<locals>`` qualname and cannot), otherwise the caller falls
    back to the object path — the same constraint pickling has.
    """
    cls = type(w)
    ref = _class_ref(cls)
    if _resolve_class(ref) is not cls:
        raise WireFormatError(
            f"cannot frame {cls.__qualname__}: {ref!r} resolves to a "
            f"different class (shadowed or rebound name)"
        )
    ref_bytes = ref.encode("utf-8")
    if len(ref_bytes) > 0xFFFF:
        raise WireFormatError(f"class ref too long: {ref!r}")
    payload = w.encode().encode("utf-8")
    out.append(bytes((TAG_GENERIC,)))
    out.append(_U16.pack(len(ref_bytes)))
    out.append(ref_bytes)
    out.append(_U32.pack(len(payload)))
    out.append(payload)
    return len(payload)


def _encode_one(out: list[bytes], w: Writable) -> int:
    """Append one frame to ``out``; return its payload byte width."""
    cls = type(w)
    if cls is Text:
        payload = w.value.encode("utf-8")
        out.append(bytes((TAG_TEXT,)))
        out.append(_U32.pack(len(payload)))
        out.append(payload)
        return len(payload)
    if cls is IntWritable or cls is LongWritable:
        v = w.value
        if cls is IntWritable and INT32_MIN <= v <= INT32_MAX:
            out.append(bytes((TAG_INT32,)))
            out.append(_I32.pack(v))
            return 4
        if INT64_MIN <= v <= INT64_MAX:
            out.append(bytes((TAG_INT64 if cls is IntWritable else TAG_LONG64,)))
            out.append(_I64.pack(v))
            return 8
        payload = str(v).encode("ascii")
        out.append(bytes((TAG_INTBIG if cls is IntWritable else TAG_LONGBIG,)))
        out.append(_U32.pack(len(payload)))
        out.append(payload)
        return len(payload)
    if cls is FloatWritable:
        out.append(bytes((TAG_FLOAT,)))
        out.append(_F64.pack(w.value))
        return 8
    if cls is NullWritable:
        out.append(bytes((TAG_NULL,)))
        return 0
    if not isinstance(w, Writable):
        raise WireFormatError(
            f"cannot frame {type(w).__name__}: not a Writable"
        )
    return _encode_generic(out, w)


def encode_pairs(pairs: Iterable[Pair]) -> tuple[bytes, int]:
    """Frame a pair sequence into one blob.

    Returns ``(blob, payload_bytes)`` where ``payload_bytes`` is the sum
    of frame payload widths — by construction equal to
    the sum of ``serialized_size()`` over the same
    pairs.  The key-sorted flag is computed during the same pass.
    """
    frames: list[bytes] = []
    payload_bytes = 0
    count = 0
    key_sorted = True
    prev_key = None
    for key, value in pairs:
        if key_sorted:
            sk = key.sort_key()
            try:
                if prev_key is not None and sk < prev_key:
                    key_sorted = False
            except TypeError:
                # Incomparable (mixed-type) keys: not sortable, so not
                # sorted.  Encoding them is still fine — only the merge
                # optimisation is off the table.
                key_sorted = False
            prev_key = sk
        payload_bytes += _encode_one(frames, key)
        payload_bytes += _encode_one(frames, value)
        count += 1
    flags = FLAG_KEY_SORTED if key_sorted else 0
    blob = HEADER.pack(MAGIC, flags, count) + b"".join(frames)
    return blob, payload_bytes


# ---------------------------------------------------------------------------
# decoding


def _parse_header(buf) -> tuple[memoryview, int, int]:
    view = memoryview(buf)
    if len(view) < HEADER.size:
        raise WireFormatError(
            f"truncated blob: {len(view)} bytes, header needs {HEADER.size}"
        )
    magic, flags, count = HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {bytes(magic)!r}; expected {MAGIC!r}")
    return view, flags, count


def blob_key_sorted(buf) -> bool:
    """Read a blob's key-sorted flag without decoding any frames."""
    _, flags, _ = _parse_header(buf)
    return bool(flags & FLAG_KEY_SORTED)


def blob_record_count(buf) -> int:
    """Read a blob's record count without decoding any frames."""
    _, _, count = _parse_header(buf)
    return count


def _truncated(offset: int, need: int, have: int) -> WireFormatError:
    return WireFormatError(
        f"truncated frame at offset {offset}: need {need} bytes, have {have}"
    )


def _decode_one(view: memoryview, offset: int) -> tuple[Writable, int]:
    """Decode one frame; return (writable, next offset).

    Decoded instances bypass constructor validation (the wire format is
    the validation) and arrive with ``serialized_size`` pre-memoised
    from the frame width, so reduce-side byte accounting never
    re-encodes them.
    """
    end = len(view)
    if offset >= end:
        raise _truncated(offset, 1, 0)
    tag = view[offset]
    offset += 1
    try:
        if tag == TAG_TEXT:
            (length,) = _U32.unpack_from(view, offset)
            offset += 4
            if offset + length > end:
                raise _truncated(offset, length, end - offset)
            w = Text.__new__(Text)
            w.value = str(view[offset : offset + length], "utf-8")
            return w, offset + length
        if tag == TAG_INT32:
            (v,) = _I32.unpack_from(view, offset)
            w = IntWritable.__new__(IntWritable)
            w.value = v
            return w, offset + 4
        if tag == TAG_INT64 or tag == TAG_LONG64:
            (v,) = _I64.unpack_from(view, offset)
            cls = IntWritable if tag == TAG_INT64 else LongWritable
            w = cls.__new__(cls)
            w.value = v
            return w, offset + 8
        if tag == TAG_FLOAT:
            (v,) = _F64.unpack_from(view, offset)
            w = FloatWritable.__new__(FloatWritable)
            w.value = v
            return w, offset + 8
        if tag == TAG_NULL:
            return NullWritable(), offset
        if tag == TAG_INTBIG or tag == TAG_LONGBIG:
            (length,) = _U32.unpack_from(view, offset)
            offset += 4
            if offset + length > end:
                raise _truncated(offset, length, end - offset)
            cls = IntWritable if tag == TAG_INTBIG else LongWritable
            w = cls.__new__(cls)
            w.value = int(str(view[offset : offset + length], "ascii"))
            return w, offset + length
        if tag == TAG_GENERIC:
            (ref_len,) = _U16.unpack_from(view, offset)
            offset += 2
            if offset + ref_len > end:
                raise _truncated(offset, ref_len, end - offset)
            ref = str(view[offset : offset + ref_len], "utf-8")
            offset += ref_len
            (length,) = _U32.unpack_from(view, offset)
            offset += 4
            if offset + length > end:
                raise _truncated(offset, length, end - offset)
            cls = _resolve_class(ref)
            w = cls.decode(str(view[offset : offset + length], "utf-8"))
            return w, offset + length
    except struct.error as exc:
        raise WireFormatError(
            f"truncated frame at offset {offset}: {exc}"
        ) from None
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireFormatError(
            f"corrupt frame payload at offset {offset}: {exc}"
        ) from None
    raise WireFormatError(f"unknown frame tag 0x{tag:02x} at offset {offset - 1}")


def _decode_frames(view: memoryview, count: int) -> Iterator[Pair]:
    offset = HEADER.size
    decode = _decode_one
    for _ in range(count):
        key, offset = decode(view, offset)
        value, offset = decode(view, offset)
        yield key, value
    if offset != len(view):
        raise WireFormatError(
            f"{len(view) - offset} trailing bytes after {count} records"
        )


def decode_pairs(buf) -> Iterator[Pair]:
    """Lazily decode a blob back into Writable pairs.

    Header validation is eager (bad blobs fail at call time); frame
    decoding happens as the iterator is consumed.
    """
    view, _flags, count = _parse_header(buf)
    return _decode_frames(view, count)


def decode_pair_list(buf) -> list[Pair]:
    """Decode a whole blob into a list (the reduce fetch path)."""
    return list(decode_pairs(buf))


def rwf2_packs(column: Iterable[Writable]) -> bool:
    """Would RWF2 pack this column?  Its rule, restated: every entry of
    one exact class among ``Text``, ``IntWritable`` within 32 bits,
    ``LongWritable`` within 64, ``FloatWritable`` and ``NullWritable``
    (an empty column packs too).  Any other column RWF1 framed per
    record; RWF2 raises and the map output ships as objects."""
    column = list(column)
    classes = {type(w) for w in column}
    if len(classes) > 1:
        return False
    bounds = {IntWritable: (INT32_MIN, INT32_MAX), LongWritable: (INT64_MIN, INT64_MAX)}
    if classes <= {Text, FloatWritable, NullWritable}:
        return True
    (cls,) = classes
    if cls not in bounds:
        return False
    low, high = bounds[cls]
    return all(low <= w.value <= high for w in column)
