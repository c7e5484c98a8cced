"""Binary framed shuffle transport: run-packed columns of Writable pairs.

Why this exists: the pooled execution backends ship map output across
the process boundary, and pickling a list of per-record ``Writable``
objects costs more than the map work itself — pooled runs *lost* to
serial until map output crossed as bytes.  Real Hadoop moves map output as
compact binary IFile runs; this module is that idea.  A partition's
pairs become one ``bytes`` blob holding a key column and a value
column, each stored as *runs of identical encodings*: a sorted map
output repeats every key many times, so encode, decode and the
reduce-side merge cost one step per run, not one per record.

Blob layout (all integers big-endian)::

    +------+-------+-------+------------+--------------+
    | RWF2 | flags | count | key column | value column |
    | 4 B  | 1 B   | u32   |            |              |
    +------+-------+-------+------------+--------------+

    flags bit 0: every key is in non-descending sort order
                 (lets the reduce side k-way merge without re-sorting)

    column := kind(1 B) + u32 body length + body

    packed body (one class), r <= count runs:
      u32 r, then r x u32 run lengths (only when r < count), then per run:
        0x01 TEXT    r x u32 byte lengths, then the joined UTF-8
        0x02 INT32   r x >i  (IntWritable, every value within 32 bits)
        0x04 LONG64  r x >q  (LongWritable, every value within 64 bits)
        0x05 FLOAT   r x >d  (FloatWritable / DoubleWritable)
    0x06 NULL    empty body: count NullWritables
    0x00 TAGGED  one frame per record (mixed or custom classes, wider ints):
      frame := tag(1 B) + payload
        0x01 TEXT     u32 length + UTF-8 bytes
        0x02 INT32    >i  (IntWritable within 32 bits)
        0x03 INT64    >q  (IntWritable within 64 bits)
        0x04 LONG64   >q  (LongWritable within 64 bits)
        0x05 FLOAT    >d
        0x06 NULL     (empty)
        0x07 INTBIG   u32 length + decimal ASCII (beyond 64 bits)
        0x08 LONGBIG  u32 length + decimal ASCII (beyond 64 bits)
        0x09 GENERIC  u16 classref length + "module:qualname" UTF-8
                      + u32 length + the Writable's encode() text

A run is a stretch of adjacent records whose entries encode to the same
bytes (``0.0`` and ``-0.0`` are two runs); it is stored once and decodes
to *one* Writable shared by its records (Writables are immutable value
objects).  An entry's or frame's *payload* width (kinds, tags, tables
and length prefixes excluded) equals its Writable's
``serialized_size()`` — the invariant that keeps the combiner lecture's
byte counters equal to what actually crosses the simulated network,
asserted by ``tests/mapreduce/test_wire.py``.

Malformed input (truncation, bad magic, unknown kind or tag, run lengths
that do not sum to the count, lengths past the end, trailing bytes, bad
UTF-8) raises :class:`~repro.util.errors.WireFormatError`, never raw
``struct.error`` noise.
"""

from __future__ import annotations

import operator
import struct
import sys
from itertools import accumulate, chain, compress, islice, pairwise, repeat, starmap
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
from repro.util.errors import InvalidWritableError, WireFormatError

Pair = tuple[Writable, Writable]

MAGIC = b"RWF2"
FLAG_KEY_SORTED = 0x01
HEADER = struct.Struct(">4sBI")  # magic, flags, record count
COLUMN = struct.Struct(">BI")  # kind, body length

KIND_TAGGED = 0x00  # packed kinds reuse the tag of their entries

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

#: Packed fixed-width columns: class <-> (kind, struct code, width).
_FIXED = {
    IntWritable: (TAG_INT32, "i", 4),
    LongWritable: (TAG_LONG64, "q", 8),
    FloatWritable: (TAG_FLOAT, "d", 8),
}
_FIXED_KINDS = {kind: (cls, code, width) for cls, (kind, code, width) in _FIXED.items()}

#: Runs decoded per step of a packed column: bounds what a lazily
#: consumed blob (a spill run under merge) holds unpacked at a time.
_BATCH = 4096

_KEY = operator.itemgetter(0)
_VALUE = operator.itemgetter(1)
_VALUE_OF = operator.attrgetter("value")


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
    a ``<locals>`` qualname and cannot), otherwise the caller keeps
    the output in object form — the same constraint pickling has.
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


def _encode_column(out: list[bytes], column: list[Writable]) -> tuple[int, list | None]:
    """Append one column to ``out``.

    Returns its payload bytes and, when it packed, the records'
    ``.value`` list — which is those classes' ``sort_key()``.
    """
    count = len(column)
    classes = set(map(type, column))
    cls = classes.pop() if len(classes) == 1 else None
    if cls is NullWritable:
        out.append(COLUMN.pack(TAG_NULL, 0))
        return 0, None
    if cls is Text or cls in _FIXED:
        values = list(map(_VALUE_OF, column))
        # Runs are of identical *encodings*: floats meet as bit patterns,
        # so 0.0 / -0.0 and distinct NaN payloads stay apart.
        same = (
            struct.unpack(f">{count}q", struct.pack(f">{count}d", *values))
            if cls is FloatWritable
            else values
        )
        starts = [0, *compress(range(1, count), map(operator.ne, same, islice(same, 1, None)))]
        runs = len(starts)
        lengths = list(map(operator.sub, [*starts[1:], count], starts))
        parts = [_U32.pack(runs)]
        if runs < count:
            parts.append(struct.pack(f">{runs}I", *lengths))
        firsts = [values[i] for i in starts]
        if cls is Text:
            kind, entries = TAG_TEXT, list(map(str.encode, firsts))
            widths = list(map(len, entries))
            parts.append(struct.pack(f">{runs}I", *widths))
            parts += entries
        else:
            kind, code, width = _FIXED[cls]
            widths = repeat(width)
            try:
                parts.append(struct.pack(f">{runs}{code}", *firsts))
            except struct.error:  # an integer beyond the width
                parts = None
        if parts is not None:
            out.append(COLUMN.pack(kind, sum(map(len, parts))))
            out += parts
            return sum(map(operator.mul, widths, lengths)), values
    frames: list[bytes] = []
    payload_bytes = sum([_encode_one(frames, w) for w in column])
    out.append(COLUMN.pack(KIND_TAGGED, sum(map(len, frames))))
    out += frames
    return payload_bytes, None


def encode_pairs(pairs: Iterable[Pair]) -> tuple[bytes, int]:
    """Frame a pair sequence into one blob.

    Returns ``(blob, payload_bytes)`` where ``payload_bytes`` is the sum
    of entry payload widths over all records — by construction equal to
    :func:`~repro.mapreduce.shuffle.serialized_bytes` over the same
    pairs.  Costs C-level passes per column, not calls per record.
    """
    if not isinstance(pairs, list):
        pairs = list(pairs)
    keys = list(map(_KEY, pairs))
    out: list[bytes] = [b""]  # the header's place: the flag comes last
    key_bytes, sort_keys = _encode_column(out, keys)
    value_bytes, _ = _encode_column(out, list(map(_VALUE, pairs)))
    if sort_keys is None:
        sort_keys = [key.sort_key() for key in keys]
    try:
        # ``<=`` for every neighbour, and the first key against itself:
        # a NaN key, like an incomparable (mixed-type) one, is not
        # sortable, so not sorted.  Encoding is still fine — only the
        # merge optimisation is off the table.
        key_sorted = all(map(operator.le, chain(sort_keys[:1], sort_keys), sort_keys))
    except TypeError:
        key_sorted = False
    out[0] = HEADER.pack(MAGIC, FLAG_KEY_SORTED if key_sorted else 0, len(pairs))
    return b"".join(out), key_bytes + value_bytes


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


def _make(cls: type, value, size: int) -> Writable:
    """A decoded instance: constructor validation bypassed (the wire
    format is the validation) and ``serialized_size`` pre-memoised from
    the payload width, so reduce-side byte accounting never re-encodes."""
    w = cls.__new__(cls)
    w.value = value
    w._size_memo = size
    return w


def _decode_one(view: memoryview, offset: int) -> tuple[Writable, int]:
    """Decode one frame; return (writable, next offset).  The column
    decoder wraps ``struct.error`` and ``ValueError``."""
    end = len(view)
    if offset >= end:
        raise _truncated(offset, 1, 0)
    tag = view[offset]
    offset += 1
    if tag == TAG_INT32:
        return _make(IntWritable, *_I32.unpack_from(view, offset), 4), offset + 4
    if tag == TAG_INT64 or tag == TAG_LONG64:
        cls = IntWritable if tag == TAG_INT64 else LongWritable
        return _make(cls, *_I64.unpack_from(view, offset), 8), offset + 8
    if tag == TAG_FLOAT:
        return _make(FloatWritable, *_F64.unpack_from(view, offset), 8), offset + 8
    if tag == TAG_NULL:
        return NullWritable(), offset
    if tag == TAG_GENERIC:
        (ref_len,) = _U16.unpack_from(view, offset)
        offset += 2
        if offset + ref_len > end:
            raise _truncated(offset, ref_len, end - offset)
        ref = str(view[offset : offset + ref_len], "utf-8")
        offset += ref_len
    elif tag not in (TAG_TEXT, TAG_INTBIG, TAG_LONGBIG):
        raise WireFormatError(f"unknown frame tag 0x{tag:02x} at offset {offset - 1}")
    (length,) = _U32.unpack_from(view, offset)
    offset += 4
    if offset + length > end:
        raise _truncated(offset, length, end - offset)
    payload = view[offset : offset + length]
    if tag == TAG_TEXT:
        w = _make(Text, str(payload, "utf-8"), length)
    elif tag == TAG_GENERIC:
        w = _resolve_class(ref).decode(str(payload, "utf-8"))
        w._size_memo = length
    else:
        cls = IntWritable if tag == TAG_INTBIG else LongWritable
        w = _make(cls, int(str(payload, "ascii")), length)
    return w, offset + length


def _column_runs(body: memoryview, kind: int, count: int) -> Iterator[tuple[Writable, int]]:
    """Lazily decode one column body into ``(Writable, run length)``.

    A packed column is unpacked ``_BATCH`` runs at a time, one Writable
    per run; a tagged one yields each record as a run of one.
    """
    end = len(body)
    offset = records = 0
    try:
        if kind == KIND_TAGGED:
            for _ in range(count):
                w, offset = _decode_one(body, offset)
                yield w, 1
            records = count
        elif kind == TAG_NULL:
            records = count
            if count:
                yield NullWritable(), count
        elif kind == TAG_TEXT or kind in _FIXED_KINDS:
            cls, code, width = _FIXED_KINDS.get(kind, (Text, "", 0))
            (runs,) = _U32.unpack_from(body, 0)
            # Tables: run lengths (absent when every run is one record),
            # Text byte widths, then the entries from ``offset`` on.
            lengths_at = widths_at = offset = 4
            if runs < count:
                widths_at = offset = 4 + 4 * runs
            if cls is Text:
                offset = widths_at + 4 * runs
            new = cls.__new__
            for first in range(0, runs, _BATCH):
                batch = min(_BATCH, runs - first)
                lengths: Iterable[int] = repeat(1, batch)
                if runs < count:
                    lengths = struct.unpack_from(f">{batch}I", body, lengths_at + 4 * first)
                    if 0 in lengths:
                        raise WireFormatError("empty run in the run-length table")
                if cls is Text:
                    widths = struct.unpack_from(f">{batch}I", body, widths_at + 4 * first)
                    ends = list(accumulate(widths, initial=offset))
                    if ends[-1] > end:
                        raise _truncated(offset, ends[-1] - offset, end - offset)
                    values = [str(body[a:b], "utf-8") for a, b in pairwise(ends)]
                    offset = ends[-1]
                else:
                    values = struct.unpack_from(f">{batch}{code}", body, offset)
                    widths = repeat(width)
                    offset += width * batch
                for value, size, length in zip(values, widths, lengths):
                    w = new(cls)  # _make, inlined: this is the hot loop
                    w.value = value
                    w._size_memo = size
                    records += length
                    yield w, length
        else:
            raise WireFormatError(f"unknown column kind 0x{kind:02x}")
    except struct.error as exc:
        raise WireFormatError(f"truncated column at offset {offset}: {exc}") from None
    except (ValueError, InvalidWritableError) as exc:
        raise WireFormatError(f"corrupt payload at offset {offset}: {exc}") from None
    if records != count or offset != end:
        raise WireFormatError(
            f"column holds {records} records and {end - offset} trailing "
            f"bytes; header says {count} records"
        )


def _zip_runs(
    key_runs: Iterator[tuple[Writable, int]], value_runs: Iterator[tuple[Writable, int]]
) -> Iterator[tuple[Writable, list[Writable]]]:
    values = chain.from_iterable(starmap(repeat, value_runs))
    for key, length in key_runs:
        run = list(islice(values, length))
        if len(run) != length:
            raise WireFormatError("key column is longer than value column")
        yield key, run
    if next(values, None) is not None:
        raise WireFormatError("value column is longer than key column")


def decode_runs(buf) -> Iterator[tuple[Writable, list[Writable]]]:
    """Lazily decode a blob into ``(key, values)`` key runs.

    A run is a stretch of adjacent records whose keys encode alike;
    it gets *one* key Writable.  Adjacent runs may still be equal under
    ``Writable.__eq__`` (``0.0`` / ``-0.0``, or any tagged column, whose
    runs are single records) — grouping is the caller's.

    Header and column bounds are validated eagerly (bad blobs fail at
    call time); entries decode as the iterator is consumed.
    """
    view, _flags, count = _parse_header(buf)
    offset = HEADER.size
    columns = []
    for _ in range(2):
        if offset + COLUMN.size > len(view):
            raise _truncated(offset, COLUMN.size, len(view) - offset)
        kind, length = COLUMN.unpack_from(view, offset)
        offset += COLUMN.size
        if offset + length > len(view):
            raise _truncated(offset, length, len(view) - offset)
        columns.append(_column_runs(view[offset : offset + length], kind, count))
        offset += length
    if offset != len(view):
        raise WireFormatError(
            f"{len(view) - offset} trailing bytes after {count} records"
        )
    return _zip_runs(*columns)


def flatten_runs(runs: Iterable[tuple[Writable, list[Writable]]]) -> Iterator[Pair]:
    """The record stream of a key-run stream."""
    for key, values in runs:
        yield from zip(repeat(key), values)


def decode_pairs(buf) -> Iterator[Pair]:
    """Lazily decode a blob back into Writable pairs (run by run)."""
    return flatten_runs(decode_runs(buf))


def decode_pair_list(buf) -> list[Pair]:
    """Decode a whole blob into a list."""
    return list(decode_pairs(buf))
