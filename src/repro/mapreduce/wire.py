"""Binary framed shuffle transport: run-packed columns of key runs.

Why this exists: a pooled job ships map output across
the process boundary, and pickling a list of per-record ``Writable``
objects costs more than the map work itself — pooled runs *lost* to
serial until map output crossed as bytes.  Real Hadoop moves map output as
compact binary IFile runs; this module is that idea.  A partition's key
runs (``(key, values)``, see :mod:`repro.mapreduce.shuffle`) become one
``bytes`` blob holding a key column and a value column, each stored as
*runs of identical encodings*: a sorted map output repeats every key
many times, so encode, decode and the reduce-side merge cost one step
per run, not one per record.

Blob layout (all integers big-endian)::

    +------+-------+-------+------------+--------------+
    | RWF2 | flags | count | key column | value column |
    | 4 B  | 1 B   | u32   |            |              |
    +------+-------+-------+------------+--------------+

    flags: reserved, always written 0 and not read

    column := kind(1 B) + u32 body length + body

    packed body (one class), r <= count runs:
      u32 r, then r x u32 run lengths (only when r < count), then per run:
        0x01 TEXT    r x u32 byte lengths, then the joined UTF-8
        0x02 INT32   r x >i  (IntWritable, every value within 32 bits)
        0x04 LONG64  r x >q  (LongWritable, every value within 64 bits)
        0x05 FLOAT   r x >d  (FloatWritable / DoubleWritable)
    0x06 NULL    empty body: count NullWritables (or an empty column)

The one fallback rule: a column that is not all one of those classes —
mixed classes, an integer past its kind's width, a custom or
``record_writable`` class — raises
:class:`~repro.util.errors.WireFormatError`, and
:meth:`~repro.mapreduce.shuffle.MapOutput.freeze` keeps that map output
in object form (pickled runs, counted in ``PerfStats.frame_fallbacks``).

A wire run is a stretch of adjacent records whose entries encode to the
same bytes (``0.0`` and ``-0.0`` are two runs); it is stored once and
decodes to *one* Writable shared by its records (Writables are
immutable value objects).  :func:`encode_runs` writes the key column
from the key runs' heads, one entry per run, and joins adjacent heads
that encode alike, so the wire runs are the maximal ones whatever key
runs cut the records.  An entry's *payload* width (kinds, tables and
length prefixes excluded) equals its Writable's ``serialized_size()`` —
the invariant that keeps the combiner lecture's byte counters equal to
what actually crosses the simulated network, asserted by
``tests/mapreduce/test_wire.py``.

Malformed input (truncation, bad magic, unknown kind, run lengths that
do not sum to the count, lengths past the end, trailing bytes, bad
UTF-8) raises :class:`~repro.util.errors.WireFormatError`, never raw
``struct.error`` noise.
"""

from __future__ import annotations

import operator
import struct
from itertools import accumulate, chain, compress, islice, pairwise, repeat, starmap
from typing import Iterable, Iterator, Sequence

from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    Writable,
)
from repro.util.errors import WireFormatError

#: A key run: one key and the values of the adjacent records it keys
#: (a list, or a combiner output's one-item tuple), read and never grown.
Run = tuple[Writable, Sequence[Writable]]

MAGIC = b"RWF2"
HEADER = struct.Struct(">4sBI")  # magic, flags (reserved: 0), record count
COLUMN = struct.Struct(">BI")  # kind, body length

KIND_TEXT = 0x01
KIND_INT32 = 0x02
KIND_LONG64 = 0x04
KIND_FLOAT = 0x05
KIND_NULL = 0x06

_U32 = struct.Struct(">I")

#: Packed fixed-width columns: class <-> (kind, struct code, width).
_FIXED = {
    IntWritable: (KIND_INT32, "i", 4),
    LongWritable: (KIND_LONG64, "q", 8),
    FloatWritable: (KIND_FLOAT, "d", 8),
}
_FIXED_KINDS = {kind: (cls, code, width) for cls, (kind, code, width) in _FIXED.items()}

#: Runs decoded per step of a packed column: bounds the scratch tuples
#: and lists one step unpacks (run lengths, Text widths, values) to this
#: many entries.  Every product reader drains ``decode_runs`` whole, so
#: it does not bound what a reader ends up holding.
_BATCH = 4096

_KEY = operator.itemgetter(0)
_VALUE = operator.itemgetter(1)
_VALUE_OF = operator.attrgetter("value")


# ---------------------------------------------------------------------------
# encoding


def _pack_runs(
    out: list[bytes], cls: type, firsts: list, lengths: list[int], count: int
) -> int:
    """Append a packed column of one class, given its runs.

    ``firsts`` are the runs' ``.value`` entries and ``lengths`` their
    record counts.  Returns the column's payload bytes; raises
    :class:`WireFormatError` — with nothing appended — when an integer
    is beyond the class's width.
    """
    runs = len(firsts)
    parts = [_U32.pack(runs)]
    if runs < count:
        parts.append(struct.pack(f">{runs}I", *lengths))
    if cls is Text:
        kind, entries = KIND_TEXT, list(map(str.encode, firsts))
        widths = list(map(len, entries))
        parts.append(struct.pack(f">{runs}I", *widths))
        parts += entries
    else:
        kind, code, width = _FIXED[cls]
        widths = repeat(width)
        try:
            parts.append(struct.pack(f">{runs}{code}", *firsts))
        except struct.error as exc:
            raise WireFormatError(
                f"cannot pack {cls.__name__}: a value is beyond {width * 8} bits ({exc})"
            ) from None
    out.append(COLUMN.pack(kind, sum(map(len, parts))))
    out += parts
    return sum(map(operator.mul, widths, lengths))


def _encode_column(
    out: list[bytes], column: list[Writable], lengths: list[int] | None = None
) -> int:
    """Append one column to ``out`` and return its payload bytes.

    Entry ``i`` of ``column`` stands for ``lengths[i]`` adjacent records
    (one each without ``lengths``); adjacent entries that encode alike
    join into one wire run.  A column that is not all ``Text``,
    ``IntWritable``, ``LongWritable``, ``FloatWritable`` or
    ``NullWritable`` raises :class:`WireFormatError`, with nothing
    appended.
    """
    entries = len(column)
    count = entries if lengths is None else sum(lengths)
    classes = set(map(type, column))
    cls = classes.pop() if len(classes) == 1 else None
    if cls is NullWritable or not count:
        out.append(COLUMN.pack(KIND_NULL, 0))
        return 0
    if cls is not Text and cls not in _FIXED:
        names = sorted({type(w).__qualname__ for w in column})
        raise WireFormatError(f"cannot pack a column of {', '.join(names)}")
    values = list(map(_VALUE_OF, column))
    # Runs are of identical *encodings*: floats meet as bit patterns,
    # so 0.0 / -0.0 and distinct NaN payloads stay apart.
    same = (
        struct.unpack(f">{entries}q", struct.pack(f">{entries}d", *values))
        if cls is FloatWritable
        else values
    )
    starts = [0, *compress(range(1, entries), map(operator.ne, same, islice(same, 1, None)))]
    offsets = range(entries + 1) if lengths is None else list(accumulate(lengths, initial=0))
    bounds = [*map(offsets.__getitem__, starts), count]
    run_lengths = list(map(operator.sub, islice(bounds, 1, None), bounds))
    return _pack_runs(out, cls, [values[i] for i in starts], run_lengths, count)


def encode_runs(runs: list[Run]) -> tuple[bytes, int]:
    """Frame a partition's key runs into one blob, or raise
    :class:`WireFormatError` when a column does not pack.

    Returns ``(blob, payload_bytes)`` where ``payload_bytes`` is the sum
    of entry payload widths over all records — by construction the sum
    of ``serialized_size()`` over the same records.  The key column is
    written from the run heads, one entry per run, the value column per
    record; both cost C-level passes per column, not calls per record.
    """
    lengths = list(map(len, map(_VALUE, runs)))
    out = [HEADER.pack(MAGIC, 0, sum(lengths))]
    key_bytes = _encode_column(out, list(map(_KEY, runs)), lengths)
    value_bytes = _encode_column(out, list(chain.from_iterable(map(_VALUE, runs))))
    return b"".join(out), key_bytes + value_bytes


# ---------------------------------------------------------------------------
# decoding


def _parse_header(buf) -> tuple[memoryview, int]:
    view = memoryview(buf)
    if len(view) < HEADER.size:
        raise WireFormatError(
            f"truncated blob: {len(view)} bytes, header needs {HEADER.size}"
        )
    magic, _flags, count = HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {bytes(magic)!r}; expected {MAGIC!r}")
    return view, count


def _truncated(offset: int, need: int, have: int) -> WireFormatError:
    return WireFormatError(
        f"truncated at offset {offset}: need {need} bytes, have {have}"
    )


def _column_runs(body: memoryview, kind: int, count: int) -> Iterator[tuple[Writable, int]]:
    """Lazily decode one column body into ``(Writable, run length)``.

    A packed column is unpacked ``_BATCH`` runs at a time, one Writable
    per run.
    """
    end = len(body)
    offset = records = 0
    try:
        if kind == KIND_NULL:
            records = count
            if count:
                yield NullWritable(), count
        elif kind == KIND_TEXT or kind in _FIXED_KINDS:
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
                    offset += width * batch
                for value, length in zip(values, lengths):
                    w = new(cls)  # constructor checks skipped: the wire format is the check
                    w.value = value
                    records += length
                    yield w, length
        else:
            raise WireFormatError(f"unknown column kind 0x{kind:02x}")
    except struct.error as exc:
        raise WireFormatError(f"truncated column at offset {offset}: {exc}") from None
    except ValueError as exc:
        raise WireFormatError(f"corrupt payload at offset {offset}: {exc}") from None
    if records != count or offset != end:
        raise WireFormatError(
            f"column holds {records} records and {end - offset} trailing "
            f"bytes; header says {count} records"
        )


def _zip_runs(
    key_column: Iterator[tuple[Writable, int]],
    value_column: Iterator[tuple[Writable, int]],
) -> Iterator[Run]:
    values = chain.from_iterable(starmap(repeat, value_column))
    for key, length in key_column:
        run = list(islice(values, length))
        if len(run) != length:
            raise WireFormatError("key column is longer than value column")
        yield key, run
    if next(values, None) is not None:
        raise WireFormatError("value column is longer than key column")


def decode_runs(buf) -> Iterator[Run]:
    """Lazily decode a blob into ``(key, values)`` key runs.

    A run is a stretch of adjacent records whose keys encode alike;
    it gets *one* key Writable.  Adjacent runs may still be equal under
    ``Writable.__eq__`` (``0.0`` / ``-0.0``) — grouping is the caller's.

    Header and column bounds are validated eagerly (bad blobs fail at
    call time); entries decode as the iterator is consumed.
    """
    view, count = _parse_header(buf)
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
