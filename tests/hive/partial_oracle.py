"""The pre-rewrite Hive record codecs, kept as the test oracle.

``encode_partial`` / ``decode_partial`` are the bodies
``repro.hive.engine.Partial.encode`` / ``.decode`` shipped before the
``eval``-free parser (the ``eval`` lives on here, in ``tests/`` only);
``map_side_partial`` is what the aggregation mapper did per row per
aggregate; ``parse_row`` is ``TableSchema.parse_row``'s per-cell enum
ladder.  The partial *line format* is frozen — combiners and reducers of
one job may run different code paths over the same bytes — so the new
encoder must match these byte for byte, and the new decoder must agree
wherever this one decodes.

``merged`` is ``_PartialMerger._merged`` before it folded
``(count, sum, min, max)`` in place: one ``Partial`` decoded per value
(``decode``, the eval-free ``Partial.decode`` as it last shipped) and
merged attribute by attribute (``merge``, ``Partial.merge``).
"""

from __future__ import annotations

import dataclasses

from repro.hive import engine
from repro.hive.engine import Partial
from repro.hive.planner import AGG_SEP, FIELD_SEP
from repro.hive.schema import ColumnType, TableSchema


def encode_partial(partial: Partial) -> str:
    def enc(v):
        return "" if v is None else repr(v)

    return FIELD_SEP.join(
        [str(partial.count), repr(partial.total), enc(partial.minimum),
         enc(partial.maximum)]
    )


def decode_partial(text: str) -> Partial:
    count, total, minimum, maximum = text.split(FIELD_SEP)

    def dec(v):
        if v == "":
            return None
        return eval(v, {"__builtins__": {}}, {})  # noqa: S307 - the oracle

    return Partial(
        count=int(count),
        total=float(total),
        minimum=dec(minimum),
        maximum=dec(maximum),
    )


def parse_partial(text: str) -> tuple:
    """:func:`decode_partial` in the shape of ``engine.parse_partial``."""
    return dataclasses.astuple(decode_partial(text))


def decode(text: str) -> Partial:
    """``Partial.decode`` as it last shipped (looked up at call time, so
    a patched ``engine.parse_partial`` applies)."""
    return Partial(*engine.parse_partial(text))


def merge(partial: Partial, other: Partial) -> None:
    """``Partial.merge``: fold ``other`` into ``partial``."""
    partial.count += other.count
    partial.total += other.total
    for attr, pick in (("minimum", min), ("maximum", max)):
        mine, theirs = getattr(partial, attr), getattr(other, attr)
        if theirs is None:
            continue
        setattr(partial, attr, theirs if mine is None else pick(mine, theirs))


def merged(self, values) -> list[Partial]:
    """``_PartialMerger._merged``: a ``Partial`` per value, merged."""
    out = [Partial() for _ in self._finals]
    for value in values:
        for partial, piece in zip(out, value.value.split(AGG_SEP)):
            merge(partial, decode(piece))
    return out


def observe(partial: Partial, value) -> None:
    """Fold one non-null value into ``partial``."""
    partial.count += 1
    if isinstance(value, (int, float)):
        partial.total += value
    if partial.minimum is None or value < partial.minimum:
        partial.minimum = value
    if partial.maximum is None or value > partial.maximum:
        partial.maximum = value


def map_side_partial(value) -> str:
    """One row's contribution: ``Partial()`` → ``observe`` → ``encode``."""
    partial = Partial()
    observe(partial, value)
    return encode_partial(partial)


def parse_column(ctype: ColumnType, text: str):
    if ctype is ColumnType.INT:
        return int(text)
    if ctype is ColumnType.FLOAT:
        return float(text)
    return text


def parse_row(schema: TableSchema, line: str) -> list | None:
    if not line:
        return None
    parts = line.split(schema.delimiter)
    if len(parts) != len(schema.columns):
        return None
    try:
        return [
            parse_column(ctype, part)
            for part, (_name, ctype) in zip(parts, schema.columns)
        ]
    except ValueError:
        return None


def parse_cell(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_side_row(line: str, spec: dict, converters: tuple = ()) -> list | None:
    """``planner._parse_side_row`` before it took prebuilt converters
    (the argument is accepted, and ignored, so it can be patched in)."""
    if not line:
        return None
    parts = line.split(spec["delim"])
    if len(parts) != len(spec["kinds"]):
        return None
    if spec["skip_header"] and parts[0] == spec["first"]:
        return None
    try:
        return [parse_cell(kind, part) for kind, part in zip(spec["kinds"], parts)]
    except ValueError:
        return None
