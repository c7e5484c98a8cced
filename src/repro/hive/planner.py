"""Multi-stage Hive plans: the jobs a single MapReduce pass can't do.

One aggregation/projection job (``repro.hive.engine``) answers a plain
SELECT, with ``ORDER BY``/``LIMIT`` finished on the driver.  Real Hive
plans chain *stages* through HDFS temp files, and two query shapes add
a stage around that job here:

- ``JOIN`` — the classic **repartition join**: both tables map into one
  shuffle, values tagged by side, and each reduce group crosses the
  buffered left rows with the streamed right rows (the tagged-union
  pattern from Lin & Dyer ch. 3);
- ``ORDER BY`` at scale — a **total-order sort** stage: the driver
  samples the head of each upstream part file with ranged reads
  (``DFSInputStream.pread``), picks quantile boundaries, and a
  :class:`RangePartitioner` routes keys so partition *p* holds only
  keys below partition *p+1* — concatenating ``part-*`` files in order
  *is* the sorted result, and ``LIMIT k`` stops after the first parts
  (TeraSort's partitioning trick, in miniature).

Everything here is **param-driven**: module-level Mapper/Reducer/Job
classes configured through ``JobConf.params``, so jobs stay picklable
and the pooled execution backends can ship them to worker processes.

The sort key is a *composite token* built by :func:`row_sort_token`:
``null-flag + order-preserving scalar encoding + full-row tiebreak``.
The driver-side ``_order_and_limit`` sorts by the same token, and both
read stage output through :func:`result_row_decoder`, which is what
makes driver-sorted and stage-sorted answers bit-identical.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.hive.parser import SqlError
from repro.hive.schema import cell_converter
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.outputformat import TextOutputFormat
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.types import NullWritable, Text, Writable
from repro.sparklite.codec import (
    encode_element,
    escape_text,
    sortable_float,
    sortable_int,
)

#: Separators inside shuffle keys/values (never appear in user data
#: because TableSchema delimits on printable characters).
GROUP_SEP = "\x02"
AGG_SEP = "\x03"
FIELD_SEP = ":"
#: The single group of a global aggregation (no GROUP BY).
GLOBAL_GROUP = "\x04__all__"
#: Cell separator of intermediate *row lines* between stages (the
#: delimiter of the virtual combined schema a JOIN produces).
ROW_SEP = "\x01"


# --------------------------------------------------------------------------
# shared cell/row codecs (mapper-side and driver-side must agree)


def parse_cell(kind: str, raw: str):
    """Parse one delimited cell by its kind code.

    ``"raw"`` keeps the text (UDF outputs have no declared type);
    ``ValueError`` propagates for int/float so malformed *intermediate*
    lines fail loudly — stage inputs are machine-written, not user CSV.
    """
    return cell_converter(kind)(raw)


def apply_op(value, op: str, literal) -> bool:
    """One WHERE comparison (the pushed-down, param-encoded form)."""
    if op == "=":
        return value == literal
    if op == "!=":
        return value != literal
    try:
        if op == "<":
            return value < literal
        if op == "<=":
            return value <= literal
        if op == ">":
            return value > literal
        if op == ">=":
            return value >= literal
    except TypeError:
        return False
    raise SqlError(f"unknown operator {op!r}")


def result_row_decoder(fields, aggregated: bool):
    """Build ``decode(line) -> row`` for one stage's output lines.

    The one decoder of result rows: the sort stage's mappers, the
    boundary sampler and the driver's final collect all go through it,
    with the per-column converters resolved here, once, not per cell.

    ``fields`` is the driver-computed spec, one entry per output column
    in SELECT order: ``(source, index, kind)`` with source ``"group"``
    (GROUP BY cell of an aggregation key), ``"agg"`` (finalized
    aggregate, ``""`` meaning SQL NULL) or ``"key"`` (projection cell).

    A projection line is all key (its value is a ``NullWritable``), so
    a TAB inside a STRING cell or a UDF result survives.  An aggregation
    line is ``key<TAB>value`` text cut at its first TAB: a TAB inside a
    GROUP BY cell or a ``MIN``/``MAX`` string is ambiguous there and
    still lands in the wrong column.
    """
    columns = tuple(
        (source == "agg", index, cell_converter(kind))
        for source, index, kind in fields
    )

    def decode(line: str) -> list:
        if aggregated:
            key_text, value_text = TextOutputFormat.parse_line(line)
            groups = key_text.split(GROUP_SEP)
            finals = value_text.split(AGG_SEP)
        else:
            groups, finals = line.split(GROUP_SEP), ()
        row: list = []
        for is_agg, index, convert in columns:
            raw = finals[index] if is_agg else groups[index]
            row.append(None if is_agg and raw == "" else convert(raw))
        return row

    return decode


def row_sort_token(row, index: int) -> str:
    """The composite total-order key for one result row.

    Null flag first (NULLs sort last ascending, first under DESC —
    matching ``sorted(key=(v is None, v), reverse=desc)``), then an
    order-preserving scalar encoding of the ORDER BY value, then the
    whole row as an injective tiebreak: equal tokens imply identical
    rendered rows, so no two *different* rows ever compare equal and
    both execution paths produce one total order.
    """
    value = row[index]
    if value is None:
        head = "1"
    elif isinstance(value, bool):
        head = "0" + sortable_int(int(value))
    elif isinstance(value, int):
        head = "0" + sortable_int(value)
    elif isinstance(value, float):
        head = "0" + sortable_float(value)
    else:
        head = "0" + escape_text(str(value))
    tie = GROUP_SEP.join(
        "n" if cell is None else "v" + escape_text(str(cell)) for cell in row
    )
    return head + GROUP_SEP + tie


# --------------------------------------------------------------------------
# the repartition join stage


def _match_side(input_path: str, spec: dict) -> bool:
    location = spec["location"].rstrip("/")
    return input_path == location or input_path.startswith(location + "/")


def _parse_side_row(line: str, spec: dict, converters: tuple) -> list | None:
    """Parse one source line against a side spec; None to drop it.

    ``converters`` is ``spec["kinds"]`` through :func:`cell_converter`,
    built once per task rather than looked up per cell.
    """
    if not line:
        return None
    parts = line.split(spec["delim"])
    if len(parts) != len(converters):
        return None
    if spec["skip_header"] and parts[0] == spec["first"]:
        return None
    try:
        return [convert(part) for convert, part in zip(converters, parts)]
    except ValueError:
        return None


class _JoinMapper(Mapper):
    """Tag each row with its side and shuffle on the canonical join key.

    The key is :func:`~repro.sparklite.codec.encode_element` of the
    *parsed* value — injective and normalized, so INT ``"05"`` joins
    INT ``"5"`` but never STRING ``"5"``.  Side-local WHERE conditions
    arrive pushed down (``conds``) and filter before the shuffle.
    """

    def setup(self, context: Context) -> None:
        join = context.get("hv_join")
        for tag, name in (("0", "left"), ("1", "right")):
            spec = join[name]
            if context.input_path and _match_side(context.input_path, spec):
                self._tag, self._spec = tag, spec
                self._converters = tuple(map(cell_converter, spec["kinds"]))
                return
        raise SqlError(
            f"input {context.input_path!r} belongs to neither join side"
        )

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        spec = self._spec
        row = _parse_side_row(value.value, spec, self._converters)
        if row is None:
            return
        for index, op, literal in spec["conds"]:
            if not apply_op(row[index], op, literal):
                return
        token = encode_element(row[spec["key"]])
        cells = ROW_SEP.join(str(cell) for cell in row)
        context.write(Text(token), Text(self._tag + cells))


class _JoinReducer(Reducer):
    """Buffer the left side, stream the right, emit the cross product.

    Output rows are key-only lines under the virtual combined schema
    (left columns then right columns, ``ROW_SEP``-delimited) — exactly
    what the next stage's table scan parses.
    """

    def reduce(self, key, values, context: Context) -> None:
        lefts: list[str] = []
        rights: list[str] = []
        for value in values:
            text = value.value
            (lefts if text[0] == "0" else rights).append(text[1:])
        if not lefts or not rights:
            return
        for left in lefts:
            for right in rights:
                context.write(Text(left + ROW_SEP + right), NullWritable())


class JoinStageJob(Job):
    """Repartition equi-join; params: ``hv_join`` side specs."""

    mapper = _JoinMapper
    reducer = _JoinReducer


# --------------------------------------------------------------------------
# the total-order sort stage


class RangePartitioner(Partitioner):
    """Route keys by sampled quantile boundaries (TeraSort-style).

    ``boundaries`` are composite sort tokens; key *k* goes to the count
    of boundaries ≤ *k*, so the partition index order *is* the key
    order and concatenating reduce outputs yields one sorted run.
    """

    def __init__(self, boundaries):
        self.boundaries = tuple(boundaries)

    def partition(self, key: Writable, num_reduces: int) -> int:
        if num_reduces <= 1:
            return 0
        return min(bisect_right(self.boundaries, key.encode()), num_reduces - 1)


class _SortMapper(Mapper):
    """Re-key each upstream result line by its composite sort token."""

    def setup(self, context: Context) -> None:
        self._decode = result_row_decoder(
            context.get("hv_fields"), context.get("hv_agg")
        )
        self._sort = context.get("hv_sort")

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        line = value.value
        if not line:
            return
        context.write(
            Text(row_sort_token(self._decode(line), self._sort)),
            Text(escape_text(line)),
        )


class _SortReducer(Reducer):
    """Identity: the merge sort on the composite key did the work."""

    def reduce(self, key, values, context: Context) -> None:
        for value in values:
            context.write(key, value)


class SortStageJob(Job):
    """Total-order sort; params: ``hv_fields``/``hv_sort``/``hv_agg``;
    the driver installs a :class:`RangePartitioner` instance."""

    mapper = _SortMapper
    reducer = _SortReducer


def sample_boundaries(
    client,
    files,
    fields,
    aggregated: bool,
    sort_index: int,
    num_partitions: int,
    sample_bytes: int = 65536,
) -> list[str]:
    """Pick ``num_partitions - 1`` quantile boundaries by ranged reads.

    ``files`` is ``[(path, length), ...]``; only the first
    ``sample_bytes`` of each part are fetched (``pread`` — no full
    scan), the possibly-torn last line dropped when the file is longer.
    """
    decode = result_row_decoder(fields, aggregated)
    samples: list[str] = []
    for path, length in files:
        head = client.open(path).pread(0, min(length, sample_bytes))
        lines = head.text().split("\n")
        if length > sample_bytes:
            lines = lines[:-1]
        for line in lines:
            if line:
                samples.append(row_sort_token(decode(line), sort_index))
    samples.sort()
    if not samples:
        return []
    return [
        samples[len(samples) * i // num_partitions]
        for i in range(1, num_partitions)
    ]
