"""Compile micro-SQL into MapReduce jobs and run them.

The compilation is the lecture's punchline, visible in code:

- ``WHERE`` becomes a map-side filter;
- ``GROUP BY`` becomes the shuffle key;
- every aggregate carries a uniform ``(count, sum, min, max)`` partial —
  a monoid — so the combiner is *always* legal and is installed
  automatically (Lin's "Monoidify!" applied mechanically);
- ``JOIN`` puts a repartition-join job in front, feeding the
  aggregation/projection job through HDFS temp files
  (see :mod:`repro.hive.planner`);
- ``ORDER BY`` is sorted by the driver, as Hive's final single-threaded
  stage does — *or*, with ``multi_stage=True`` and after any ``JOIN``,
  by a total-order sort stage with a sampled
  :class:`~repro.hive.planner.RangePartitioner`; ``LIMIT`` cuts last.

One executor (:meth:`HiveLite.execute`) runs every plan as *join? →
aggregate/project → sort?*; ``multi_stage`` chooses only how ``ORDER
BY`` runs.  Both ways return bit-identical rows: they order by the same
composite sort token (:func:`~repro.hive.planner.row_sort_token`) and
decode stage output with the same
:func:`~repro.hive.planner.result_row_decoder`.
"""

from __future__ import annotations

import ast
import itertools
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.hive.parser import AGGREGATES, Query, SqlError, parse_query

# Re-exported from the planner so stage code and engine never disagree
# on the wire format (historically these lived here).
from repro.hive.planner import (
    AGG_SEP,
    FIELD_SEP,
    GLOBAL_GROUP,
    GROUP_SEP,
    ROW_SEP,
    JoinStageJob,
    RangePartitioner,
    SortStageJob,
    apply_op,
    memo_store,
    result_row_decoder,
    row_sort_token,
    sample_boundaries,
)
from repro.hive.schema import ColumnType, Metastore, TableSchema
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf
from repro.mapreduce.inputformat import MapInput
from repro.mapreduce.job import JobReport
from repro.mapreduce.outputformat import TextOutputFormat, data_files
from repro.mapreduce.types import NullWritable, Text
from repro.sparklite.codec import unescape_text


# --------------------------------------------------------------------------
# partial aggregates: one uniform monoid for every aggregate function


#: One Python ``str`` literal as ``repr`` writes it (either quote,
#: backslash escapes).
_STR_LITERAL = re.compile(r"'(?:[^'\\]|\\.)*'" "|" r'"(?:[^"\\]|\\.)*"')


def _decode_extremum(text: str):
    """One ``minimum``/``maximum`` field: empty | number | ``str`` literal."""
    if not text:
        return None
    if text[0] in "'\"":
        if not _STR_LITERAL.fullmatch(text):
            raise ValueError(f"corrupt string literal {text!r} in a partial")
        return ast.literal_eval(text)
    # repr(float) always shows one of these ("1.5", "1e+16", "inf", "nan").
    if "." in text or "e" in text or "n" in text:
        return float(text)
    return int(text)


def parse_partial(text: str) -> tuple:
    """``(count, total, minimum, maximum)`` of one encoded partial.

    The one field parser of the line :meth:`Partial.encode` writes; a
    corrupt line is a ``ValueError``.
    """
    count, total, extrema = text.split(FIELD_SEP, 2)
    literal = _STR_LITERAL.match(extrema)
    # Only a string literal can hold FIELD_SEP; a number or "" cannot.
    cut = literal.end() if literal else extrema.find(FIELD_SEP)
    if cut < 0 or extrema[cut : cut + 1] != FIELD_SEP:
        raise ValueError(f"corrupt partial {text!r}")
    return (
        int(count),
        float(total),
        _decode_extremum(extrema[:cut]),
        _decode_extremum(extrema[cut + 1 :]),
    )


@dataclass
class Partial:
    """(count, sum, min, max) over the non-null values seen so far."""

    count: int = 0
    total: float = 0.0
    minimum: float | str | None = None
    maximum: float | str | None = None

    def encode(self) -> str:
        return FIELD_SEP.join(
            (
                str(self.count),
                repr(self.total),
                "" if self.minimum is None else repr(self.minimum),
                "" if self.maximum is None else repr(self.maximum),
            )
        )

    @staticmethod
    def encode_one(value) -> str:
        """``encode()`` of the partial that has observed only ``value``
        (what the map side emits per row per aggregate)."""
        total = 0.0 + value if isinstance(value, (int, float)) else 0.0
        text = repr(value)
        return FIELD_SEP.join(("1", repr(total), text, text))

    def finalize(self, aggregate: str):
        if aggregate == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if aggregate == "SUM":
            return self.total
        if aggregate == "AVG":
            return self.total / self.count
        if aggregate == "MIN":
            return self.minimum
        if aggregate == "MAX":
            return self.maximum
        raise SqlError(f"unknown aggregate {aggregate!r}")


# --------------------------------------------------------------------------
# the generated jobs: module-level classes configured through
# ``JobConf.params``, so a job pickles onto a process pool


class _HiveMapperBase(Mapper):
    """Parses rows against the table schema (param ``hv_schema``) and
    applies the WHERE filter (``hv_where``: ``(column index, op,
    literal)`` per condition).  A subclass's :meth:`run` reads the
    split as text lines: no stage mapper reads its input key."""

    def setup(self, context: Context) -> None:
        self._schema = context.get("hv_schema")
        self._where = context.get("hv_where")

    def _rows(self, split: MapInput) -> Iterator[list]:
        """The split's rows that parse and pass WHERE, in order."""
        schema = self._schema
        # A header line fails numeric parsing anyway; this fast-path just
        # avoids warning noise for the common CSV-with-header case.
        header = schema.columns[0][0] if schema.skip_header else None
        delimiter, parse_row, where = schema.delimiter, schema.parse_row, self._where
        for line in split.lines():
            if header is not None and line and line.split(delimiter)[0] == header:
                continue
            row = parse_row(line)
            if row is None:
                continue
            for index, op, literal in where:
                if not apply_op(row[index], op, literal):
                    break
            else:
                yield row


def _scan_params(schema: TableSchema, query: Query) -> dict:
    """The :class:`_HiveMapperBase` params of one table scan."""
    return dict(
        hv_schema=schema,
        hv_where=tuple(
            (schema.column_index(c.column), c.op, c.literal)
            for c in query.where
        ),
    )


class AggMapper(_HiveMapperBase):
    """Emit ``group -> one partial per aggregate`` for each kept row;
    params ``hv_group`` (GROUP BY column indexes) and ``hv_aggs`` (the
    aggregated column's index per aggregate, None for ``*``).

    The value line of each distinct tuple of aggregated cells is encoded
    once per task (until :func:`~repro.hive.planner.memo_store` gives
    the memo up); ``COUNT(*)`` contributes the constant ``1``.  A
    column's converter fixes the type of its cells, so equal cells
    encode alike, with one exception: ``0.0`` and ``-0.0``.  A tuple
    holding a zero is therefore never memoised.  A NaN equals no other
    NaN object, so it shares an entry only with itself.
    """

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._group = context.get("hv_group")
        self._aggs = context.get("hv_aggs")
        self._lines: dict[tuple, str] | None = {}

    def run(self, split: MapInput, context: Context) -> None:
        self.setup(context)
        group_by, aggs, write = self._group, self._aggs, context.write
        memo = self._lines
        for row in self._rows(split):
            if group_by:
                group = GROUP_SEP.join([str(row[i]) for i in group_by])
            else:
                group = GLOBAL_GROUP
            cells = tuple([1 if index is None else row[index] for index in aggs])
            line = None if memo is None else memo.get(cells)
            if line is None:
                line = AGG_SEP.join(map(Partial.encode_one, cells))
                if memo is not None and 0 not in cells:
                    # repro: lint-ok[MRJ005] pure cache: same output with an empty memo
                    memo = self._lines = memo_store(memo, cells, line)
            write(Text(group), Text(line))
        self.cleanup(context)


class _PartialMerger(Reducer):
    """Merges a group's ``AGG_SEP``-joined partials, aggregate by
    aggregate; param ``hv_finals`` names the aggregate per partial.

    Each distinct value line is split and parsed once per task, into a
    memo that outlives one ``reduce()`` call (the line alone decides
    its parse) until :func:`~repro.hive.planner.memo_store` gives it
    up.  Every value is still folded, in order, so float sums round
    exactly as a parse per value did.
    """

    def __init__(self) -> None:
        self._parsed: dict[str, list[tuple]] | None = {}

    def setup(self, context: Context) -> None:
        self._finals = context.get("hv_finals")

    def _parse_line(self, line: str) -> list[tuple]:
        """One ``(count, total, min, max)`` per aggregate; a line with
        the wrong number of aggregates is a ``ValueError``.  The empty
        line holds none: a GROUP BY without aggregates emits it."""
        pieces = line.split(AGG_SEP) if line else []
        if len(pieces) != len(self._finals):
            raise ValueError(
                f"partial line {line!r} holds {len(pieces)} aggregates, "
                f"expected {len(self._finals)}"
            )
        return [parse_partial(piece) for piece in pieces]

    def _merged(self, values) -> list[Partial]:
        # One [count, total, min, max] fold per aggregate, updated in
        # place: no object per value, one Partial per aggregate per group.
        folds = [[0, 0.0, None, None] for _ in self._finals]
        parsed = self._parsed
        for value in values:
            line = value.value
            partials = None if parsed is None else parsed.get(line)
            if partials is None:
                partials = self._parse_line(line)
                if parsed is not None:
                    parsed = self._parsed = memo_store(parsed, line, partials)
            for fold, (count, total, low, high) in zip(folds, partials):
                fold[0] += count
                fold[1] += total
                if low is not None:
                    mine = fold[2]
                    fold[2] = low if mine is None else min(mine, low)
                if high is not None:
                    mine = fold[3]
                    fold[3] = high if mine is None else max(mine, high)
        return [Partial(*fold) for fold in folds]


class AggCombiner(_PartialMerger):
    """Merge partials — legal because (count,sum,min,max) is a monoid."""

    def reduce(self, key, values, context):
        # repro: lint-ok[MRJ005] pure cache: same output with an empty memo
        merged = self._merged(values)
        context.write(key, Text(AGG_SEP.join(p.encode() for p in merged)))


class AggReducer(_PartialMerger):
    """Merge partials, then finalize each."""

    def reduce(self, key, values, context):
        # repro: lint-ok[MRJ005] pure cache: same output with an empty memo
        finals = [
            partial.finalize(aggregate)
            for partial, aggregate in zip(self._merged(values), self._finals)
        ]
        context.write(
            key, Text(AGG_SEP.join("" if f is None else str(f) for f in finals))
        )


class HiveAggJob(Job):
    mapper = AggMapper
    reducer = AggReducer
    combiner = AggCombiner


def _aggregation_job(schema: TableSchema, query: Query) -> Job:
    aggregates = query.aggregates
    return HiveAggJob(
        conf=JobConf(name=f"hive-agg-{schema.name}"),
        hv_group=tuple(schema.column_index(c) for c in query.group_by),
        hv_aggs=tuple(
            None if item.column == "*" else schema.column_index(item.column)
            for item in aggregates
        ),
        hv_finals=tuple(item.aggregate for item in aggregates),
        **_scan_params(schema, query),
    )


class ProjectMapper(_HiveMapperBase):
    """Emit each kept row's SELECT list as the key; param ``hv_project``:
    ``(column index, UDF or None)`` per output field, ``*`` expanded.  A
    module-level UDF pickles with the job; any other callable makes the
    pool fall back to running the attempt inline."""

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._fields = context.get("hv_project")

    def run(self, split: MapInput, context: Context) -> None:
        self.setup(context)
        fields, write = self._fields, context.write
        for row in self._rows(split):
            write(
                Text(
                    GROUP_SEP.join(
                        str(fn(row[i]) if fn else row[i]) for i, fn in fields
                    )
                ),
                NullWritable(),
            )
        self.cleanup(context)


class HiveProjectJob(Job):
    mapper = ProjectMapper
    reducer = None  # identity


def _projection_job(
    schema: TableSchema, query: Query, udfs: dict[str, Callable]
) -> Job:
    fields: list[tuple[int, Callable | None]] = []
    for item in query.items:
        if item.column == "*":
            fields.extend((i, None) for i in range(len(schema.columns)))
        else:
            udf = udfs[item.udf] if item.udf else None
            fields.append((schema.column_index(item.column), udf))
    return HiveProjectJob(
        conf=JobConf(name=f"hive-select-{schema.name}"),
        hv_project=tuple(fields),
        **_scan_params(schema, query),
    )


# --------------------------------------------------------------------------
# the engine


@dataclass
class QueryResult:
    """Rows out of a query, plus the job(s) that produced them."""

    columns: tuple[str, ...]
    rows: list[tuple]
    report: JobReport | None = None
    sql: str = ""
    #: Every stage's report in plan order (``report`` is the last).
    stage_reports: tuple = ()

    def render(self) -> str:
        from repro.util.textable import TextTable

        table = TextTable(list(self.columns), title=self.sql)
        for row in self.rows:
            table.add_row(list(row))
        return table.render()


#: Largest number of ranges a total-order ``ORDER BY`` stage sorts into.
MAX_SORT_PARTITIONS = 4


class HiveLite:
    """Parse, plan, run — over a MapReduceCluster.

    ``multi_stage=True`` plans ``ORDER BY`` as a total-order sort stage
    instead of a driver-side sort (after a ``JOIN`` it always is one).
    That stage has one partition per worker, capped at
    ``MAX_SORT_PARTITIONS``.
    """

    def __init__(self, cluster: MapReduceCluster, multi_stage: bool = False):
        self.cluster = cluster
        self.metastore = Metastore()
        self.udfs: dict[str, Callable] = {}
        self.multi_stage = multi_stage
        self.sort_partitions = max(
            1, min(MAX_SORT_PARTITIONS, len(cluster.tasktrackers))
        )
        self._seq = itertools.count(1)

    # -- DDL ----------------------------------------------------------------
    def create_table(self, schema: TableSchema, data: str | None = None) -> None:
        """Register a table; optionally load its data into HDFS."""
        if data is not None:
            self.cluster.client().put_text(
                schema.location, data, overwrite=True
            )
        self.metastore.register(schema)

    def register_udf(self, name: str, fn: Callable) -> None:
        """Register a scalar UDF callable as ``name(column)`` in SELECT.

        The function runs *map-side, per row, per attempt* — exactly the
        execution model the MRH3xx lint rules audit.  Registering does
        not lint; call :meth:`lint_udfs` (the grader does) to vet every
        registered function.
        """
        if not name.isidentifier():
            raise SqlError(f"UDF name {name!r} is not an identifier")
        if name.upper() in AGGREGATES:
            raise SqlError(
                f"UDF name {name!r} shadows the builtin aggregate "
                f"{name.upper()}"
            )
        if not callable(fn):
            raise SqlError(f"UDF {name!r} is not callable")
        self.udfs[name] = fn

    def lint_udfs(self):
        """mrlint every registered UDF (MRH3xx rules).

        The Hive-side mirror of ``lint_reference_solutions()``: source
        is recovered via ``inspect``, analysed with the module taint
        engine, and every finding names the offending UDF.  Returns a
        list of :class:`~repro.analysis.findings.Finding`.
        """
        from repro.analysis.hive_rules import lint_udf_callables

        return lint_udf_callables(self.udfs)

    # -- planning -------------------------------------------------------------
    def _validate(self, query: Query, schema: TableSchema) -> None:
        for condition in query.where:
            schema.column_index(condition.column)
        for column in query.group_by:
            schema.column_index(column)
        for item in query.items:
            if item.udf is None:
                continue
            if item.udf not in self.udfs:
                raise SqlError(
                    f"unknown UDF {item.udf!r}; register it with "
                    "register_udf() first"
                )
            schema.column_index(item.column)
            if query.is_aggregation:
                raise SqlError(
                    "UDFs run map-side and cannot be combined with "
                    "GROUP BY/aggregates"
                )
        if query.is_aggregation:
            for item in query.items:
                if item.aggregate is None:
                    if item.column == "*":
                        raise SqlError(
                            "SELECT * cannot be combined with aggregates"
                        )
                    if item.column not in query.group_by:
                        raise SqlError(
                            f"column {item.column!r} must appear in GROUP BY"
                        )
                elif item.column != "*":
                    ctype = schema.column_type(item.column)
                    if item.aggregate in ("SUM", "AVG") and ctype is (
                        ColumnType.STRING
                    ):
                        raise SqlError(
                            f"{item.aggregate}({item.column}) on a string column"
                        )
        if query.order_by is not None:
            labels = [item.label for item in query.items]
            if query.order_by not in labels and all(
                query.order_by != item.column for item in query.items
            ):
                raise SqlError(
                    f"ORDER BY {query.order_by!r} is not in the select list"
                )

    def explain(self, sql: str) -> str:
        """Render the plan without running it."""
        query = parse_query(sql)
        lines = [f"EXPLAIN {sql}"]
        if query.is_join:
            stage_query, schema, _job, inputs = self._compile_join(query)
            self._validate(stage_query, schema)
            lines.append(f"  stage 1: repartition join {' + '.join(inputs)}")
            lines.append(
                f"    shuffle key: {query.join_on[0]} = {query.join_on[1]} "
                "(values tagged by side)"
            )
            if query.where:
                conds = " AND ".join(
                    f"{c.column} {c.op} {c.literal!r}" for c in query.where
                )
                lines.append(f"    pushed-down map-side filter: {conds}")
            query = stage_query
            lines.append("  stage 2: scan <join output rows>")
        else:
            schema = self.metastore.get(query.table)
            self._validate(query, schema)
            lines.append(f"  scan: {schema.location}")
        if query.where:
            conds = " AND ".join(
                f"{c.column} {c.op} {c.literal!r}" for c in query.where
            )
            lines.append(f"  map-side filter: {conds}")
        udf_items = [i for i in query.items if i.udf]
        if udf_items:
            lines.append(
                f"  map-side UDFs: {', '.join(i.label for i in udf_items)}"
            )
        if query.is_aggregation:
            lines.append(
                f"  shuffle key: {', '.join(query.group_by) or '<global>'}"
            )
            lines.append(
                "  combiner: automatic (count/sum/min/max monoid)"
            )
            lines.append(
                f"  reduce: finalize {', '.join(i.label for i in query.aggregates)}"
            )
        else:
            lines.append("  map-only projection")
        if query.order_by:
            direction = "DESC" if query.order_desc else "ASC"
            if self._total_order(query):
                lines.append(
                    f"  sort stage: total-order sort by {query.order_by} "
                    f"{direction} ({self.sort_partitions} sampled ranges)"
                )
            else:
                lines.append(
                    f"  final stage: sort by {query.order_by} {direction}"
                )
        if query.limit is not None:
            lines.append(f"  final stage: limit {query.limit}")
        return "\n".join(lines)

    # -- execution ---------------------------------------------------------
    def _total_order(self, query: Query) -> bool:
        """Does ``ORDER BY`` run as a sort stage (else the driver sorts)?"""
        return query.order_by is not None and (
            self.multi_stage or query.is_join
        )

    def execute(self, sql: str) -> QueryResult:
        """Run the plan :meth:`explain` prints: an optional join stage,
        the aggregation/projection stage, an optional sort stage —
        chained through HDFS temps under ``/tmp/hive/query_NNNNN``."""
        query = parse_query(sql)
        reports: list[JobReport] = []
        if query.is_join:
            query, schema, join_job, inputs = self._compile_join(query)
        else:
            schema = self.metastore.get(query.table)
        self._validate(query, schema)
        base = f"/tmp/hive/query_{next(self._seq):05d}"
        if query.is_join:
            reports.append(
                self.cluster.run_job(
                    join_job, inputs, f"{base}_join", require_success=True
                )
            )
            stage_inputs = self._nonempty_parts(f"{base}_join")
        else:
            stage_inputs = schema.location
        staged = query.is_join or self._total_order(query)
        result_out = f"{base}_result" if staged else base
        rows: list[tuple] = []
        if stage_inputs:
            if query.is_aggregation:
                job = _aggregation_job(schema, query)
            else:
                job = _projection_job(schema, query, self.udfs)
            reports.append(
                self.cluster.run_job(
                    job, stage_inputs, result_out, require_success=True
                )
            )
            if self._total_order(query):
                sort_report, rows = self._sort_stage(
                    query, schema, result_out, f"{base}_sorted"
                )
                if sort_report is not None:
                    reports.append(sort_report)
            else:
                rows = self._order_and_limit(
                    query, schema, self._collect(query, schema, result_out)
                )
        return QueryResult(
            columns=self._output_columns(query, schema),
            rows=rows,
            report=reports[-1] if reports else None,
            sql=sql,
            stage_reports=tuple(reports),
        )

    # -- join planning -----------------------------------------------------
    def _compile_join(
        self, query: Query
    ) -> tuple[Query, TableSchema, Job, list[str]]:
        """Build the repartition-join stage and the rewritten query.

        Returns ``(stage2 query, combined schema, join job, inputs)``:
        the query with every column qualified and WHERE pushed down
        into the join mappers, plus the virtual two-table schema whose
        rows the join stage emits.
        """
        left = self.metastore.get(query.table)
        right = self.metastore.get(query.join_table)
        if left.name == right.name:
            raise SqlError("self-joins are not supported")
        combined_columns = tuple(
            (f"{schema.name}.{name}", ctype)
            for schema in (left, right)
            for name, ctype in schema.columns
        )
        combined = TableSchema(
            name=f"{left.name}_join_{right.name}",
            columns=combined_columns,
            location="<join-stage>",
            delimiter=ROW_SEP,
        )
        query = self._qualify(query, left, right, combined)
        left_key = self._side_key(query.join_on[0], left, right, "left")
        right_key = self._side_key(query.join_on[1], left, right, "right")
        if (
            left.columns[left_key][1] is not right.columns[right_key][1]
        ):
            raise SqlError(
                f"join keys {query.join_on[0]!r} and {query.join_on[1]!r} "
                "have different column types"
            )
        # Predicate pushdown: every condition names exactly one table,
        # so all of WHERE filters map-side, before the shuffle.
        conds = {"left": [], "right": []}
        for condition in query.where:
            table, column = condition.column.split(".", 1)
            side = "left" if table == left.name else "right"
            schema = left if side == "left" else right
            conds[side].append(
                (schema.column_index(column), condition.op, condition.literal)
            )
        specs = {}
        for side, schema, key in (
            ("left", left, left_key),
            ("right", right, right_key),
        ):
            specs[side] = {
                "location": schema.location,
                "delim": schema.delimiter,
                "skip_header": schema.skip_header,
                "first": schema.columns[0][0],
                "kinds": tuple(ctype.value for _n, ctype in schema.columns),
                "key": key,
                "conds": tuple(conds[side]),
            }
        job = JoinStageJob(
            conf=JobConf(name=f"hive-join-{left.name}-{right.name}"),
            hv_join=specs,
        )
        stage_query = replace(query, table=combined.name, where=())
        return stage_query, combined, job, [left.location, right.location]

    def _side_key(
        self, expr: str, left: TableSchema, right: TableSchema, side: str
    ) -> int:
        """Resolve one side of ``ON`` to a column index of that table."""
        schema = left if side == "left" else right
        if "." in expr:
            table, column = expr.split(".", 1)
            if table != schema.name:
                raise SqlError(
                    f"ON {expr!r}: the {side} side must reference "
                    f"table {schema.name!r}"
                )
            return schema.column_index(column)
        return schema.column_index(expr)

    def _qualify(
        self,
        query: Query,
        left: TableSchema,
        right: TableSchema,
        combined: TableSchema,
    ) -> Query:
        """Rewrite every column reference to its ``table.column`` form."""
        names = {name for name, _t in combined.columns}

        def qual(name: str) -> str:
            if name == "*":
                return name
            if "." in name:
                if name not in names:
                    raise SqlError(f"unknown column {name!r}")
                return name
            candidates = [
                f"{schema.name}.{name}"
                for schema in (left, right)
                if any(column == name for column, _t in schema.columns)
            ]
            if not candidates:
                raise SqlError(f"unknown column {name!r}")
            if len(candidates) > 1:
                raise SqlError(
                    f"column {name!r} is ambiguous between "
                    f"{left.name!r} and {right.name!r}; qualify it"
                )
            return candidates[0]

        items = tuple(
            replace(item, column=qual(item.column)) for item in query.items
        )
        relabel = {
            old.label: new.label for old, new in zip(query.items, items)
        } | {old.column: new.column for old, new in zip(query.items, items)}
        order_by = (
            relabel.get(query.order_by, query.order_by)
            if query.order_by is not None
            else None
        )
        return replace(
            query,
            items=items,
            where=tuple(
                replace(c, column=qual(c.column)) for c in query.where
            ),
            group_by=tuple(qual(c) for c in query.group_by),
            order_by=order_by,
        )

    # -- the total-order sort stage ---------------------------------------
    def _sort_stage(
        self, query: Query, schema: TableSchema, result_out: str, output: str
    ) -> tuple[JobReport | None, list[tuple]]:
        """Run the sampled range-partitioned sort; collect in key order."""
        parts = self._nonempty_parts(result_out, with_length=True)
        if not parts:
            return None, []
        fields = self._field_specs(query, schema)
        sort_index = self._sort_index(query, schema)
        client = self.cluster._output_client(None)
        boundaries = sample_boundaries(
            client,
            parts,
            fields,
            query.is_aggregation,
            sort_index,
            self.sort_partitions,
        )
        job = SortStageJob(
            conf=JobConf(
                name="hive-sort", num_reduces=self.sort_partitions
            ),
            hv_fields=fields,
            hv_sort=sort_index,
            hv_agg=query.is_aggregation,
        )
        job.partitioner = RangePartitioner(boundaries)
        report = self.cluster.run_job(
            job, [path for path, _len in parts], output, require_success=True
        )
        decode = result_row_decoder(fields, query.is_aggregation)
        return report, self._sorted_rows(query, decode, output)

    def _sorted_rows(self, query: Query, decode, output: str) -> list[tuple]:
        """Concatenate sorted parts in partition (= key) order.

        ``LIMIT k`` stops after the first parts that supply *k* rows —
        the total-order sort's payoff: the driver never touches the
        tail partitions (reversed for DESC).
        """
        client = self.cluster._output_client(None)
        names = self._nonempty_parts(output)
        if query.order_desc:
            names.reverse()
        rows: list[tuple] = []
        for path in names:
            pairs = TextOutputFormat.parse(client.read_text(path))
            if query.order_desc:
                pairs.reverse()
            rows.extend(
                tuple(decode(unescape_text(value))) for _token, value in pairs
            )
            if query.limit is not None and len(rows) >= query.limit:
                break
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows

    def _nonempty_parts(self, output: str, with_length: bool = False):
        """Non-empty data files of a finished stage, name-sorted."""
        client = self.cluster._output_client(None)
        parts = [
            (status.path, status.length)
            for status in data_files(client, output)
            if status.length > 0
        ]
        if with_length:
            return parts
        return [path for path, _length in parts]

    def _output_columns(self, query: Query, schema: TableSchema) -> tuple[str, ...]:
        out: list[str] = []
        for item in query.items:
            if item.column == "*" and item.aggregate is None:
                out.extend(name for name, _t in schema.columns)
            else:
                out.append(item.label)
        return tuple(out)

    def _collect(self, query: Query, schema: TableSchema, output: str) -> list[tuple]:
        """Every row of a finished result stage, in no promised order —
        decoded from whole lines, exactly as the sort mappers do."""
        client = self.cluster._output_client(None)
        decode = result_row_decoder(
            self._field_specs(query, schema), query.is_aggregation
        )
        return [
            tuple(decode(line))
            for path in self._nonempty_parts(output)
            for line in client.read_text(path).split("\n")
            if line
        ]

    def _order_and_limit(
        self, query: Query, schema: TableSchema, rows: list[tuple]
    ) -> list[tuple]:
        if query.order_by is not None:
            # The same composite token the sort stage shuffles on: the
            # driver-side and total-order sorts return identical rows.
            index = self._sort_index(query, schema)
            rows = sorted(
                rows,
                key=lambda r: row_sort_token(r, index),
                reverse=query.order_desc,
            )
        else:
            rows = sorted(rows, key=lambda r: tuple(str(v) for v in r))
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows

    def _sort_index(self, query: Query, schema: TableSchema) -> int:
        """Position of ORDER BY in the *expanded* output row (``*``
        widens to the schema's columns, which the label list ignores)."""
        labels: list[str] = []
        columns: list[str] = []
        for item in query.items:
            if item.column == "*" and item.aggregate is None:
                for name, _ctype in schema.columns:
                    labels.append(name)
                    columns.append(name)
            else:
                labels.append(item.label)
                columns.append(item.column)
        if query.order_by in labels:
            return labels.index(query.order_by)
        return columns.index(query.order_by)

    def _field_specs(
        self, query: Query, schema: TableSchema
    ) -> tuple[tuple[str, int, str], ...]:
        """Per-output-column ``(source, index, kind)`` line-decode spec
        (the param the sort stage's mappers rebuild rows from)."""
        specs: list[tuple[str, int, str]] = []
        if query.is_aggregation:
            agg_index = 0
            for item in query.items:
                if item.aggregate is None:
                    specs.append(
                        (
                            "group",
                            query.group_by.index(item.column),
                            schema.column_type(item.column).value,
                        )
                    )
                elif item.aggregate == "COUNT":
                    specs.append(("agg", agg_index, "int"))
                    agg_index += 1
                elif item.aggregate in ("SUM", "AVG"):
                    specs.append(("agg", agg_index, "float"))
                    agg_index += 1
                else:  # MIN/MAX keep the column's type
                    specs.append(
                        (
                            "agg",
                            agg_index,
                            schema.column_type(item.column).value,
                        )
                    )
                    agg_index += 1
            return tuple(specs)
        position = 0
        for item in query.items:
            if item.column == "*":
                for _name, ctype in schema.columns:
                    specs.append(("key", position, ctype.value))
                    position += 1
            elif item.udf is not None:
                specs.append(("key", position, "raw"))
                position += 1
            else:
                specs.append(
                    ("key", position, schema.column_type(item.column).value)
                )
                position += 1
        return tuple(specs)
