"""The per-record HiveLite stage mappers, kept as the test oracle.

HiveLite's stage mappers once ran the default ``Mapper.run`` loop: one
``map()`` call per ``(LongWritable offset, Text line)`` record.  They
now override ``run()`` and read the split as text lines
(``MapInput.lines()``); the ``map()`` bodies below are the ones they
replaced.  Every name a body calls is looked up on its module at call
time, so a test that patches a codec or parser oracle in runs these
bodies on it too.

:func:`oracle_class` gives a mapper class its per-record path back;
:func:`patch_in` puts every stage mapper on it.  Every emitted pair,
counter and memo bound must be the same either way.  Not collected by
pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from repro.hive import engine, planner
from repro.mapreduce.api import Context, Mapper
from repro.mapreduce.types import NullWritable, Text, Writable


def parse(self, value: Writable) -> list | None:
    """``_HiveMapperBase._parse``: one record's row, or None to drop it."""
    line = value.value
    schema = self._schema
    header = schema.columns[0][0]
    if schema.skip_header and line and line.split(schema.delimiter)[0] == header:
        return None
    row = schema.parse_row(line)
    if row is None:
        return None
    for index, op, literal in self._where:
        if not planner.apply_op(row[index], op, literal):
            return None
    return row


def agg_map(self, key, value, context: Context) -> None:
    row = parse(self, value)
    if row is None:
        return
    if self._group:
        group = planner.GROUP_SEP.join([str(row[i]) for i in self._group])
    else:
        group = planner.GLOBAL_GROUP
    cells = tuple([1 if index is None else row[index] for index in self._aggs])
    lines = self._lines
    line = None if lines is None else lines.get(cells)
    if line is None:
        line = planner.AGG_SEP.join(map(engine.Partial.encode_one, cells))
        if lines is not None and 0 not in cells:
            self._lines = planner.memo_store(lines, cells, line)
    context.write(Text(group), Text(line))


def project_map(self, key, value, context: Context) -> None:
    row = parse(self, value)
    if row is None:
        return
    context.write(
        Text(
            planner.GROUP_SEP.join(
                str(fn(row[i]) if fn else row[i]) for i, fn in self._fields
            )
        ),
        NullWritable(),
    )


def join_map(self, key, value, context: Context) -> None:
    spec = self._spec
    row = planner._parse_side_row(value.value, spec, self._converters)
    if row is None:
        return
    for index, op, literal in spec["conds"]:
        if not planner.apply_op(row[index], op, literal):
            return
    cell = row[spec["key"]]
    tokens = self._tokens
    if tokens is None or type(cell) is float:
        token = planner.encode_element(cell)
    else:
        token = tokens.get(cell)
        if token is None:
            token = planner.encode_element(cell)
            self._tokens = planner.memo_store(tokens, cell, token)
    cells = planner.ROW_SEP.join(map(str, row))
    context.write(Text(token), Text(self._tag + cells))


def sort_map(self, key, value, context: Context) -> None:
    line = value.value
    if not line:
        return
    context.write(
        Text(planner.row_sort_token(self._decode(line), self._sort)),
        Text(planner.escape_text(line)),
    )


#: (stage mapper class, its per-record ``map()`` body).
BODIES = (
    (engine.AggMapper, agg_map),
    (engine.ProjectMapper, project_map),
    (planner._JoinMapper, join_map),
    (planner._SortMapper, sort_map),
)


def oracle_class(cls: type[Mapper]) -> type[Mapper]:
    """``cls`` on the default ``run()`` loop with its old ``map()``."""
    body = dict(BODIES)[cls]
    return type(f"Oracle{cls.__name__}", (cls,), {"run": Mapper.run, "map": body})


def patch_in(monkeypatch) -> None:
    """Run every Hive stage mapper record by record, through ``map()``."""
    for cls, body in BODIES:
        monkeypatch.setattr(cls, "run", Mapper.run)
        monkeypatch.setattr(cls, "map", body)
