"""Table schemas and the metastore."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from operator import call

from repro.util.errors import ConfigError


_CONVERTERS = {"int": int, "float": float}


def cell_converter(kind: str):
    """The text -> value callable for a kind code (``ColumnType.value``,
    or ``"raw"`` for untyped UDF output); ``str`` returns a ``str``
    argument itself, so every non-numeric kind keeps the text."""
    return _CONVERTERS.get(kind, str)


class ColumnType(enum.Enum):
    INT = "int"
    FLOAT = "float"
    STRING = "string"


@dataclass(frozen=True)
class TableSchema:
    """One external table: columns + the delimited file(s) behind it."""

    name: str
    columns: tuple[tuple[str, ColumnType], ...]
    location: str  # HDFS path (file or directory)
    delimiter: str = ","
    skip_header: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise ConfigError(f"table {self.name!r} has no columns")
        names = [c[0] for c in self.columns]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate column names in {self.name!r}")

    def column_index(self, name: str) -> int:
        for i, (column, _type) in enumerate(self.columns):
            if column == name:
                return i
        raise ConfigError(
            f"table {self.name!r} has no column {name!r} "
            f"(has: {[c[0] for c in self.columns]})"
        )

    def column_type(self, name: str) -> ColumnType:
        return self.columns[self.column_index(name)][1]

    @cached_property
    def _converters(self) -> tuple:
        # Not a field: built on first use, outside eq/hash, and made of
        # builtins so a schema that has parsed rows still pickles.
        return tuple(cell_converter(ctype.value) for _name, ctype in self.columns)

    def parse_row(self, line: str) -> list | None:
        """Parse one data line; None for malformed/empty lines."""
        if not line:
            return None
        parts = line.split(self.delimiter)
        converters = self._converters
        if len(parts) != len(converters):
            return None
        try:
            return list(map(call, converters, parts))
        except ValueError:
            return None


class Metastore:
    """Name -> schema registry (Hive's metastore, minus Thrift)."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}

    def register(self, schema: TableSchema) -> None:
        if schema.name in self._tables:
            raise ConfigError(f"table {schema.name!r} already registered")
        self._tables[schema.name] = schema

    def get(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise ConfigError(f"unknown table {name!r}") from None
