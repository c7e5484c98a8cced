"""HBase data model: cells, mutations, reads.

A cell is ``(row, family, qualifier, timestamp) -> value``; rows are
sorted lexicographically (the property region sharding relies on), and
the newest timestamp of a column wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ConfigError

#: Field separator in serialized cells; forbidden in keys.
SEP = "\x01"


def _check_key(part: str, what: str) -> str:
    if not part:
        raise ConfigError(f"{what} must be non-empty")
    if SEP in part or "\n" in part:
        raise ConfigError(f"{what} contains a reserved character")
    return part


@dataclass(frozen=True, order=True)
class CellKey:
    """Sort key: row, family, qualifier, then *newest first*."""

    row: str
    family: str
    qualifier: str
    #: Negated timestamp so higher (newer) timestamps sort first.
    neg_timestamp: int


@dataclass(frozen=True)
class Cell:
    """One versioned cell."""

    row: str
    family: str
    qualifier: str
    timestamp: int
    value: str

    @property
    def key(self) -> CellKey:
        return CellKey(self.row, self.family, self.qualifier, -self.timestamp)

    def encode(self) -> str:
        return SEP.join(
            [self.row, self.family, self.qualifier, str(self.timestamp),
             self.value]
        )

    @classmethod
    def decode(cls, line: str) -> "Cell":
        row, family, qualifier, timestamp, value = line.split(SEP, 4)
        return cls(row, family, qualifier, int(timestamp), value)


@dataclass
class Put:
    """Insert/update one row's cells (one or more columns)."""

    row: str
    values: dict[tuple[str, str], str] = field(default_factory=dict)

    def add(self, family: str, qualifier: str, value: str) -> "Put":
        _check_key(self.row, "row key")
        _check_key(family, "column family")
        _check_key(qualifier, "qualifier")
        if SEP in value or "\n" in value:
            raise ConfigError("value contains a reserved character")
        self.values[(family, qualifier)] = value
        return self

    def cells(self, timestamp: int) -> list[Cell]:
        if not self.values:
            raise ConfigError("Put has no columns")
        return [
            Cell(self.row, family, qualifier, timestamp, value)
            for (family, qualifier), value in sorted(self.values.items())
        ]


@dataclass
class Get:
    """Read one row (optionally restricted to columns)."""

    row: str
    columns: list[tuple[str, str]] | None = None


@dataclass
class Scan:
    """Range scan over ``[start_row, stop_row)`` (None = open end)."""

    start_row: str | None = None
    stop_row: str | None = None
    columns: list[tuple[str, str]] | None = None
    limit: int | None = None


@dataclass
class RowResult:
    """A materialized row: latest visible value per column."""

    row: str
    cells: dict[tuple[str, str], str] = field(default_factory=dict)

    def value(self, family: str, qualifier: str) -> str | None:
        return self.cells.get((family, qualifier))
