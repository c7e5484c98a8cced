"""Regions: contiguous row-key ranges of a table.

A region owns a MemStore and a set of HFiles in HDFS.  Reads merge all
of them, newest timestamp wins.  Flushes turn the MemStore into a new
HFile; a region past the split threshold splits at its midpoint row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hbase.hfile import HFile, delete_hfile, read_hfile, write_hfile
from repro.hbase.memstore import MemStore
from repro.hbase.model import Cell, RowResult
from repro.hdfs.client import DFSClient


@dataclass(frozen=True)
class RegionSpec:
    """Identity of a region: table + key range [start, stop)."""

    table: str
    start_row: str | None  # None = open start
    stop_row: str | None  # None = open end
    region_id: int

    @property
    def name(self) -> str:
        start = self.start_row or ""
        return f"{self.table},{start},{self.region_id}"

    def contains(self, row: str) -> bool:
        if self.start_row is not None and row < self.start_row:
            return False
        if self.stop_row is not None and row >= self.stop_row:
            return False
        return True


@dataclass
class RegionConfig:
    """Flush/split thresholds (hbase-site.xml, in spirit)."""

    memstore_flush_bytes: int = 8 * 1024
    split_threshold_bytes: int = 64 * 1024


class Region:
    """One live region hosted by a RegionServer."""

    def __init__(
        self,
        spec: RegionSpec,
        client: DFSClient,
        config: RegionConfig,
        hfiles: list[HFile] | None = None,
    ):
        self.spec = spec
        self.client = client
        self.config = config
        self.memstore = MemStore()
        self.hfiles: list[HFile] = list(hfiles or [])
        self.flushes = 0

    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return f"/hbase/{self.spec.table}/region_{self.spec.region_id}"

    def total_bytes(self) -> int:
        return self.memstore.size_bytes + sum(h.size_bytes for h in self.hfiles)

    # -- writes ----------------------------------------------------------
    def apply(self, cell: Cell) -> None:
        """Apply one (already WAL-logged) cell edit."""
        assert self.spec.contains(cell.row), "routed to the wrong region"
        self.memstore.add(cell)
        if self.memstore.size_bytes >= self.config.memstore_flush_bytes:
            self.flush()

    def flush(self) -> HFile | None:
        """Persist the MemStore as a new HFile."""
        if self.memstore.empty:
            return None
        hfile = write_hfile(
            self.client, self.directory, self.memstore.sorted_cells()
        )
        self.hfiles.append(hfile)
        self.memstore.clear()
        self.flushes += 1
        return hfile

    # -- reads -----------------------------------------------------------
    def _visible_cells(
        self, start_row: str | None, stop_row: str | None
    ) -> dict[tuple[str, str, str], tuple[int, str]]:
        """(row, family, qualifier) -> (winning timestamp, value)."""
        winners: dict[tuple[str, str, str], tuple[int, str]] = {}

        def consider(cell: Cell) -> None:
            if start_row is not None and cell.row < start_row:
                return
            if stop_row is not None and cell.row >= stop_row:
                return
            key = (cell.row, cell.family, cell.qualifier)
            current = winners.get(key)
            if current is None or cell.timestamp > current[0]:
                winners[key] = (cell.timestamp, cell.value)

        for hfile in self.hfiles:
            if not hfile.overlaps(start_row, stop_row):
                continue
            for cell in read_hfile(self.client, hfile):
                consider(cell)
        # Memstore last: at equal timestamps the newest write wins.
        for cell in self.memstore.scan(start_row, stop_row):
            key = (cell.row, cell.family, cell.qualifier)
            current = winners.get(key)
            if current is None or cell.timestamp >= current[0]:
                winners[key] = (cell.timestamp, cell.value)
        return winners

    def get_row(
        self, row: str, columns: list[tuple[str, str]] | None = None
    ) -> RowResult:
        visible = self._visible_cells(row, row + "\x00")
        result = RowResult(row=row)
        for (r, family, qualifier), (_ts, value) in visible.items():
            if r != row:
                continue
            if columns is not None and (family, qualifier) not in columns:
                continue
            result.cells[(family, qualifier)] = value
        return result

    def scan_rows(
        self,
        start_row: str | None,
        stop_row: str | None,
        columns: list[tuple[str, str]] | None = None,
    ) -> list[RowResult]:
        visible = self._visible_cells(start_row, stop_row)
        rows: dict[str, RowResult] = {}
        for (row, family, qualifier), (_ts, value) in sorted(visible.items()):
            if columns is not None and (family, qualifier) not in columns:
                continue
            rows.setdefault(row, RowResult(row=row)).cells[
                (family, qualifier)
            ] = value
        return [rows[row] for row in sorted(rows)]

    # -- split -----------------------------------------------------------
    def should_split(self) -> bool:
        return self.total_bytes() >= self.config.split_threshold_bytes

    def midpoint_row(self) -> str | None:
        """The median visible row — the split point."""
        rows = sorted(
            {key[0] for key in self._visible_cells(None, None)}
        )
        if len(rows) < 2:
            return None
        mid = rows[len(rows) // 2]
        if self.spec.start_row is not None and mid <= self.spec.start_row:
            return None
        return mid

    def all_cells(self) -> list[Cell]:
        """Every live cell (for split redistribution), newest versions."""
        visible = self._visible_cells(None, None)
        return [
            Cell(row, family, qualifier, ts, value)
            for (row, family, qualifier), (ts, value) in sorted(visible.items())
        ]

    def drop_storage(self) -> None:
        """Delete this region's HFiles (after a split)."""
        for hfile in self.hfiles:
            delete_hfile(self.client, hfile)
        self.hfiles.clear()
        self.memstore.clear()
