"""The MemStore: a region's in-memory, sorted write buffer."""

from __future__ import annotations

from repro.hbase.model import Cell, CellKey


class MemStore:
    """Sorted in-memory cells awaiting a flush to an HFile."""

    def __init__(self) -> None:
        self._cells: dict[CellKey, Cell] = {}
        self._bytes = 0

    def add(self, cell: Cell) -> None:
        key = cell.key
        old = self._cells.get(key)
        if old is not None:
            self._bytes -= len(old.encode())
        self._cells[key] = cell
        self._bytes += len(cell.encode())

    @property
    def size_bytes(self) -> int:
        return self._bytes

    @property
    def empty(self) -> bool:
        return not self._cells

    def sorted_cells(self) -> list[Cell]:
        return [self._cells[key] for key in sorted(self._cells)]

    def clear(self) -> None:
        self._cells.clear()
        self._bytes = 0

    def scan(self, start_row: str | None, stop_row: str | None) -> list[Cell]:
        """Cells with start_row <= row < stop_row, in key order."""
        out = []
        for key in sorted(self._cells):
            if start_row is not None and key.row < start_row:
                continue
            if stop_row is not None and key.row >= stop_row:
                continue
            out.append(self._cells[key])
        return out
