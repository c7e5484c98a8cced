"""HBase data model: cells, ordering, mutations."""

import pytest

from repro.hbase.model import Cell, Put, RowResult, Scan
from repro.util.errors import ConfigError


class TestCell:
    def test_encode_decode_round_trip(self):
        cell = Cell("row1", "info", "title", 42, "Hello World")
        assert Cell.decode(cell.encode()) == cell

    def test_value_may_contain_separator_like_text(self):
        cell = Cell("r", "f", "q", 1, "a:b,c d")
        assert Cell.decode(cell.encode()).value == "a:b,c d"


class TestCellKeyOrdering:
    def test_rows_sort_lexicographically(self):
        a = Cell("a", "f", "q", 1, "v").key
        b = Cell("b", "f", "q", 1, "v").key
        assert a < b

    def test_newer_timestamp_sorts_first(self):
        old = Cell("r", "f", "q", 1, "v").key
        new = Cell("r", "f", "q", 9, "v").key
        assert new < old


class TestPut:
    def test_builder_and_cells(self):
        put = Put(row="r1").add("f", "a", "1").add("f", "b", "2")
        cells = put.cells(timestamp=7)
        assert len(cells) == 2
        assert all(c.timestamp == 7 for c in cells)
        assert {(c.family, c.qualifier) for c in cells} == {("f", "a"), ("f", "b")}

    def test_empty_put_rejected(self):
        with pytest.raises(ConfigError):
            Put(row="r").cells(1)

    @pytest.mark.parametrize("bad", ["", "has\x01sep", "line\nbreak"])
    def test_reserved_keys_rejected(self, bad):
        with pytest.raises(ConfigError):
            Put(row="r").add(bad or "f", "q", "v") if bad else Put(
                row=bad
            ).add("f", "q", "v")

    def test_reserved_value_rejected(self):
        with pytest.raises(ConfigError):
            Put(row="r").add("f", "q", "bad\x01value")


class TestOtherOps:
    def test_row_result(self):
        result = RowResult(row="r", cells={("f", "q"): "v"})
        assert result.value("f", "q") == "v"
        assert result.value("f", "other") is None
        assert RowResult(row="r").cells == {}

    def test_scan_defaults_open(self):
        scan = Scan()
        assert scan.start_row is None and scan.stop_row is None
