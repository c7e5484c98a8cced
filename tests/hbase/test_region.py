"""Regions: memstore/HFile merge semantics, flush, split."""

import pytest

from repro.hbase.model import Cell
from repro.hbase.region import Region, RegionConfig, RegionSpec
from tests.conftest import make_hdfs


def make_region(**config_kwargs):
    cluster = make_hdfs(num_datanodes=2, block_size=2048, replication=1)
    client = cluster.client(charge_time=False)
    spec = RegionSpec(table="t", start_row=None, stop_row=None, region_id=1)
    config = RegionConfig(**config_kwargs)
    return Region(spec, client, config), client


class TestReadYourWrites:
    def test_memstore_read(self):
        region, _ = make_region()
        region.apply(Cell("r1", "f", "q", 1, "v1"))
        assert region.get_row("r1").value("f", "q") == "v1"

    def test_newest_version_wins(self):
        region, _ = make_region()
        region.apply(Cell("r1", "f", "q", 1, "old"))
        region.apply(Cell("r1", "f", "q", 2, "new"))
        assert region.get_row("r1").value("f", "q") == "new"

    def test_reads_merge_memstore_and_hfiles(self):
        region, _ = make_region(memstore_flush_bytes=10**9)
        region.apply(Cell("r1", "f", "q", 1, "flushed"))
        region.flush()
        region.apply(Cell("r1", "f", "other", 2, "in-memory"))
        row = region.get_row("r1")
        assert row.value("f", "q") == "flushed"
        assert row.value("f", "other") == "in-memory"

    def test_newer_hfile_version_beats_older(self):
        region, _ = make_region(memstore_flush_bytes=10**9)
        region.apply(Cell("r1", "f", "q", 1, "v1"))
        region.flush()
        region.apply(Cell("r1", "f", "q", 5, "v5"))
        region.flush()
        assert region.get_row("r1").value("f", "q") == "v5"


class TestFlushAndCompaction:
    def test_flush_writes_hfile_to_hdfs(self):
        region, client = make_region(memstore_flush_bytes=10**9)
        region.apply(Cell("r1", "f", "q", 1, "v"))
        hfile = region.flush()
        assert hfile is not None
        assert client.exists(hfile.path)
        assert region.memstore.empty

    def test_flush_empty_is_noop(self):
        region, _ = make_region()
        assert region.flush() is None

    def test_auto_flush_at_threshold(self):
        region, _ = make_region(memstore_flush_bytes=64)
        for i in range(20):
            region.apply(Cell(f"r{i:02d}", "f", "q", i, "value"))
        assert region.flushes >= 1
        assert region.hfiles


class TestScan:
    def test_scan_row_order(self):
        region, _ = make_region()
        for row in ("c", "a", "b"):
            region.apply(Cell(row, "f", "q", 1, row.upper()))
        rows = region.scan_rows(None, None)
        assert [r.row for r in rows] == ["a", "b", "c"]

    def test_scan_range_half_open(self):
        region, _ = make_region()
        for i in range(6):
            region.apply(Cell(f"r{i}", "f", "q", 1, str(i)))
        rows = region.scan_rows("r2", "r4")
        assert [r.row for r in rows] == ["r2", "r3"]

    def test_scan_column_filter(self):
        region, _ = make_region()
        region.apply(Cell("r1", "f", "a", 1, "keep"))
        region.apply(Cell("r1", "f", "b", 1, "drop"))
        rows = region.scan_rows(None, None, columns=[("f", "a")])
        assert rows[0].cells == {("f", "a"): "keep"}


class TestSplit:
    def test_should_split_at_threshold(self):
        region, _ = make_region(
            memstore_flush_bytes=10**9, split_threshold_bytes=100
        )
        for i in range(10):
            region.apply(Cell(f"r{i}", "f", "q", 1, "x" * 10))
        assert region.should_split()

    def test_midpoint_is_median_row(self):
        region, _ = make_region()
        for i in range(10):
            region.apply(Cell(f"r{i}", "f", "q", 1, "v"))
        assert region.midpoint_row() == "r5"

    def test_no_midpoint_for_single_row(self):
        region, _ = make_region()
        region.apply(Cell("only", "f", "q", 1, "v"))
        assert region.midpoint_row() is None

    def test_spec_contains(self):
        spec = RegionSpec(table="t", start_row="m", stop_row="t", region_id=1)
        assert spec.contains("m") and spec.contains("s")
        assert not spec.contains("t") and not spec.contains("a")
