"""HBaseCluster: tables, routing, splits, WAL crash recovery."""

import pytest

from repro.hbase import Get, HBaseCluster, Put, Scan
from repro.hbase.region import RegionConfig
from repro.hbase.server import RegionServerDownError
from repro.util.errors import ConfigError


@pytest.fixture
def hb():
    return HBaseCluster(num_servers=3, seed=4)


def flush(hb, table_name):
    """Flush every region of a table into HFiles."""
    for entry in hb.master.regions_of(table_name):
        hb.master.region_handle(entry).flush()


def load_movies(table, count=30):
    for i in range(count):
        table.put(
            Put(row=f"movie{i:03d}")
            .add("info", "title", f"Title {i}")
            .add("info", "year", str(1990 + i % 20))
        )


class TestTableLifecycle:
    def test_create_and_describe(self, hb):
        table = hb.create_table("t1", families=["f"])
        assert table.descriptor.families == ("f",)
        assert len(hb.master.regions_of("t1")) == 1

    def test_duplicate_table_rejected(self, hb):
        hb.create_table("t1", families=["f"])
        with pytest.raises(ConfigError):
            hb.create_table("t1", families=["f"])

    def test_table_needs_families(self, hb):
        with pytest.raises(ConfigError):
            hb.create_table("t1", families=[])

    def test_unknown_family_rejected(self, hb):
        table = hb.create_table("t1", families=["f"])
        with pytest.raises(ConfigError):
            table.put(Put(row="r").add("ghost", "q", "v"))


class TestCrud:
    def test_put_get_round_trip(self, hb):
        table = hb.create_table("movies", families=["info"])
        load_movies(table)
        row = table.get(Get(row="movie012"))
        assert row.value("info", "title") == "Title 12"

    def test_update_overwrites(self, hb):
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=5)
        table.put(Put(row="movie002").add("info", "title", "Renamed"))
        assert table.get(Get(row="movie002")).value("info", "title") == "Renamed"

    def test_get_missing_row_is_empty(self, hb):
        table = hb.create_table("movies", families=["info"])
        assert table.get(Get(row="nope")).cells == {}

    def test_scan_with_limit(self, hb):
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=20)
        rows = table.scan(Scan(limit=7))
        assert len(rows) == 7
        assert rows[0].row == "movie000"

    def test_scan_survives_flush(self, hb):
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=12)
        before = [(r.row, dict(r.cells)) for r in table.scan()]
        flush(hb, "movies")
        after = [(r.row, dict(r.cells)) for r in table.scan()]
        assert before == after


class TestSplits:
    def test_region_splits_under_load(self):
        hb = HBaseCluster(
            num_servers=3,
            seed=4,
            region_config=RegionConfig(
                memstore_flush_bytes=512,
                split_threshold_bytes=2048,
            ),
        )
        table = hb.create_table("big", families=["f"])
        for i in range(120):
            table.put(Put(row=f"row{i:04d}").add("f", "data", "x" * 20))
        assert hb.master.splits_performed >= 1
        regions = hb.master.regions_of("big")
        assert len(regions) >= 2
        # Ranges tile the key space: open start, open end, contiguous.
        assert regions[0].spec.start_row is None
        assert regions[-1].spec.stop_row is None
        for left, right in zip(regions, regions[1:]):
            assert left.spec.stop_row == right.spec.start_row

    def test_data_intact_across_splits(self):
        hb = HBaseCluster(
            num_servers=3,
            seed=4,
            region_config=RegionConfig(
                memstore_flush_bytes=512, split_threshold_bytes=2048
            ),
        )
        table = hb.create_table("big", families=["f"])
        for i in range(120):
            table.put(Put(row=f"row{i:04d}").add("f", "n", str(i)))
        assert table.count() == 120
        for i in (0, 59, 119):
            assert table.get(Get(row=f"row{i:04d}")).value("f", "n") == str(i)

    def test_routing_after_split(self):
        hb = HBaseCluster(
            num_servers=3,
            seed=4,
            region_config=RegionConfig(
                memstore_flush_bytes=512, split_threshold_bytes=2048
            ),
        )
        table = hb.create_table("big", families=["f"])
        for i in range(120):
            table.put(Put(row=f"row{i:04d}").add("f", "n", str(i)))
        # Every row locates to a region that actually contains it.
        for i in range(0, 120, 17):
            row = f"row{i:04d}"
            entry = hb.master.locate("big", row)
            assert entry.spec.contains(row)


class TestCrashRecovery:
    def test_flushed_data_survives_crash(self, hb):
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=20)
        flush(hb, "movies")
        victim = hb.master.regions_of("movies")[0].server
        hb.crash_server(victim)
        hb.recover(victim)
        assert table.get(Get(row="movie010")).value("info", "title") == "Title 10"
        assert table.count() == 20

    def test_wal_replays_unflushed_edits(self):
        hb = HBaseCluster(num_servers=3, seed=4, wal_sync_every=1)
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=10)  # never flushed (big memstore default)
        victim = hb.master.regions_of("movies")[0].server
        hb.crash_server(victim)
        replayed = hb.recover(victim)
        assert replayed > 0
        assert table.count() == 10
        assert table.get(Get(row="movie007")).value("info", "title") == "Title 7"

    def test_unsynced_tail_is_lost(self):
        hb = HBaseCluster(num_servers=3, seed=4, wal_sync_every=1000)
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=5)  # all edits sit in the WAL buffer
        victim = hb.master.regions_of("movies")[0].server
        hb.crash_server(victim)
        hb.recover(victim)
        # Deferred log flush: the unsynced tail is gone, as documented.
        assert table.count() == 0

    def test_dead_server_rejects_operations(self, hb):
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=3)
        victim = hb.master.regions_of("movies")[0].server
        hb.crash_server(victim)
        with pytest.raises(RegionServerDownError):
            hb.servers[victim].apply_edit("x", None)

    def test_regions_move_to_live_servers(self, hb):
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=10)
        flush(hb, "movies")
        victim = hb.master.regions_of("movies")[0].server
        hb.crash_server(victim)
        hb.recover(victim)
        for entry in hb.master.regions_of("movies"):
            assert entry.server != victim
            assert hb.servers[entry.server].alive

    def test_recover_live_server_rejected(self, hb):
        hb.create_table("movies", families=["info"])
        name = next(iter(hb.servers))
        with pytest.raises(ConfigError):
            hb.recover(name)


class TestHdfsIntegration:
    def test_hfiles_and_wals_visible_in_hdfs(self):
        hb = HBaseCluster(num_servers=3, seed=4, wal_sync_every=1)
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=10)
        flush(hb, "movies")
        footprint = hb.hdfs_footprint()
        assert any("/hbase/movies/" in p and "hfile" in p for p in footprint)
        assert any("/.logs/" in p for p in footprint)

    def test_hfiles_replicated_by_hdfs(self):
        hb = HBaseCluster(num_servers=3, seed=4)
        table = hb.create_table("movies", families=["info"])
        load_movies(table, count=10)
        flush(hb, "movies")
        namenode = hb.hdfs.namenode
        hfile_paths = [p for p in hb.hdfs_footprint() if "hfile" in p]
        assert hfile_paths
        for path in hfile_paths:
            inode = namenode.namespace.get_file(path)
            for block in inode.blocks:
                assert len(namenode.block_map[block.block_id].locations) == 2
