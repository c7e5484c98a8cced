"""The HMaster: catalog, assignment, splits, failure recovery."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.hbase.model import Cell
from repro.hbase.region import Region, RegionConfig, RegionSpec
from repro.hbase.server import RegionServer, replay_wal
from repro.util.errors import ConfigError, ReproError


class TableNotFoundError(ReproError):
    pass


@dataclass
class TableDescriptor:
    """Catalog entry: table name + declared column families."""

    name: str
    families: tuple[str, ...]
    enabled: bool = True


@dataclass
class RegionEntry:
    """META-table entry: a region and where it lives."""

    spec: RegionSpec
    server: str


class HMaster:
    """Owns the catalog and the region -> server assignment."""

    def __init__(
        self,
        servers: dict[str, RegionServer],
        config: RegionConfig | None = None,
    ):
        if not servers:
            raise ConfigError("HBase needs at least one RegionServer")
        self.servers = servers
        self.config = config or RegionConfig()
        self.tables: dict[str, TableDescriptor] = {}
        #: region name -> entry, the META table.
        self.meta: dict[str, RegionEntry] = {}
        self._region_ids = itertools.count(1)
        self._assign_cursor = 0
        self.splits_performed = 0
        self.recoveries_performed = 0

    # ------------------------------------------------------------------
    # catalog
    def create_table(self, name: str, families: list[str]) -> TableDescriptor:
        if name in self.tables:
            raise ConfigError(f"table {name!r} already exists")
        if not families:
            raise ConfigError("a table needs at least one column family")
        descriptor = TableDescriptor(name=name, families=tuple(families))
        self.tables[name] = descriptor
        # One region covering the whole key space, to start.
        spec = RegionSpec(
            table=name, start_row=None, stop_row=None,
            region_id=next(self._region_ids),
        )
        self._assign(spec, hfiles=None)
        return descriptor

    def describe(self, name: str) -> TableDescriptor:
        try:
            return self.tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    # ------------------------------------------------------------------
    # assignment
    def _live_servers(self) -> list[str]:
        return sorted(n for n, s in self.servers.items() if s.alive)

    def _assign(self, spec: RegionSpec, hfiles) -> Region:
        live = self._live_servers()
        if not live:
            raise ReproError("no live RegionServers to assign to")
        server_name = live[self._assign_cursor % len(live)]
        self._assign_cursor += 1
        region = self.servers[server_name].open_region(spec, hfiles=hfiles)
        self.meta[spec.name] = RegionEntry(spec=spec, server=server_name)
        return region

    def regions_of(self, table: str) -> list[RegionEntry]:
        self.describe(table)
        entries = [e for e in self.meta.values() if e.spec.table == table]
        return sorted(entries, key=lambda e: (e.spec.start_row or ""))

    def locate(self, table: str, row: str) -> RegionEntry:
        for entry in self.regions_of(table):
            if entry.spec.contains(row):
                return entry
        raise ReproError(f"no region covers row {row!r} of {table!r}")

    def region_handle(self, entry: RegionEntry) -> Region:
        return self.servers[entry.server].region_for(entry.spec.name)

    # ------------------------------------------------------------------
    # splits
    def maybe_split(self, entry: RegionEntry) -> bool:
        """Split a region past the size threshold at its midpoint."""
        server = self.servers[entry.server]
        if not server.alive:
            return False
        region = server.region_for(entry.spec.name)
        if not region.should_split():
            return False
        midpoint = region.midpoint_row()
        if midpoint is None:
            return False
        cells = region.all_cells()
        # Retire the parent.
        server.regions.pop(entry.spec.name)
        region.drop_storage()
        del self.meta[entry.spec.name]
        # Two daughters covering the halves.
        left_spec = RegionSpec(
            table=entry.spec.table,
            start_row=entry.spec.start_row,
            stop_row=midpoint,
            region_id=next(self._region_ids),
        )
        right_spec = RegionSpec(
            table=entry.spec.table,
            start_row=midpoint,
            stop_row=entry.spec.stop_row,
            region_id=next(self._region_ids),
        )
        left = self._assign(left_spec, hfiles=None)
        right = self._assign(right_spec, hfiles=None)
        for cell in cells:
            (left if left_spec.contains(cell.row) else right).apply(cell)
        left.flush()
        right.flush()
        self.splits_performed += 1
        return True

    # ------------------------------------------------------------------
    # failure recovery
    def recover_server(self, server_name: str) -> int:
        """Reassign a dead server's regions and replay its WAL.

        Returns the number of WAL edits replayed.
        """
        dead = self.servers[server_name]
        if dead.alive:
            raise ConfigError(f"{server_name} is still alive")
        to_move = [
            entry
            for entry in self.meta.values()
            if entry.server == server_name
        ]
        moved: dict[str, Region] = {}
        for entry in to_move:
            # HFiles survive in HDFS; reopen elsewhere from them.
            old_region = dead.regions.pop(entry.spec.name, None)
            hfiles = list(old_region.hfiles) if old_region else []
            del self.meta[entry.spec.name]
            region = self._assign(entry.spec, hfiles=hfiles)
            moved[entry.spec.name] = region

        def route(cell: Cell) -> Region | None:
            for region in moved.values():
                if region.spec.contains(cell.row):
                    return region
            return None

        replayed = replay_wal(dead.client, dead.wal_segments, route)
        dead.wal_segments.clear()
        # Recovered edits live only in the new servers' MemStores and are
        # NOT in their WALs; flush them to HFiles immediately (HBase
        # flushes after replaying recovered.edits for the same reason —
        # otherwise a second crash would lose them).
        for region in moved.values():
            region.flush()
        self.recoveries_performed += 1
        return replayed
