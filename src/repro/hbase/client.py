"""The HBase client API: Table handles routed through the master."""

from __future__ import annotations

import itertools

from repro.hbase.master import HMaster
from repro.hbase.model import Get, Put, RowResult, Scan
from repro.util.errors import ConfigError


class Table:
    """A client handle to one table."""

    _ts = itertools.count(1)

    def __init__(self, master: HMaster, name: str):
        self.master = master
        self.name = name
        self.descriptor = master.describe(name)

    def _timestamp(self) -> int:
        return next(self._ts)

    def _check_families(self, pairs) -> None:
        for family, _qualifier in pairs:
            if family not in self.descriptor.families:
                raise ConfigError(
                    f"table {self.name!r} has no column family {family!r} "
                    f"(declared: {self.descriptor.families})"
                )

    # ------------------------------------------------------------------
    def put(self, put: Put) -> None:
        self._check_families(put.values.keys())
        entry = self.master.locate(self.name, put.row)
        server = self.master.servers[entry.server]
        timestamp = self._timestamp()
        for cell in put.cells(timestamp):
            server.apply_edit(entry.spec.name, cell)
        self.master.maybe_split(self.master.meta[entry.spec.name])

    def get(self, get: Get) -> RowResult:
        if get.columns:
            self._check_families(get.columns)
        entry = self.master.locate(self.name, get.row)
        region = self.master.region_handle(entry)
        return region.get_row(get.row, columns=get.columns)

    def scan(self, scan: Scan | None = None) -> list[RowResult]:
        scan = scan or Scan()
        if scan.columns:
            self._check_families(scan.columns)
        results: list[RowResult] = []
        for entry in self.master.regions_of(self.name):
            spec = entry.spec
            if scan.start_row is not None and spec.stop_row is not None:
                if spec.stop_row <= scan.start_row:
                    continue
            if scan.stop_row is not None and spec.start_row is not None:
                if spec.start_row >= scan.stop_row:
                    continue
            region = self.master.region_handle(entry)
            results.extend(
                region.scan_rows(
                    scan.start_row, scan.stop_row, columns=scan.columns
                )
            )
            if scan.limit is not None and len(results) >= scan.limit:
                return results[: scan.limit]
        return results

    # ------------------------------------------------------------------
    def count(self) -> int:
        return len(self.scan())
