"""RegionServers: host regions, log edits, crash recoverably.

Every edit is appended to the server's write-ahead log before it
touches a MemStore.  The WAL is buffered and synced to HDFS in small
segments; a crash loses at most the unsynced tail (exactly HBase's
durability story with deferred log flush).  Recovery = reopen the
regions from their HFiles, then replay the dead server's WAL segments —
replay is idempotent because cell versions merge by timestamp.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.hbase.hfile import HFile
from repro.hbase.model import Cell
from repro.hbase.region import Region, RegionConfig, RegionSpec
from repro.hdfs.client import DFSClient
from repro.util.errors import ReproError


class RegionServerDownError(ReproError):
    """An operation was routed to a dead RegionServer."""


class RegionServer:
    """One region-hosting daemon (conceptually on one cluster node)."""

    _wal_seq = itertools.count(1)

    def __init__(
        self,
        name: str,
        client: DFSClient,
        config: RegionConfig,
        wal_sync_every: int = 8,
    ):
        self.name = name
        self.client = client
        self.config = config
        self.wal_sync_every = max(1, wal_sync_every)
        self.regions: dict[str, Region] = {}
        self.alive = True
        self._wal_buffer: list[str] = []
        self.wal_segments: list[str] = []
        self.edits_applied = 0

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if not self.alive:
            raise RegionServerDownError(f"region server {self.name} is down")

    @property
    def wal_dir(self) -> str:
        return f"/hbase/.logs/{self.name}"

    # -- region lifecycle --------------------------------------------------
    def open_region(
        self, spec: RegionSpec, hfiles: list[HFile] | None = None
    ) -> Region:
        self._check_alive()
        region = Region(spec, self.client, self.config, hfiles=hfiles)
        self.regions[spec.name] = region
        return region

    def region_for(self, region_name: str) -> Region:
        self._check_alive()
        return self.regions[region_name]

    # -- the write path ------------------------------------------------------
    def apply_edit(self, region_name: str, cell: Cell) -> None:
        """WAL first, MemStore second — the ordering that makes crash
        recovery possible."""
        self._check_alive()
        region = self.regions[region_name]
        self._wal_buffer.append(cell.encode())
        if len(self._wal_buffer) >= self.wal_sync_every:
            self.sync_wal()
        region.apply(cell)
        self.edits_applied += 1

    def sync_wal(self) -> None:
        """Persist buffered edits as a new WAL segment in HDFS."""
        if not self._wal_buffer:
            return
        path = f"{self.wal_dir}/wal_{next(self._wal_seq):08d}"
        text = "\n".join(self._wal_buffer) + "\n"
        self.client.put_bytes(path, text.encode("utf-8"), overwrite=True)
        self.wal_segments.append(path)
        self._wal_buffer.clear()

    # -- failure ------------------------------------------------------------
    def crash(self) -> None:
        """Abrupt death: MemStores and the unsynced WAL tail are gone;
        HFiles and synced WAL segments survive in HDFS."""
        self.alive = False
        self._wal_buffer.clear()
        for region in self.regions.values():
            region.memstore.clear()


def replay_wal(
    client: DFSClient,
    segments: list[str],
    route: Callable[[Cell], Region | None],
) -> int:
    """Replay WAL segments into (re-opened) regions; returns edit count.

    ``route`` maps a cell to its current region (regions may have split
    since the edit was logged).  Replay is idempotent: a cell that was
    already flushed into an HFile merges away by timestamp.
    """
    replayed = 0
    for path in segments:
        if not client.exists(path):
            continue
        for line in client.read_text(path).splitlines():
            if not line:
                continue
            cell = Cell.decode(line)
            region = route(cell)
            if region is not None:
                region.apply(cell)
                replayed += 1
    return replayed
