"""HFiles: immutable sorted cell files stored in HDFS.

Each flush writes one HFile; a region split rewrites its cells into
its daughters' HFiles and deletes the parent's.  The files live in the same HDFS this repository's MapReduce uses, so the
HBase lecture's punchline — "it's all files on HDFS underneath" — is
directly observable with ``hadoop fs -ls /hbase``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.hbase.model import Cell
from repro.hdfs.client import DFSClient

_HFILE_SEQ = itertools.count(1)


@dataclass
class HFile:
    """A handle to one immutable HFile in HDFS."""

    path: str
    num_cells: int
    first_row: str | None
    last_row: str | None
    size_bytes: int

    def overlaps(self, start_row: str | None, stop_row: str | None) -> bool:
        if self.first_row is None:
            return False
        if start_row is not None and self.last_row < start_row:
            return False
        if stop_row is not None and self.first_row >= stop_row:
            return False
        return True


def write_hfile(
    client: DFSClient, directory: str, cells: list[Cell]
) -> HFile:
    """Persist sorted cells as a new HFile under ``directory``."""
    ordered = sorted(cells, key=lambda c: c.key)
    text = "\n".join(cell.encode() for cell in ordered)
    if text:
        text += "\n"
    path = f"{directory}/hfile_{next(_HFILE_SEQ):08d}"
    client.put_bytes(path, text.encode("utf-8"), overwrite=True)
    return HFile(
        path=path,
        num_cells=len(ordered),
        first_row=ordered[0].row if ordered else None,
        last_row=ordered[-1].row if ordered else None,
        size_bytes=len(text.encode("utf-8")),
    )


def read_hfile(client: DFSClient, hfile: HFile) -> list[Cell]:
    """Load an HFile's cells (sorted by construction)."""
    text = client.read_text(hfile.path)
    return [Cell.decode(line) for line in text.splitlines() if line]


def delete_hfile(client: DFSClient, hfile: HFile) -> None:
    if client.exists(hfile.path):
        client.delete(hfile.path)
