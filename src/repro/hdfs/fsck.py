"""``hadoop fsck`` — the file-system checker.

The paper's instructors "ended up with a corrupted Hadoop cluster that
stopped all the new jobs"; fsck is the tool that diagnoses that state.
It walks the namespace once, asks the NameNode's census
(:meth:`NameNode.census`) about every block, and reports missing,
corrupt and under-replicated blocks with an overall HEALTHY/CORRUPT
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdfs.namenode import NameNode


@dataclass
class FsckReport:
    """The result of one fsck run."""

    path: str
    total_files: int = 0
    total_dirs: int = 0
    total_blocks: int = 0
    total_bytes: int = 0
    under_replicated: int = 0
    over_replicated: int = 0
    missing_blocks: int = 0
    corrupt_replicas: int = 0
    problem_files: list[str] = field(default_factory=list)
    detail_lines: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "CORRUPT" if self.missing_blocks else "HEALTHY"

    @property
    def healthy(self) -> bool:
        return self.status == "HEALTHY"

    def render(self) -> str:
        lines = [
            f"FSCK started for path {self.path}",
            *self.detail_lines,
            f" Total size:    {self.total_bytes} B",
            f" Total dirs:    {self.total_dirs}",
            f" Total files:   {self.total_files}",
            f" Total blocks:  {self.total_blocks}",
            f" Minimally replicated blocks: "
            f"{self.total_blocks - self.missing_blocks}",
            f" Under-replicated blocks:     {self.under_replicated}",
            f" Over-replicated blocks:      {self.over_replicated}",
            f" Missing blocks:              {self.missing_blocks}",
            f" Corrupt replicas:            {self.corrupt_replicas}",
            "",
            f"The filesystem under path '{self.path}' is {self.status}",
        ]
        return "\n".join(lines)


def fsck(
    namenode: NameNode, path: str = "/", list_blocks: bool = False
) -> FsckReport:
    """Check the subtree under ``path``."""
    report = FsckReport(path=path)
    for file_path, inode in namenode.namespace.walk_all(path):
        if inode.is_dir:
            report.total_dirs += 1
            continue
        report.total_files += 1
        report.total_bytes += inode.length
        file_missing = 0
        for block in inode.blocks:
            report.total_blocks += 1
            meta = namenode.block_map[block.block_id]
            live, _counted, state = namenode.census(meta)
            report.corrupt_replicas += len(meta.corrupt_on)
            if state == "missing":
                report.missing_blocks += 1
                file_missing += 1
            elif state == "under":
                report.under_replicated += 1
            elif state == "over":
                report.over_replicated += 1
            if list_blocks:
                locs = ",".join(sorted(meta.locations)) or "<none>"
                report.detail_lines.append(
                    f"{file_path}: blk_{block.block_id} len={block.length} "
                    f"repl={live}/{meta.expected_replication} [{locs}]"
                )
        if file_missing:
            report.problem_files.append(file_path)
            report.detail_lines.append(
                f"{file_path}: MISSING {file_missing} blocks of "
                f"{len(inode.blocks)} -- CORRUPT"
            )
    return report
