"""Output formats: rendering reduce output into ``part-NNNNN`` files."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mapreduce.types import NullWritable, Text, Writable

if TYPE_CHECKING:
    from repro.hdfs.namespace import FileStatus


class TextOutputFormat:
    """``key<TAB>value`` lines, Hadoop's default."""

    SEPARATOR = "\t"

    @classmethod
    def format_pair(cls, key: Writable, value: Writable) -> str:
        if isinstance(key, NullWritable):
            return value.encode()
        if isinstance(value, NullWritable):
            return key.encode()
        return f"{key.encode()}{cls.SEPARATOR}{value.encode()}"

    @classmethod
    def render(cls, pairs: list[tuple[Writable, Writable]]) -> str:
        if not pairs:
            return ""
        return "\n".join(cls.format_pair(k, v) for k, v in pairs) + "\n"

    @classmethod
    def parse_line(cls, line: str) -> tuple[str, str]:
        """Split an output line back into (key, value) strings."""
        tab = line.find(cls.SEPARATOR)
        if tab == -1:
            return line, ""
        return line[:tab], line[tab + 1 :]

    @classmethod
    def parse(cls, text: str) -> list[tuple[str, str]]:
        return [cls.parse_line(line) for line in text.splitlines() if line]


def part_file_name(partition: int) -> str:
    """Hadoop's reduce-output naming: ``part-00000``, ``part-00001``…"""
    return f"part-{partition:05d}"


def data_files(fs, path: str) -> list[FileStatus]:
    """Hadoop's hidden-file rule, the one place a directory is read back:
    its data files are the non-directory entries whose names start with
    neither ``_`` nor ``.`` — so a job's ``part-*`` files, never its
    ``_SUCCESS`` marker.  ``fs`` (a client or the NameNode) is asked for
    one ``list_status``; entries keep its name order."""
    return [
        status
        for status in fs.list_status(path)
        if not status.is_dir
        and not status.path.rsplit("/", 1)[-1].startswith(("_", "."))
    ]
