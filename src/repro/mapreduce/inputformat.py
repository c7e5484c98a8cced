"""Input formats: from HDFS blocks to (key, value) records.

One input split per HDFS block — the mapping that makes data locality
*possible*: the JobTracker "assigns work and facilitates map/reduce on
TaskTrackers based on block location information from NameNode"
(Figure 2).  The line-reassembly logic at block boundaries is
implemented faithfully: a record that straddles two blocks is read by
the split owning its first byte, which fetches just enough of the next
block to finish the line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.mapreduce.types import LongWritable, Text, Writable
from repro.util.errors import MapReduceError

#: ``fetch(path, block_index, max_bytes, offset=0) -> (data, elapsed_seconds)``.
#: Reads the range ``[offset, offset+max_bytes)`` of one block;
#: ``max_bytes=None`` reads from ``offset`` to the block's end, and
#: ``offset`` must default to 0 so whole-block callers can omit it.
#: Implementations charge the correct disk/network cost for the bytes
#: actually moved (ranged reads pay only for their range).
BlockFetch = Callable[..., tuple[bytes, float]]


@dataclass
class InputSplit:
    """One unit of map-task work: a single block of one file."""

    path: str
    block_index: int
    start_offset: int  # byte offset of this block within the file
    length: int
    locations: tuple[str, ...] = ()  # DataNodes holding the block
    is_first: bool = True
    is_last: bool = True

    @property
    def split_id(self) -> str:
        return f"{self.path}:{self.block_index}"


@dataclass
class FetchStats:
    """I/O accounting for one map task's input."""

    bytes_read: int = 0
    elapsed: float = 0.0


@dataclass
class PrefetchedSplit:
    """One split's input bytes, fully fetched and boundary-trimmed.

    Produced by :meth:`TextInputFormat.prefetch` in the simulation
    thread (where block fetches may touch DataNode/network state) and
    consumed by :meth:`TextInputFormat.parse_records` anywhere — in
    particular inside a pooled execution backend's worker, which must
    not call back into simulation state.
    """

    data: bytes
    position: int  # byte offset of data[0] within the file


class TextInputFormat:
    """Lines as records: key = byte offset (LongWritable), value = Text.

    The format is split into an I/O half (:meth:`prefetch` — every
    ``fetch`` call, boundary-line reassembly, byte/second accounting)
    and a CPU half (:meth:`parse_records` — record iteration over the
    prefetched bytes).  Task attempts always run the halves apart — the
    I/O in the simulation thread, the parse wherever the execution
    backend puts the attempt — so a format customises *those*;
    :meth:`read_records` is the composition for callers that just want
    a split's records.
    """

    @staticmethod
    def splits_for_file(
        path: str, block_lengths: list[int], locations: list[tuple[str, ...]]
    ) -> list[InputSplit]:
        """Build splits from a file's block layout."""
        if len(block_lengths) != len(locations):
            raise MapReduceError("block_lengths and locations length mismatch")
        splits = []
        offset = 0
        for index, (length, locs) in enumerate(zip(block_lengths, locations)):
            splits.append(
                InputSplit(
                    path=path,
                    block_index=index,
                    start_offset=offset,
                    length=length,
                    locations=tuple(locs),
                    is_first=(index == 0),
                    is_last=(index == len(block_lengths) - 1),
                )
            )
            offset += length
        return splits

    # ------------------------------------------------------------------
    @classmethod
    def read_records(
        cls, split: InputSplit, fetch: BlockFetch, stats: FetchStats | None = None
    ) -> Iterator[tuple[Writable, Writable]]:
        """Yield ``(LongWritable offset, Text line)`` for one split."""
        stats = stats if stats is not None else FetchStats()
        yield from cls.parse_records(cls.prefetch(split, fetch, stats))

    @classmethod
    def prefetch(
        cls, split: InputSplit, fetch: BlockFetch, stats: FetchStats
    ) -> PrefetchedSplit:
        """Perform all of this split's block I/O; return the raw bytes."""
        data, elapsed = fetch(split.path, split.block_index, None)
        stats.bytes_read += len(data)
        stats.elapsed += elapsed

        position = split.start_offset
        if not split.is_first:
            # The first (possibly partial) line belongs to the previous
            # split, which reads past its end to finish it.
            newline = data.find(b"\n")
            if newline == -1:
                # Entire block is the middle of one huge line: no
                # records, and (matching the historical fetch pattern)
                # no continuation read either.
                return PrefetchedSplit(data=b"", position=position)
            position += newline + 1
            data = data[newline + 1 :]

        if not split.is_last:
            data += cls._read_continuation(split, fetch, stats)
        return PrefetchedSplit(data=data, position=position)

    @classmethod
    def parse_records(
        cls, prefetched: PrefetchedSplit
    ) -> Iterator[tuple[Writable, Writable]]:
        """CPU half: iterate records over already-fetched bytes."""
        data = prefetched.data
        position = prefetched.position
        start = 0
        while start < len(data):
            end = data.find(b"\n", start)
            if end == -1:
                line = data[start:]
                consumed = len(data) - start
            else:
                line = data[start:end]
                consumed = end - start + 1
            if line or end != -1:
                yield (
                    LongWritable(position),
                    Text(line.decode("utf-8", errors="replace")),
                )
            position += consumed
            start += consumed

    #: Bytes fetched per probe while completing a boundary-straddling line.
    CONTINUATION_CHUNK = 8 * 1024

    @classmethod
    def _read_continuation(
        cls, split: InputSplit, fetch: BlockFetch, stats: FetchStats
    ) -> bytes:
        """Read from the next block(s) until the trailing line completes.

        Probes are *ranged*: each deeper probe resumes at the offset
        where the last one ended, so a long boundary line never re-reads
        block prefixes it already holds (the redundancy the historical
        prefix-read fetch paid).  A line can span any number of whole
        blocks.
        """
        pieces: list[bytes] = []
        block_index = split.block_index + 1
        while block_index - split.block_index <= 4096:  # defensive bound
            offset = 0
            budget = cls.CONTINUATION_CHUNK
            while True:
                try:
                    chunk, elapsed = fetch(split.path, block_index, budget, offset)
                except IndexError:
                    return b"".join(pieces)  # no further blocks
                chunk = bytes(chunk)  # ranged fetches may hand back views
                stats.bytes_read += len(chunk)
                stats.elapsed += elapsed
                if not chunk:
                    if offset == 0:
                        return b"".join(pieces)  # zero-length block
                    block_index += 1
                    break  # block ended exactly at the probe boundary
                newline = chunk.find(b"\n")
                if newline != -1:
                    pieces.append(chunk[: newline + 1])
                    return b"".join(pieces)
                pieces.append(chunk)
                offset += len(chunk)
                if len(chunk) < budget:
                    # Block exhausted mid-line: move to the next block.
                    block_index += 1
                    break
                # Line longer than the probe: continue where we stopped.
                budget *= 4
        raise MapReduceError(
            f"unterminated record spanning blocks in {split.path}"
        )


class KeyValueTextInputFormat(TextInputFormat):
    """Lines of ``key<TAB>value``: key = Text before the first tab."""

    @classmethod
    def parse_records(
        cls, prefetched: PrefetchedSplit
    ) -> Iterator[tuple[Writable, Writable]]:
        for _offset, line in TextInputFormat.parse_records(prefetched):
            text = line.value
            tab = text.find("\t")
            if tab == -1:
                yield Text(text), Text("")
            else:
                yield Text(text[:tab]), Text(text[tab + 1 :])
