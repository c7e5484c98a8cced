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

import io
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class FetchStats:
    """I/O accounting for one map task's input."""

    bytes_read: int = 0
    elapsed: float = 0.0


@dataclass(slots=True)
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
        """CPU half: iterate records over already-fetched bytes.

        One lazy C-level line iteration over the split: no per-line
        ``find``/slice in Python, and no list of every line (a split is
        a whole block).  A line keeps a trailing carriage return; only
        its newline is dropped.

        Each record is built as the shuffle wire builds a decoded one:
        ``__new__`` and one slot store, since an ``int`` offset and a
        decoded ``str`` cannot fail the constructors' checks.
        """
        position = prefetched.position
        new = object.__new__
        for raw in io.BytesIO(prefetched.data):
            key = new(LongWritable)
            key.value = position
            value = new(Text)
            value.value = (raw[:-1] if raw.endswith(b"\n") else raw).decode(
                "utf-8", errors="replace"
            )
            yield key, value
            position += len(raw)

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


class MapInput:
    """One map attempt's input, as :meth:`~repro.mapreduce.api.Mapper.run`
    consumes it.

    Iterating it yields the input format's ``(key, value)`` records;
    :meth:`lines` yields the split's lines as ``str``, with no Writable
    per line, for a mapper that never reads its key.  :attr:`records`
    counts what was handed out either way: the attempt's
    ``MAP_INPUT_RECORDS``.

    Under a sanitizer each record is fingerprinted as it is handed out
    and checked when the next one is asked for (and by
    :meth:`verify_inputs` once the mapper is done), so an overridden
    ``run()`` is checked as the default loop is.  Lines are immutable
    ``str`` and need no check.
    """

    #: Bytes of the split :meth:`lines` decodes at once; a line longer
    #: than a slab extends its slab.
    SLAB_BYTES = 1 << 20

    def __init__(
        self,
        input_format: type[TextInputFormat],
        prefetched: PrefetchedSplit,
        sanitizer=None,
    ) -> None:
        self._format = input_format
        self._prefetched = prefetched
        self._sanitizer = sanitizer
        #: ``(snapshot, key, value)`` of the record a sanitized attempt
        #: holds, until it is verified.
        self._lent: tuple | None = None
        self.records = 0

    def __iter__(self) -> Iterator[tuple[Writable, Writable]]:
        records = self._format.parse_records(self._prefetched)
        sanitizer = self._sanitizer
        if sanitizer is None:
            for record in records:
                self.records += 1
                yield record
            return
        for key, value in records:
            self.records += 1
            self._lent = (sanitizer.snapshot_inputs(key, value), key, value)
            yield key, value
            self.verify_inputs()

    def verify_inputs(self) -> None:
        """Report an in-place edit of the record last handed out."""
        lent, self._lent = self._lent, None
        if lent is not None:
            snapshot, key, value = lent
            self._sanitizer.verify_inputs("map", snapshot, key, value)

    def lines(self) -> Iterator[str]:
        """The split's lines: the values of its ``TextInputFormat``
        records, a trailing ``\\r`` kept and the ``\\n`` dropped.

        The bytes are decoded a slab at a time, each slab at most
        :attr:`SLAB_BYTES` cut just after a newline: one ``decode`` and
        one ``split`` per slab, and never the whole split (a block) at
        once.  ``0x0A`` occurs inside no UTF-8 sequence, so a slab
        decodes to the same lines, replacement characters included, as
        one decode per line.  :attr:`records` grows a slab at a time.
        """
        data = self._prefetched.data
        size = len(data)
        start = 0
        while start < size:
            end = start + self.SLAB_BYTES
            if end >= size:
                end = size
            else:
                cut = data.rfind(b"\n", start, end)
                if cut == -1:
                    cut = data.find(b"\n", end)
                end = size if cut == -1 else cut + 1
            lines = data[start:end].decode("utf-8", errors="replace").split("\n")
            if data[end - 1] == 0x0A:
                lines.pop()  # the empty piece after the last newline
            self.records += len(lines)
            yield from lines
            # Dropped before the next slab is decoded, so two slabs'
            # lines are never held at once.
            del lines
            start = end
