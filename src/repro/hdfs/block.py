"""Blocks: the unit of HDFS storage and replication.

A :class:`Block` is the NameNode-side identity (id, generation stamp,
length); a :class:`StoredBlock` is the DataNode-side physical replica —
real bytes plus a per-chunk CRC32 array, so corruption is detectable
exactly the way Hadoop detects it (io.bytes.per.checksum chunks, CRC
checked on the read path).

The chunk CRCs carry a *verified memo*: each chunk is CRC-checked at
most once and the verdict is remembered until the replica's bytes
change (``corrupt()``), at which point only the touched chunk's memo is
invalidated.  Ranged reads (``read_range``) verify only the chunks the
range overlaps.  The memo is a host-side cost optimisation only — the
simulated cost model and every error path behave identically whether a
chunk's CRC was recomputed or remembered.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.util.errors import CorruptBlockError

#: First block id a fresh NameNode hands out (and the ``next_block_id``
#: an empty fsimage records).
DEFAULT_FIRST_BLOCK_ID = 1001

#: Default io.bytes.per.checksum when a StoredBlock is built outside an
#: HdfsConfig (unit tests, ad-hoc replicas).  Hadoop ships 512 bytes;
#: 64 KB keeps CRC arrays small at production block sizes.
DEFAULT_CHUNK_SIZE = 64 * 1024

# Chunk memo states.  BAD is memoised too: bytes only change through
# corrupt(), which resets the touched chunk to UNKNOWN, so a remembered
# verdict (either way) stays true until the next mutation.
_UNKNOWN, _OK, _BAD = 0, 1, 2


@dataclass(frozen=True)
class Block:
    """NameNode-side block identity."""

    block_id: int
    generation: int
    length: int

    @property
    def name(self) -> str:
        """The on-disk file name, as in Figure 2's physical view."""
        return f"blk_{self.block_id}"

    def __repr__(self) -> str:
        return f"Block(blk_{self.block_id}, gen={self.generation}, len={self.length})"


class BlockIdGenerator:
    """Monotonic block-id source owned by the NameNode.

    A plain integer counter (not ``itertools.count``) so the fsimage
    can persist (:meth:`peek`) and reinstall (:meth:`restore`) the next
    id across crash recovery — replayed clusters must hand out exactly
    the ids the live cluster would have.
    """

    def __init__(self, start: int = DEFAULT_FIRST_BLOCK_ID):
        self._next = start

    def next_id(self) -> int:
        allocated = self._next
        self._next += 1
        return allocated

    def peek(self) -> int:
        """The id the next allocation will return (persisted in fsimage)."""
        return self._next

    def restore(self, next_id: int) -> None:
        """Reinstall a journaled counter; never moves backwards."""
        self._next = max(self._next, int(next_id))


def checksum(data) -> int:
    """CRC32 of a buffer (bytes or memoryview)."""
    return zlib.crc32(data) & 0xFFFFFFFF


class StoredBlock:
    """A physical replica on one DataNode: bytes + chunked checksums.

    ``data`` may be any bytes-like object; it is copied to ``bytes``
    here and nowhere else — this constructor is the single copy
    boundary of the write path.  Chunks are *born verified*: the CRCs
    are computed from the same bytes the replica stores, so a fresh
    replica has nothing left to prove until something mutates it.

    A pipeline checksums a block once: a replica adopts the CRC list of
    the ``upstream`` replica it got the block from, but only when it
    holds the very same ``bytes`` object (identity, so nothing can have
    changed) cut at the same chunk size.  The list is never written
    again; ``corrupt()`` replaces one replica's ``data`` and no CRC.
    """

    __slots__ = ("block", "data", "chunk_size", "chunk_crcs", "_memo")

    def __init__(
        self,
        block: Block,
        data,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        upstream: "StoredBlock | None" = None,
    ):
        if len(data) != block.length:
            raise ValueError(
                f"data length {len(data)} != block length {block.length}"
            )
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.block = block
        self.data = data if isinstance(data, bytes) else bytes(data)
        self.chunk_size = chunk_size
        if (
            upstream is not None
            and upstream.data is self.data
            and upstream.chunk_size == chunk_size
        ):
            self.chunk_crcs = upstream.chunk_crcs
        else:
            view = memoryview(self.data)
            self.chunk_crcs = [
                checksum(view[i : i + chunk_size])
                for i in range(0, block.length, chunk_size)
            ]
        self._memo = bytearray([_OK] * len(self.chunk_crcs))

    @property
    def block_id(self) -> int:
        return self.block.block_id

    @property
    def generation(self) -> int:
        return self.block.generation

    @property
    def length(self) -> int:
        return self.block.length

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_crcs)

    @property
    def unverified_bytes(self) -> int:
        """Bytes a startup scan would still have to CRC.

        Chunks whose memo already holds a verdict cost nothing to
        re-attest.
        """
        pending = self._memo.count(_UNKNOWN)
        if pending == 0:
            return 0
        size = 0
        for index, state in enumerate(self._memo):
            if state == _UNKNOWN:
                size += self._chunk_len(index)
        return size

    def _chunk_len(self, index: int) -> int:
        start = index * self.chunk_size
        return min(self.chunk_size, self.length - start)

    def _verify_chunk(self, index: int) -> bool:
        if self._memo[index] != _UNKNOWN:
            return self._memo[index] == _OK
        start = index * self.chunk_size
        view = memoryview(self.data)[start : start + self.chunk_size]
        ok = checksum(view) == self.chunk_crcs[index]
        self._memo[index] = _OK if ok else _BAD
        return ok

    def verify(self) -> bool:
        """Check every chunk (memoised); False means the replica is corrupt."""
        return all(self._verify_chunk(i) for i in range(len(self.chunk_crcs)))

    def verify_range(self, offset: int, length: int) -> bool:
        """Check only the chunks [offset, offset+length) overlaps."""
        if length <= 0 or self.length == 0:
            return True
        first = offset // self.chunk_size
        last = (offset + length - 1) // self.chunk_size
        return all(self._verify_chunk(i) for i in range(first, last + 1))

    def read(self) -> bytes:
        """Return the bytes, raising if the replica fails verification."""
        if not self.verify():
            raise CorruptBlockError(
                f"checksum mismatch reading blk_{self.block.block_id}"
            )
        return self.data

    def read_range(self, offset: int, length: int | None = None) -> memoryview:
        """Zero-copy slice of the replica, verifying only touched chunks.

        ``offset`` past the end yields an empty view; ``length`` is
        clamped to the block tail.  ``None`` means "to the end".
        """
        if offset < 0:
            raise ValueError("offset must be >= 0")
        offset = min(offset, self.length)
        if length is None:
            length = self.length - offset
        if length < 0:
            raise ValueError("length must be >= 0")
        length = min(length, self.length - offset)
        if not self.verify_range(offset, length):
            raise CorruptBlockError(
                f"checksum mismatch reading blk_{self.block.block_id}"
                f" range [{offset}, {offset + length})"
            )
        return memoryview(self.data)[offset : offset + length]

    def corrupt(self, offset: int = 0) -> None:
        """Flip a byte (test/fault-injection hook) without updating CRCs.

        Only the touched chunk's memo is invalidated — the other chunks
        remain attested, exactly how Hadoop localises checksum damage.
        """
        if self.length == 0:
            return
        offset %= self.length
        mutated = bytearray(self.data)
        mutated[offset] ^= 0xFF
        self.data = bytes(mutated)
        self._memo[offset // self.chunk_size] = _UNKNOWN
