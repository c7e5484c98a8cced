"""Blocks, checksums, corruption detection."""

import pytest

from repro.hdfs.block import Block, BlockIdGenerator, StoredBlock, checksum
from repro.util.errors import CorruptBlockError


class TestBlock:
    def test_physical_name(self):
        assert Block(1001, 1, 64).name == "blk_1001"

    def test_id_generator_monotonic(self):
        gen = BlockIdGenerator()
        first = gen.next_id()
        assert gen.next_id() == first + 1


class TestStoredBlock:
    def test_length_must_match(self):
        with pytest.raises(ValueError):
            StoredBlock(Block(1, 1, 10), b"short")

    def test_verify_fresh(self):
        stored = StoredBlock(Block(1, 1, 4), b"data")
        assert stored.verify()
        assert stored.read() == b"data"

    def test_corruption_detected(self):
        stored = StoredBlock(Block(1, 1, 4), b"data")
        stored.corrupt()
        assert not stored.verify()
        with pytest.raises(CorruptBlockError):
            stored.read()

    def test_corrupt_at_offset(self):
        stored = StoredBlock(Block(1, 1, 8), b"abcdefgh")
        stored.corrupt(offset=3)
        assert stored.data[:3] == b"abc"
        assert stored.data[3] != ord("d")

    def test_corrupt_offset_wraps(self):
        stored = StoredBlock(Block(1, 1, 4), b"abcd")
        stored.corrupt(offset=6)  # 6 % 4 == 2
        assert stored.data[2] != ord("c")

    def test_corrupting_empty_block_is_noop(self):
        stored = StoredBlock(Block(1, 1, 0), b"")
        stored.corrupt()
        assert stored.verify()

    def test_checksum_is_stable(self):
        assert checksum(b"abc") == checksum(b"abc")
        assert checksum(b"abc") != checksum(b"abd")


class TestChunkedChecksums:
    def test_chunk_count(self):
        stored = StoredBlock(Block(1, 1, 10), b"0123456789", chunk_size=4)
        assert stored.n_chunks == 3  # 4 + 4 + 2

    def test_empty_block_has_no_chunks(self):
        stored = StoredBlock(Block(1, 1, 0), b"", chunk_size=4)
        assert stored.n_chunks == 0
        assert stored.verify()
        assert bytes(stored.read_range(0, 10)) == b""

    def test_born_verified(self):
        stored = StoredBlock(Block(1, 1, 8), b"abcdefgh", chunk_size=4)
        assert stored.unverified_bytes == 0

    def test_corrupt_invalidates_only_touched_chunk(self):
        stored = StoredBlock(Block(1, 1, 12), b"abcdefghijkl", chunk_size=4)
        stored.corrupt(offset=5)  # chunk 1
        assert stored.unverified_bytes == 4
        # Untouched chunks still read clean via ranges.
        assert bytes(stored.read_range(0, 4)) == b"abcd"
        assert bytes(stored.read_range(8, 4)) == b"ijkl"
        # The damaged chunk raises, whole reads raise.
        with pytest.raises(CorruptBlockError):
            stored.read_range(4, 4)
        with pytest.raises(CorruptBlockError):
            stored.read()

    def test_range_straddling_corrupt_chunk_raises(self):
        stored = StoredBlock(Block(1, 1, 12), b"abcdefghijkl", chunk_size=4)
        stored.corrupt(offset=5)
        with pytest.raises(CorruptBlockError):
            stored.read_range(2, 4)  # touches chunks 0 and 1

    def test_verdicts_are_memoised_both_ways(self):
        stored = StoredBlock(Block(1, 1, 8), b"abcdefgh", chunk_size=4)
        stored.corrupt(offset=0)
        assert stored.unverified_bytes == 4
        assert not stored.verify()
        # The BAD verdict is remembered: nothing left to scan either.
        assert stored.unverified_bytes == 0
        assert not stored.verify()

    def test_read_range_clamps_and_validates(self):
        stored = StoredBlock(Block(1, 1, 10), b"0123456789", chunk_size=4)
        assert bytes(stored.read_range(8)) == b"89"  # to end
        assert bytes(stored.read_range(9, 100)) == b"9"  # clamped
        assert bytes(stored.read_range(10, 1)) == b""  # at end
        assert bytes(stored.read_range(99, 1)) == b""  # past end
        with pytest.raises(ValueError):
            stored.read_range(-1, 1)
        with pytest.raises(ValueError):
            stored.read_range(0, -1)

    def test_read_range_is_zero_copy(self):
        stored = StoredBlock(Block(1, 1, 8), b"abcdefgh", chunk_size=4)
        view = stored.read_range(2, 4)
        assert isinstance(view, memoryview)
        assert view.obj is stored.data

    def test_constructor_copies_views_once(self):
        buffer = bytearray(b"abcdefgh")
        stored = StoredBlock(Block(1, 1, 4), memoryview(buffer)[2:6])
        buffer[3] = 0  # mutating the source must not reach the replica
        assert stored.read() == b"cdef"
