"""Property: TextInputFormat reads every line exactly once, regardless
of where block boundaries fall — the invariant that makes "one split per
block" safe.  And its line reader yields exactly the records, offsets
included, of the per-line ``find``/slice loop it replaced
(``tests/mapreduce/inputformat_oracle.py``); a map attempt's
``MapInput.lines()``, decoding the split a slab at a time, yields
exactly those records' values, and holds one slab's lines at a time."""

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.mapreduce.inputformat import (
    FetchStats,
    KeyValueTextInputFormat,
    MapInput,
    PrefetchedSplit,
    TextInputFormat,
)
from tests.mapreduce import inputformat_oracle as oracle

SETTINGS = settings(max_examples=120, deadline=None)

LINE = st.text(alphabet="abcXYZ 09", min_size=0, max_size=30)


def chunked_fetch(data: bytes, block_size: int):
    def fetch(path, block_index, max_bytes, offset=0):
        start = block_index * block_size
        if start >= len(data) and block_index > 0:
            raise IndexError(block_index)
        chunk = data[start : start + block_size]
        if offset:
            chunk = chunk[offset:]
        if max_bytes is not None:
            chunk = chunk[:max_bytes]
        return chunk, 0.0

    return fetch


def read_lines(data: bytes, block_size: int) -> list[str]:
    lengths = []
    offset = 0
    while offset < len(data):
        lengths.append(min(block_size, len(data) - offset))
        offset += lengths[-1]
    if not lengths:
        lengths = [0]
    splits = TextInputFormat.splits_for_file(
        "/f", lengths, [("n",)] * len(lengths)
    )
    fetch = chunked_fetch(data, block_size)
    out = []
    for split in splits:
        for _key, value in TextInputFormat.read_records(split, fetch):
            out.append(value.value)
    return out


class TestExactlyOnce:
    @SETTINGS
    @given(
        lines=st.lists(LINE, min_size=0, max_size=20),
        block_size=st.integers(min_value=1, max_value=64),
    )
    def test_lines_partition_exactly(self, lines, block_size):
        data = ("\n".join(lines) + "\n").encode() if lines else b""
        assert read_lines(data, block_size) == lines

    @SETTINGS
    @given(
        lines=st.lists(LINE, min_size=1, max_size=10),
        block_size=st.integers(min_value=1, max_value=32),
    )
    def test_missing_final_newline(self, lines, block_size):
        data = "\n".join(lines).encode()
        expected = list(lines)
        # A trailing empty line without a newline yields no record.
        if expected and expected[-1] == "":
            expected = expected[:-1]
        assert read_lines(data, block_size) == expected

    @SETTINGS
    @given(
        lines=st.lists(LINE, min_size=0, max_size=12),
        block_size=st.integers(min_value=1, max_value=48),
    )
    def test_offsets_strictly_increasing(self, lines, block_size):
        data = ("\n".join(lines) + "\n").encode() if lines else b""
        lengths = []
        offset = 0
        while offset < len(data):
            lengths.append(min(block_size, len(data) - offset))
            offset += lengths[-1]
        if not lengths:
            return
        splits = TextInputFormat.splits_for_file(
            "/f", lengths, [("n",)] * len(lengths)
        )
        fetch = chunked_fetch(data, block_size)
        offsets = []
        for split in splits:
            for key, _value in TextInputFormat.read_records(split, fetch):
                offsets.append(key.value)
        assert offsets == sorted(set(offsets))


#: Bytes a line reader must not trip on: invalid UTF-8 (a lone
#: continuation byte, a truncated sequence, 0xff), ``\r`` alone and
#: before ``\n``, empty lines, and multi-byte characters whose byte
#: offsets differ from their character offsets.
PIECE = st.one_of(
    st.binary(max_size=6),
    st.sampled_from(
        [b"\n", b"\n\n", b"\r", b"\r\n", b"", b"\x80", b"\xe2\x82", b"\xff",
         "é".encode(), "中😀".encode(), b"a,b"]
    ),
)
DATA = st.lists(PIECE, max_size=24).map(b"".join)


def _records(records) -> list[tuple[int, str]]:
    return [(key.value, value.value) for key, value in records]


class TestReaderMatchesOracle:
    @SETTINGS
    @given(data=DATA, position=st.integers(min_value=0, max_value=2**40))
    def test_records_and_offsets(self, data, position):
        prefetched = PrefetchedSplit(data=data, position=position)
        assert _records(TextInputFormat.parse_records(prefetched)) == _records(
            oracle.parse_records(prefetched)
        )

    @SETTINGS
    @given(data=DATA, block_size=st.integers(min_value=1, max_value=16))
    def test_every_split_of_a_file(self, data, block_size):
        lengths = [
            min(block_size, len(data) - offset)
            for offset in range(0, len(data), block_size)
        ] or [0]
        splits = TextInputFormat.splits_for_file("/f", lengths, [("n",)] * len(lengths))
        fetch = chunked_fetch(data, block_size)
        for split in splits:
            prefetched = TextInputFormat.prefetch(split, fetch, FetchStats())
            assert _records(TextInputFormat.parse_records(prefetched)) == _records(
                oracle.parse_records(prefetched)
            )
            # The key/value reader splits the same lines at their first TAB.
            assert [
                (key.value, value.value)
                for key, value in KeyValueTextInputFormat.parse_records(prefetched)
            ] == [
                (text.partition("\t")[0], text.partition("\t")[2])
                for _offset, text in _records(oracle.parse_records(prefetched))
            ]

    def test_the_edge_cases_by_name(self):
        data = b"a\r\n\n\xff\nz" + "é".encode() + b"\r"
        prefetched = PrefetchedSplit(data=data, position=7)
        assert _records(TextInputFormat.parse_records(prefetched)) == [
            (7, "a\r"),
            (10, ""),
            (11, "\ufffd"),
            (13, "zé\r"),
        ]
        assert _records(TextInputFormat.parse_records(prefetched)) == _records(
            oracle.parse_records(prefetched)
        )


def _values(records) -> list[str]:
    return [value.value for _key, value in records]


class TestLinesMatchRecords:
    @SETTINGS
    @given(data=DATA, slab=st.integers(min_value=1, max_value=16), whole=st.booleans())
    def test_lines_are_the_record_values(self, data, slab, whole):
        prefetched = PrefetchedSplit(data=data, position=5)
        split = MapInput(TextInputFormat, prefetched)
        # Small slabs cut lines anywhere and leave lines longer than a
        # slab; ``whole`` reads the split as exactly one slab.
        split.SLAB_BYTES = max(len(data), 1) if whole else slab
        values = _values(TextInputFormat.parse_records(prefetched))
        assert list(split.lines()) == values
        assert values == _values(oracle.parse_records(prefetched))
        assert split.records == len(values)
        records = MapInput(TextInputFormat, prefetched)
        assert _values(records) == values and records.records == len(values)

    def test_at_the_real_slab_size(self):
        slab = MapInput.SLAB_BYTES
        cases = [
            b"",
            b"x" * (slab - 1) + b"\n",  # exactly one slab
            b"y" * (slab + slab // 2) + b"\n\xff\r\nz",  # a line longer than a slab
            ("é" * slab).encode() + b"\n" + b"w\n" * slab,  # cuts after a newline
        ]
        for data in cases:
            prefetched = PrefetchedSplit(data=data, position=0)
            split = MapInput(TextInputFormat, prefetched)
            assert list(split.lines()) == _values(TextInputFormat.parse_records(prefetched))

    def test_one_slab_of_lines_held_at_a_time(self):
        line = b"%099d\n"
        per_slab = MapInput.SLAB_BYTES // len(line % 0)

        def peak(slabs: int) -> int:
            data = b"".join(line % i for i in range(per_slab * slabs))
            split = MapInput(TextInputFormat, PrefetchedSplit(data=data, position=0))
            tracemalloc.start()
            try:
                for _line in split.lines():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, six = peak(1), peak(6)
        # Six slabs cost what one does: each slab's lines are dropped
        # before the next is decoded (holding two would read ~1.4x).
        assert six < 1.2 * one
        assert one > MapInput.SLAB_BYTES  # the measure sees a slab's lines
