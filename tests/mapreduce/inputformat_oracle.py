"""Reference oracle: ``TextInputFormat.parse_records`` as it was.

The body below is the per-line ``find``/slice loop the reader ran
before it iterated lines in C over an ``io.BytesIO``.  It defines the
records the new reader must yield, offsets included
(``tests/properties/test_inputformat_properties.py`` compares the two).
Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from typing import Iterator

from repro.mapreduce.inputformat import PrefetchedSplit
from repro.mapreduce.types import LongWritable, Text, Writable


def parse_records(prefetched: PrefetchedSplit) -> Iterator[tuple[Writable, Writable]]:
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
