"""WordCount, three ways — the MapReduce lecture's running example.

1. :class:`WordCountJob` — "the standard WordCount example which
   illustrates the basic concepts of mapping and reducing";
2. :class:`WordCountWithCombinerJob` — "another WordCount example that
   uses the reducer as a combiner", where students "observe the tradeoff
   between increased map task run time ... versus reduced network
   traffic";
3. :class:`WordCountInMapperJob` — in-mapper combining (Lin's design
   pattern), the aggressive end of the same trade-off.
"""

from __future__ import annotations

from repro.datasets.shakespeare import tokenize
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.types import IntWritable, Writable


class TokenizerMapper(Mapper):
    """Emit ``(word, 1)`` for every token of the line."""

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        for word in tokenize(value.value):
            context.write(word, 1)


class IntSumReducer(Reducer):
    """Sum the counts for one word.

    Summing integers is a monoid, which is exactly why this class can
    double as the combiner in :class:`WordCountWithCombinerJob`.
    """

    def reduce(self, key: Writable, values, context: Context) -> None:
        total = sum(v.value for v in values)
        context.write(key, IntWritable(total))


class InMapperCombiningMapper(Mapper):
    """Aggregate counts in task-local memory; emit once at cleanup."""

    def setup(self, context: Context) -> None:
        self._counts: dict[str, int] = {}

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        for word in tokenize(value.value):
            self._counts[word] = self._counts.get(word, 0) + 1

    def cleanup(self, context: Context) -> None:
        counts, self._counts = self._counts, {}
        for word in sorted(counts):
            context.write(word, counts[word])


class WordCountJob(Job):
    """Plain WordCount: every token crosses the network."""

    mapper = TokenizerMapper
    reducer = IntSumReducer


class WordCountWithCombinerJob(Job):
    """WordCount with the reducer reused as a combiner."""

    mapper = TokenizerMapper
    reducer = IntSumReducer
    combiner = IntSumReducer


class WordCountInMapperJob(Job):
    """WordCount with in-mapper combining (no combiner class at all)."""

    mapper = InMapperCombiningMapper
    reducer = IntSumReducer
