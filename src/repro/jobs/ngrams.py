"""N-gram counting over the Shakespeare corpus, as an RDD pipeline.

The corpus pipeline of the sparklite workload family: tokenize each
line with the vectorised :func:`~repro.datasets.shakespeare.tokenize`
(the C-loop fast path the map tasks of PR 5 run on), slide an *n*-wide
window over each line's tokens, and count windows with one shuffle.
Windows never cross line boundaries — the same convention as Hadoop's
classic n-gram examples, and what makes the pipeline embarrassingly
map-parallel before its single ``reduceByKey``.

All transformation arguments are module-level functions or
``functools.partial`` bindings of them, so the compiled backend ships
them to pooled workers instead of falling back inline.
"""

from __future__ import annotations

from functools import partial

from repro.datasets.shakespeare import tokenize


def line_ngrams(line: str, n: int = 2) -> list[str]:
    """All space-joined token windows of width ``n`` within one line."""
    words = tokenize(line)
    return [
        " ".join(words[start : start + n])
        for start in range(len(words) - n + 1)
    ]


def _pair_one(gram: str) -> tuple[str, int]:
    return (gram, 1)


def _add(a: int, b: int) -> int:
    return a + b


def ngram_counts(lines_rdd, n: int = 2, num_partitions: int = 4):
    """``lines -> ((gram, count), ...)`` as a lazy RDD.

    ``lines_rdd`` is any RDD of text lines (``sc.text_file(...)`` or
    ``sc.parallelize(text.splitlines(), ...)``); the result is not yet
    materialized, so callers can chain filters before acting.
    """
    return (
        lines_rdd.flat_map(partial(line_ngrams, n=n))
        .map(_pair_one)
        .reduce_by_key(_add, num_partitions)
    )


def top_ngrams(counts_rdd, k: int = 10) -> list[tuple[str, int]]:
    """The ``k`` most frequent grams, count-desc then gram-asc."""
    return sorted(counts_rdd.collect(), key=lambda kv: (-kv[1], kv[0]))[:k]
