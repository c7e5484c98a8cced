"""Pure-Python ground truths for the sparklite workload jobs.

Each recomputes a job's answer with plain loops, so a test can grade
the pipeline's output against it.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.jobs.ngrams import line_ngrams
from repro.jobs.pagerank import _dampen


def ngram_reference(text: str, n: int = 2) -> dict[str, int]:
    """Gram -> count over every line of ``text``."""
    counts: Counter = Counter()
    for line in text.splitlines():
        counts.update(line_ngrams(line, n))
    return dict(counts)


def pagerank_reference(
    edges: list[tuple[int, int]], iterations: int = 5
) -> dict[int, float]:
    """Page -> rank (float-tolerant, not bit-identical: it sums
    contributions in sorted order, not shuffle order)."""
    links: dict[int, list[int]] = defaultdict(list)
    for source, dest in edges:
        links[source].append(dest)
    ranks = {page: 1.0 for page in links}
    for _round in range(iterations):
        totals: dict[int, float] = {page: 0.0 for page in links}
        for page in sorted(links):
            share = ranks.get(page, 0.0) / len(links[page])
            for dest in links[page]:
                totals[dest] = totals.get(dest, 0.0) + share
        ranks = {page: _dampen(total) for page, total in totals.items()}
    return ranks
