"""RDDs: lazy, partitioned, lineage-tracked collections.

Transformations build a DAG; nothing runs until an action.  Narrow
transformations (map, filter, flatMap, mapValues) keep partitioning;
wide ones (reduceByKey, groupByKey, distinct, join) hash-shuffle.  Each
partition's bytes live in its executor's cache when ``cache()`` was
called; losing the executor loses the cache but never the data — the
lineage recomputes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.sparklite.codec import sort_token, stable_hash
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sparklite.context import SparkLiteContext


def _hash_partition(key, num_partitions: int) -> int:
    """Partition by the key's canonical Writable serialization.

    CRC32 over :func:`~repro.sparklite.codec.encode_element` — the same
    bytes the MR ``HashPartitioner`` hashes when the compiled planner
    ships the key as a ``Text``, so in-memory and compiled shuffles
    place every key identically, under every ``PYTHONHASHSEED``.
    """
    return stable_hash(key) % num_partitions


class RDD:
    """One node of the lineage DAG."""

    def __init__(
        self,
        context: "SparkLiteContext",
        num_partitions: int,
        parents: tuple["RDD", ...],
        description: str,
    ):
        if num_partitions < 1:
            raise ReproError("an RDD needs at least one partition")
        self.context = context
        # Context-owned counter (not a module global): lineage ids — and
        # everything derived from them (descriptions, digests, compiled
        # stage paths) — are reproducible run-to-run and snapshot-safe.
        self.rdd_id = context._next_rdd_id()
        self.num_partitions = num_partitions
        self.parents = parents
        self.description = description
        self.cached = False

    # ------------------------------------------------------------------
    # lineage execution
    def _compute_partition(self, index: int) -> list:
        """Produce partition ``index`` (no caching at this level)."""
        raise NotImplementedError

    def partition(self, index: int) -> list:
        """Fetch or (re)compute one partition, via the executor cache."""
        if not (0 <= index < self.num_partitions):
            raise ReproError(
                f"partition {index} out of range for {self.description}"
            )
        return self.context._materialize(self, index)

    def lineage(self) -> list[str]:
        """Human-readable DAG, leaves last (what ``toDebugString`` shows)."""
        lines = [f"({self.num_partitions}) {self.description}"]
        for parent in self.parents:
            lines.extend("  " + line for line in parent.lineage())
        return lines

    # ------------------------------------------------------------------
    # narrow transformations
    def map(self, fn: Callable) -> "RDD":
        return _Mapped(self, fn, kind="map")

    def filter(self, predicate: Callable) -> "RDD":
        return _Filtered(self, predicate)

    def flat_map(self, fn: Callable) -> "RDD":
        return _Mapped(self, fn, kind="flat_map")

    def map_values(self, fn: Callable) -> "RDD":
        return _Mapped(self, fn, kind="map_values")

    def union(self, other: "RDD") -> "RDD":
        return _Union(self, other)

    # ------------------------------------------------------------------
    # wide transformations (shuffles)
    def reduce_by_key(
        self, fn: Callable, num_partitions: int | None = None
    ) -> "RDD":
        return _Shuffled(
            self,
            num_partitions or self.num_partitions,
            merge_fn=fn,
            description="reduceByKey",
        )

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        return _Shuffled(
            self,
            num_partitions or self.num_partitions,
            merge_fn=None,
            description="groupByKey",
        )

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        keyed = self.map(lambda x: (x, None))
        deduped = keyed.reduce_by_key(lambda a, b: a, num_partitions)
        return deduped.map(lambda kv: kv[0])

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        return _Joined(self, other, num_partitions or self.num_partitions)

    # ------------------------------------------------------------------
    # persistence
    def cache(self) -> "RDD":
        """Keep computed partitions in executor memory."""
        self.cached = True
        return self

    def unpersist(self) -> "RDD":
        self.cached = False
        self.context._evict(self)
        return self

    # ------------------------------------------------------------------
    # actions
    #
    # Every action funnels through ``collect``-style full evaluation.
    # A context built on a MapReduce cluster returns a compiled runner
    # and the lineage executes as MapReduce stages on the cluster; the
    # element order the two paths produce is identical by construction
    # (see repro.sparklite.planner), so the derived actions below need
    # no per-backend cases.
    def collect(self) -> list:
        runner = self.context._compiled_runner()
        if runner is not None:
            return runner.collect(self)
        out: list = []
        for index in range(self.num_partitions):
            out.extend(self.partition(index))
        return out

    def count(self) -> int:
        runner = self.context._compiled_runner()
        if runner is not None:
            return len(runner.collect(self, decode=False))
        return sum(len(self.partition(i)) for i in range(self.num_partitions))

    def take(self, n: int) -> list:
        runner = self.context._compiled_runner()
        if runner is not None:
            return runner.collect(self)[:n]
        out: list = []
        for index in range(self.num_partitions):
            out.extend(self.partition(index))
            if len(out) >= n:
                return out[:n]
        return out

    def reduce(self, fn: Callable):
        current = None
        seen = False
        for value in self.collect():
            if not seen:
                current, seen = value, True
            else:
                current = fn(current, value)
        if not seen:
            raise ReproError("reduce of an empty RDD")
        return current

    def sum(self):
        return sum(self.collect())

    def count_by_key(self) -> dict:
        counts: dict = {}
        for key, _value in self.collect():
            counts[key] = counts.get(key, 0) + 1
        return counts


# --------------------------------------------------------------------------
# concrete nodes


class ParallelizedRDD(RDD):
    """A source RDD from driver-local data."""

    def __init__(self, context, data: Iterable, num_partitions: int):
        items = list(data)
        super().__init__(
            context, num_partitions, (), f"parallelize[{len(items)} items]"
        )
        self._slices: list[list] = [[] for _ in range(num_partitions)]
        for i, item in enumerate(items):
            self._slices[i % num_partitions].append(item)

    def _compute_partition(self, index: int) -> list:
        return list(self._slices[index])


class HdfsTextRDD(RDD):
    """A source RDD over an HDFS file, one partition per block."""

    def __init__(self, context, path: str):
        fetcher = context.fetcher
        if fetcher is None:
            raise ReproError("this context has no HDFS attached")
        lengths, _locations = fetcher.block_layout(path)
        super().__init__(
            context, max(1, len(lengths)), (), f"textFile[{path}]"
        )
        self.path = path

    def _compute_partition(self, index: int) -> list:
        from repro.mapreduce.inputformat import TextInputFormat

        fetcher = self.context.fetcher
        lengths, locations = fetcher.block_layout(self.path)
        if not lengths:
            return []
        splits = TextInputFormat.splits_for_file(
            self.path, lengths, locations
        )
        fetch = fetcher.make_fetch(None)
        return [
            value.value
            for _key, value in TextInputFormat.read_records(
                splits[index], fetch
            )
        ]


class _Mapped(RDD):
    def __init__(self, parent: RDD, fn: Callable, kind: str):
        super().__init__(
            parent.context, parent.num_partitions, (parent,), kind
        )
        self.fn = fn
        self.kind = kind

    def _compute_partition(self, index: int) -> list:
        data = self.parents[0].partition(index)
        if self.kind == "map":
            return [self.fn(x) for x in data]
        if self.kind == "flat_map":
            return [y for x in data for y in self.fn(x)]
        # map_values
        return [(k, self.fn(v)) for k, v in data]


class _Filtered(RDD):
    def __init__(self, parent: RDD, predicate: Callable):
        super().__init__(
            parent.context, parent.num_partitions, (parent,), "filter"
        )
        self.predicate = predicate

    def _compute_partition(self, index: int) -> list:
        return [x for x in self.parents[0].partition(index) if self.predicate(x)]


class _Union(RDD):
    def __init__(self, left: RDD, right: RDD):
        super().__init__(
            left.context,
            left.num_partitions + right.num_partitions,
            (left, right),
            "union",
        )

    def _compute_partition(self, index: int) -> list:
        left = self.parents[0]
        if index < left.num_partitions:
            return left.partition(index)
        return self.parents[1].partition(index - left.num_partitions)


class _Shuffled(RDD):
    """reduceByKey / groupByKey: every child partition reads every
    parent partition (the wide dependency)."""

    def __init__(self, parent: RDD, num_partitions: int, merge_fn, description):
        super().__init__(parent.context, num_partitions, (parent,), description)
        self.merge_fn = merge_fn

    def _compute_partition(self, index: int) -> list:
        # Group by the canonical key token (not Python ``==``): the MR
        # shuffle groups by the encoded Text key, so e.g. ``1`` and
        # ``1.0`` stay distinct groups on both backends.
        merged: dict[str, list] = {}
        parent = self.parents[0]
        for parent_index in range(parent.num_partitions):
            for key, value in parent.partition(parent_index):
                token = sort_token(key)
                if _hash_partition(key, self.num_partitions) != index:
                    continue
                entry = merged.get(token)
                if entry is None:
                    merged[token] = [key, value if self.merge_fn else [value]]
                elif self.merge_fn:
                    entry[1] = self.merge_fn(entry[1], value)
                else:
                    entry[1].append(value)
        # Tokens are injective, so sorting them reproduces exactly the
        # MR shuffle's key order — no tie-break needed.
        return [
            (entry[0], entry[1])
            for _token, entry in sorted(merged.items())
        ]


class _Joined(RDD):
    def __init__(self, left: RDD, right: RDD, num_partitions: int):
        super().__init__(left.context, num_partitions, (left, right), "join")

    def _compute_partition(self, index: int) -> list:
        # Match keys by canonical token (see _Shuffled): both backends
        # join exactly the keys whose encodings agree.
        left_values: dict[str, list] = {}
        for parent_index in range(self.parents[0].num_partitions):
            for key, value in self.parents[0].partition(parent_index):
                if _hash_partition(key, self.num_partitions) == index:
                    left_values.setdefault(sort_token(key), []).append(value)
        out = []
        for parent_index in range(self.parents[1].num_partitions):
            for key, value in self.parents[1].partition(parent_index):
                if _hash_partition(key, self.num_partitions) != index:
                    continue
                for left_value in left_values.get(sort_token(key), ()):
                    out.append((key, (left_value, value)))
        # Stable sort on the injective key encoding: pairs with equal
        # keys keep their (right-arrival x left-arrival) emission order,
        # matching the compiled join reducer's per-key loop exactly.
        return sorted(out, key=lambda kv: sort_token(kv[0]))
