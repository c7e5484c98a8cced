"""The driver context: executors, caches, and lineage recovery.

Cached partitions live in per-executor memory, assigned round-robin by
partition index.  ``crash_executor`` wipes one executor's cache — and
the next action transparently recomputes exactly the lost partitions
through the lineage, which the ``recomputations`` counter makes
observable (the number Spark's resilience story is about).

Two execution backends share one API, chosen by how the context is
built:

- local (no ``cluster``) — the in-process recursive evaluator;
- compiled (built with a ``cluster``) — actions compile the lineage DAG
  into MapReduce stages (``repro.sparklite.planner``) that run on the
  attached :class:`~repro.mapreduce.cluster.MapReduceCluster`, riding
  the framed/shm shuffle, auto backend and HDFS block cache.  The two produce bit-identical results (property-tested).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.hdfs.cluster import HdfsCluster
from repro.mapreduce.blockio import BlockFetcher
from repro.sparklite.rdd import HdfsTextRDD, ParallelizedRDD, RDD
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.cluster import MapReduceCluster
    from repro.sparklite.planner import CompiledRunner


@dataclass
class Executor:
    """One worker process: a name and a partition cache."""

    name: str
    alive: bool = True
    cache: dict[tuple[int, int], list] = field(default_factory=dict)

    @property
    def cached_partitions(self) -> int:
        return len(self.cache)


class SparkLiteContext:
    """The driver: builds RDDs, owns executors, runs actions."""

    def __init__(
        self,
        executor_names: list[str],
        hdfs: HdfsCluster | None = None,
        cluster: "MapReduceCluster | None" = None,
    ):
        if not executor_names:
            raise ReproError("need at least one executor")
        if cluster is not None:
            if hdfs is not None and hdfs is not cluster.hdfs:
                raise ReproError(
                    "hdfs and cluster.hdfs must be the same cluster"
                )
            hdfs = cluster.hdfs
        self.executors = {name: Executor(name) for name in executor_names}
        self.hdfs = hdfs
        self.cluster = cluster
        self.fetcher = (
            BlockFetcher(
                namenode=hdfs.namenode,
                dn_lookup=hdfs.datanode,
                network=hdfs.network,
            )
            if hdfs is not None
            else None
        )
        #: Context-owned lineage id counter (reproducible run-to-run).
        self._rdd_ids = itertools.count(1)
        self._runner: "CompiledRunner | None" = None
        #: Partitions recomputed because their cache was lost/absent of a
        #: cached RDD (the resilience observable).
        self.recomputations = 0
        #: Partitions served straight from executor memory.
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    def _compiled_runner(self) -> "CompiledRunner | None":
        """The compiled-stage runner, or None on a local context."""
        if self.cluster is None:
            return None
        if self._runner is None:
            from repro.sparklite.planner import CompiledRunner

            self._runner = CompiledRunner(self)
        return self._runner

    @property
    def last_plan(self) -> list[dict]:
        """Per-stage rollups of the most recent compiled action:
        one dict per stage with the job name, counters of interest and
        the host-side PerfStats delta (framed/shm bytes and timings)."""
        if self._runner is None:
            return []
        return self._runner.last_plan

    # ------------------------------------------------------------------
    @classmethod
    def local(cls, num_executors: int = 2) -> "SparkLiteContext":
        """A context with in-process executors and no HDFS."""
        return cls([f"executor{i}" for i in range(num_executors)])

    @classmethod
    def on_cluster(cls, hdfs: HdfsCluster) -> "SparkLiteContext":
        """Executors co-located with the HDFS DataNodes."""
        names = [node.name for node in hdfs.topology.nodes()]
        return cls(names, hdfs=hdfs)

    @classmethod
    def on_mapreduce(
        cls,
        cluster: "MapReduceCluster | None" = None,
        num_workers: int = 4,
        seed: int = 1,
        mr_config=None,
    ) -> "SparkLiteContext":
        """A compiled context: actions run as MapReduce stages.

        With no ``cluster``, builds one whose defaults are the fast
        path: the ``auto`` backend picks serial vs pooled per stage,
        the framed wire transport carries the shuffle, and the PR 5
        block cache serves re-read intermediates.
        """
        if cluster is None:
            from repro.mapreduce.backend import create_backend
            from repro.mapreduce.cluster import MapReduceCluster

            cluster = MapReduceCluster(
                num_workers=num_workers,
                seed=seed,
                mr_config=mr_config,
                backend=create_backend("auto"),
            )
        names = [node.name for node in cluster.hdfs.topology.nodes()]
        return cls(names, cluster=cluster)

    # ------------------------------------------------------------------
    # RDD construction
    def parallelize(self, data: Iterable, num_partitions: int = 2) -> RDD:
        return ParallelizedRDD(self, data, num_partitions)

    def text_file(self, path: str) -> RDD:
        return HdfsTextRDD(self, path)

    # ------------------------------------------------------------------
    # executor management
    def _executor_for(self, rdd: RDD, index: int) -> Executor:
        live = [e for e in self.executors.values() if e.alive]
        if not live:
            raise ReproError("no live executors")
        return live[index % len(live)]

    def crash_executor(self, name: str) -> int:
        """Kill one executor; returns how many cached partitions died."""
        executor = self.executors[name]
        lost = executor.cached_partitions
        executor.cache.clear()
        executor.alive = False
        return lost

    def restart_executor(self, name: str) -> None:
        self.executors[name].alive = True

    def total_cached(self) -> int:
        return sum(e.cached_partitions for e in self.executors.values())

    # ------------------------------------------------------------------
    # materialization with cache + lineage recovery
    def _materialize(self, rdd: RDD, index: int) -> list:
        if not rdd.cached:
            return rdd._compute_partition(index)
        executor = self._executor_for(rdd, index)
        key = (rdd.rdd_id, index)
        if key in executor.cache:
            self.cache_hits += 1
            return executor.cache[key]
        # Cache miss: either first touch or the executor that held it
        # died.  Either way the lineage rebuilds it.
        self.recomputations += 1
        data = rdd._compute_partition(index)
        executor.cache[key] = data
        return data

    def _evict(self, rdd: RDD) -> None:
        for executor in self.executors.values():
            for key in [k for k in executor.cache if k[0] == rdd.rdd_id]:
                del executor.cache[key]
        if self._runner is not None:
            self._runner.evict(rdd.rdd_id)
