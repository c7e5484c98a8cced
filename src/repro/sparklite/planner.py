"""Compile RDD lineage DAGs into MapReduce stages.

The Spark-to-MapReduce lowering, at teaching scale but with the real
structure:

- the DAG is **cut at wide dependencies** (``reduceByKey`` /
  ``groupByKey`` / ``join``); everything narrow between two cuts —
  ``map``, ``filter``, ``flatMap``, ``mapValues``, ``union`` — **fuses
  into the stage's Mapper** as a function chain applied per record;
- each wide node becomes one shuffle job whose reduce count is the
  RDD's partition count and whose partitioner is the engine's default
  ``HashPartitioner`` — which hashes exactly the bytes
  :func:`repro.sparklite.codec.encode_element` produces, so compiled
  and in-memory shuffles place every key identically;
- ``join`` compiles to a **tagged-union repartition join**: one job
  reads both parents' inputs, the mapper tags each value with its side
  (picked via ``Context.input_path``), the reducer buffers left values
  and streams the right side;
- ``cache()`` maps to an **HDFS-materialized intermediate**: the
  stage's output directory is kept and re-read by later actions
  (served by the PR 5 per-DataNode block cache), pruning the lineage
  below it from every subsequent plan;
- trailing narrow chains (an action on a non-wide RDD) run as an
  **order-preserving job**: the mapper keys each element with a
  ``(file, byte-offset, emission)`` hex token so the shuffle sort
  reconstructs exactly the partition-major element order the in-memory
  evaluator produces.

Bit-identity with the in-memory evaluator is the contract (the
differential property tests assert it):  element order out of every
action, fold order into every ``reduce_by_key``, value order in every
``group_by_key`` list, and pair order out of every ``join`` all match —
because the MR shuffle sorts stably on the same injective key encoding
the in-memory evaluator sorts by, and map outputs merge in task order
(= input-file order = parent-partition order).

No combiner is ever installed: ``reduce_by_key`` folds left in arrival
order exactly like the in-memory path, so even non-associative merge
functions produce identical results on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import C, perf_stats
from repro.mapreduce.types import NullWritable, Text
from repro.sparklite.codec import decode_element, encode_element
from repro.sparklite.rdd import (
    RDD,
    HdfsTextRDD,
    ParallelizedRDD,
    _Filtered,
    _Joined,
    _Mapped,
    _Shuffled,
    _Union,
)
from repro.util.errors import MapReduceError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sparklite.context import SparkLiteContext


# --------------------------------------------------------------------------
# stage inputs


@dataclass(frozen=True)
class _Source:
    """A materialized RDD: ordered HDFS files holding its elements.

    ``kind="raw"`` — plain text lines (a ``textFile`` source);
    ``kind="enc"`` — one canonically-encoded element per line (stage
    outputs, parallelized data, cached intermediates).
    """

    kind: str
    files: tuple[str, ...]


@dataclass(frozen=True)
class _InputSpec:
    """One fused input of a stage: files + the narrow chain to apply.

    ``side`` tags join inputs ("0" left, "1" right; "" otherwise);
    ``chain`` is the fused narrow pipeline, parent-first, as
    ``(op, fn)`` tuples with op in map/filter/flat_map/map_values.
    """

    files: tuple[str, ...]
    kind: str
    chain: tuple[tuple[str, Callable], ...]
    side: str = ""


def _apply_chain(chain, element) -> list:
    """Run one element through a fused narrow chain."""
    items = [element]
    for op, fn in chain:
        if op == "map":
            items = [fn(x) for x in items]
        elif op == "filter":
            items = [x for x in items if fn(x)]
        elif op == "flat_map":
            items = [y for x in items for y in fn(x)]
        else:  # map_values
            items = [(k, fn(v)) for k, v in items]
    return items


# --------------------------------------------------------------------------
# the generated tasks.  All classes are module-level and configured
# through ``JobConf.params`` so jobs pickle by reference — pooled
# backends can ship them to workers whenever the chain functions
# themselves are picklable (module-level functions; lambdas fall back
# to inline execution, still bit-identical).


class _StageMapperBase(Mapper):
    """Decode + fuse: picks this split's input spec by ``input_path``."""

    def setup(self, context: Context) -> None:
        path = context.input_path
        self._spec = None
        for spec in context.get("sl_inputs", ()):
            if path in spec.files:
                self._spec = spec
                break
        if self._spec is None:
            raise MapReduceError(f"no sparklite input spec covers {path!r}")

    def _elements(self, value) -> list:
        line = value.value
        element = line if self._spec.kind == "raw" else decode_element(line)
        return _apply_chain(self._spec.chain, element)


class _ShuffleMapper(_StageMapperBase):
    """Emit (encoded key, encoded value) for the wide dependency."""

    def map(self, key, value, context: Context) -> None:
        for k, v in self._elements(value):
            context.write(Text(encode_element(k)), Text(encode_element(v)))


class _JoinMapper(_StageMapperBase):
    """Tagged-union join map side: prefix each value with its side."""

    def map(self, key, value, context: Context) -> None:
        side = self._spec.side
        for k, v in self._elements(value):
            context.write(Text(encode_element(k)), Text(side + encode_element(v)))


class _OrderedMapper(_StageMapperBase):
    """Order-preserving narrow stage: key = (file, offset, emission).

    The fixed-width hex token sorts lexicographically in exactly input
    order, so the (single) reduce re-emits elements in the original
    partition-major sequence — a total-order-preserving shuffle.
    """

    def setup(self, context: Context) -> None:
        super().setup(context)
        order = context.get("sl_file_order", ())
        self._file_index = order.index(context.input_path)

    def map(self, key, value, context: Context) -> None:
        for sub, element in enumerate(self._elements(value)):
            token = f"{self._file_index:08x}{key.value:016x}{sub:08x}"
            context.write(Text(token), Text(encode_element(element)))


class _FoldReducer(Reducer):
    """``reduce_by_key``: left-fold values in arrival order.

    Arrival order is (map task, emission) = (parent partition,
    position) — the same order the in-memory evaluator folds in, so
    non-associative merge functions still agree bit-for-bit.
    """

    def setup(self, context: Context) -> None:
        self._fn = context.get("sl_merge_fn")

    def reduce(self, key, values, context: Context) -> None:
        fn = self._fn
        acc = None
        seen = False
        for value in values:
            item = decode_element(value.value)
            if not seen:
                acc, seen = item, True
            else:
                acc = fn(acc, item)
        context.write(
            NullWritable(),
            Text(encode_element((decode_element(key.value), acc))),
        )


class _GroupReducer(Reducer):
    """``group_by_key``: values in arrival order, as one list."""

    def reduce(self, key, values, context: Context) -> None:
        items = [decode_element(v.value) for v in values]
        context.write(
            NullWritable(),
            Text(encode_element((decode_element(key.value), items))),
        )


class _JoinReducer(Reducer):
    """Buffer left values, stream the right side (repartition join)."""

    def reduce(self, key, values, context: Context) -> None:
        lefts: list = []
        rights: list = []
        for value in values:
            text = value.value
            (lefts if text[0] == "0" else rights).append(
                decode_element(text[1:])
            )
        if not lefts or not rights:
            return
        decoded_key = decode_element(key.value)
        for right in rights:
            for left in lefts:
                context.write(
                    NullWritable(),
                    Text(encode_element((decoded_key, (left, right)))),
                )


class _OrderedReducer(Reducer):
    """Drop the order token; emit elements in token (= input) order."""

    def reduce(self, key, values, context: Context) -> None:
        for value in values:
            context.write(NullWritable(), Text(value.value))


class ReduceByKeyStageJob(Job):
    mapper = _ShuffleMapper
    reducer = _FoldReducer


class GroupByKeyStageJob(Job):
    mapper = _ShuffleMapper
    reducer = _GroupReducer


class JoinStageJob(Job):
    mapper = _JoinMapper
    reducer = _JoinReducer


class MaterializeStageJob(Job):
    mapper = _OrderedMapper
    reducer = _OrderedReducer


#: Counters worth surfacing per stage in plan rollups.
_STAGE_COUNTERS = (
    C.MAP_INPUT_RECORDS,
    C.MAP_OUTPUT_RECORDS,
    C.REDUCE_OUTPUT_RECORDS,
    C.SPILLED_RECORDS,
    C.HDFS_BYTES_READ,
    C.HDFS_BYTES_WRITTEN,
)


class CompiledRunner:
    """Plans and runs one context's actions as MapReduce stages."""

    def __init__(self, context: "SparkLiteContext"):
        if context.cluster is None:
            raise ReproError("compiled sparklite needs a MapReduceCluster")
        self.context = context
        self.cluster = context.cluster
        self._client = self.cluster._output_client(None)
        self._seq = 0
        #: rdd_id -> materialized source, persistent across actions
        #: (``cache()``-ed RDDs and parallelized driver data).
        self._cached: dict[int, _Source] = {}
        self._cached_dirs: dict[int, list[str]] = {}
        #: rdd_id -> source for the *current* action (diamond reuse).
        self._memo: dict[int, _Source] = {}
        self._temp: list[str] = []
        #: Per-stage rollups of the most recent action.
        self.last_plan: list[dict] = []
        #: Full JobReport of the most recent stage (chaos drills and
        #: benchmarks assert on its counters).
        self.last_report = None
        #: Lifetime tallies: stages compiled, jobs run, cache hits.
        self.stages_run = 0
        self.jobs_run = 0
        self.cache_hits = 0

    # -- the action entry point -----------------------------------------
    def collect(self, rdd: RDD) -> list:
        """Compile + run the lineage below ``rdd``; return its elements
        in exactly the order ``RDD.collect`` produces in-memory."""
        self._memo = {}
        self._temp = []
        self.last_plan = []
        try:
            source = self._compile(rdd)
            return self._read(source)
        finally:
            self._cleanup()

    def evict(self, rdd_id: int) -> None:
        """Forget (and delete) a cached materialization (unpersist)."""
        self._cached.pop(rdd_id, None)
        for path in self._cached_dirs.pop(rdd_id, ()):
            self._client.delete(path, recursive=True)

    # -- compilation -----------------------------------------------------
    def _compile(self, rdd: RDD) -> _Source:
        """Materialize ``rdd``: run every stage below it, return where
        its elements now live."""
        if rdd.rdd_id in self._memo:
            return self._memo[rdd.rdd_id]
        if rdd.rdd_id in self._cached:
            self.cache_hits += 1
            return self._cached[rdd.rdd_id]
        produced_dirs: list[str] = []
        if isinstance(rdd, ParallelizedRDD):
            source = self._write_parallelized(rdd)
        elif isinstance(rdd, HdfsTextRDD):
            source = self._text_source(rdd)
        elif isinstance(rdd, _Shuffled):
            source, produced_dirs = self._run_shuffle(rdd)
        elif isinstance(rdd, _Joined):
            source, produced_dirs = self._run_join(rdd)
        else:  # narrow or union root / cached narrow node
            source, produced_dirs = self._run_materialize(rdd)
        self._memo[rdd.rdd_id] = source
        if rdd.cached or isinstance(rdd, ParallelizedRDD):
            # Promote to a persistent HDFS materialization: later
            # actions read it (through the block cache) instead of
            # recomputing the lineage below — Spark's cache(), with
            # HDFS as the storage level.  Parallelized driver data is
            # pinned too: it exists nowhere else.
            self._cached[rdd.rdd_id] = source
            self._cached_dirs[rdd.rdd_id] = produced_dirs
            for path in produced_dirs:
                if path in self._temp:
                    self._temp.remove(path)
        return source

    def _gather(
        self, rdd: RDD, chain: tuple
    ) -> list[tuple[_Source, tuple]]:
        """Walk down from a stage boundary, fusing narrow ops, until
        every branch bottoms out at a materialized source."""
        if (
            rdd.rdd_id in self._memo
            or rdd.rdd_id in self._cached
            or rdd.cached
            or isinstance(
                rdd, (ParallelizedRDD, HdfsTextRDD, _Shuffled, _Joined)
            )
        ):
            return [(self._compile(rdd), chain)]
        if isinstance(rdd, _Union):
            return self._gather(rdd.parents[0], chain) + self._gather(
                rdd.parents[1], chain
            )
        return self._gather(rdd.parents[0], (_op_of(rdd),) + chain)

    def _decompose(self, rdd: RDD) -> list[tuple[_Source, tuple]]:
        """Like ``_gather`` but for the stage's own root node (so a
        ``cached`` flag on it doesn't recurse into ``_compile``)."""
        if isinstance(rdd, _Union):
            return self._gather(rdd.parents[0], ()) + self._gather(
                rdd.parents[1], ()
            )
        return self._gather(rdd.parents[0], (_op_of(rdd),))

    # -- stage execution -------------------------------------------------
    def _run_shuffle(self, rdd: _Shuffled) -> tuple[_Source, list[str]]:
        parts = self._gather(rdd.parents[0], ())
        specs, files = self._specs(parts)
        if not files:
            return _Source("enc", ()), []
        job_cls = (
            ReduceByKeyStageJob if rdd.merge_fn is not None else GroupByKeyStageJob
        )
        job = job_cls(
            conf=JobConf(
                name=f"sparklite-{rdd.description}-{rdd.rdd_id}",
                user="sparklite",
                num_reduces=rdd.num_partitions,
            ),
            sl_inputs=specs,
            sl_merge_fn=rdd.merge_fn,
        )
        out = self._next_dir(rdd.description, rdd.rdd_id)
        self._run_job(job, files, out, stage=rdd.description)
        return self._dir_source(out), [out]

    def _run_join(self, rdd: _Joined) -> tuple[_Source, list[str]]:
        left = self._gather(rdd.parents[0], ())
        right = self._gather(rdd.parents[1], ())
        if not any(s.files for s, _c in left) or not any(
            s.files for s, _c in right
        ):
            return _Source("enc", ()), []
        specs, files = self._specs(left, side="0", more=right, more_side="1")
        job = JoinStageJob(
            conf=JobConf(
                name=f"sparklite-join-{rdd.rdd_id}",
                user="sparklite",
                num_reduces=rdd.num_partitions,
            ),
            sl_inputs=specs,
        )
        out = self._next_dir("join", rdd.rdd_id)
        self._run_job(job, files, out, stage="join")
        return self._dir_source(out), [out]

    def _run_materialize(self, rdd: RDD) -> tuple[_Source, list[str]]:
        parts = self._decompose(rdd)
        return self._materialize_parts(
            parts, label=rdd.description, rdd_id=rdd.rdd_id
        )

    def _materialize_parts(
        self, parts, label: str, rdd_id: int
    ) -> tuple[_Source, list[str]]:
        specs, files = self._specs(parts, ordered=True)
        if not files:
            return _Source("enc", ()), []
        job = MaterializeStageJob(
            conf=JobConf(
                name=f"sparklite-{label}-{rdd_id}",
                user="sparklite",
                num_reduces=1,
            ),
            sl_inputs=specs,
            sl_file_order=files,
        )
        out = self._next_dir(label, rdd_id)
        self._run_job(job, list(files), out, stage=label)
        return self._dir_source(out), [out]

    def _specs(
        self, parts, side: str = "", more=None, more_side: str = "",
        ordered: bool = False,
    ) -> tuple[tuple[_InputSpec, ...], tuple[str, ...]]:
        """Turn gathered (source, chain) branches into input specs.

        A file claimed twice with *different* (side, chain) — or at all,
        for order-token stages — cannot be disambiguated inside the
        mapper, so the later branch is pre-materialized into its own
        directory first.  (The common duplicate, a self-union with one
        identical chain, just lists the file twice: two splits, two
        passes, exactly the in-memory union semantics.)
        """
        tagged = [(s, c, side) for s, c in parts]
        if more is not None:
            tagged += [(s, c, more_side) for s, c in more]
        specs: list[_InputSpec] = []
        files: list[str] = []
        claimed: dict[str, tuple] = {}
        for index, (source, chain, tag) in enumerate(tagged):
            if not source.files:
                continue
            key = (tag, chain)
            conflict = any(
                f in claimed and (claimed[f] != key or ordered)
                for f in source.files
            )
            if conflict:
                source, dirs = self._materialize_parts(
                    [(source, chain)], label="branch", rdd_id=index
                )
                chain = ()
                key = (tag, chain)
                if not source.files:
                    continue
            for f in source.files:
                claimed.setdefault(f, key)
            specs.append(
                _InputSpec(
                    files=source.files, kind=source.kind, chain=chain, side=tag
                )
            )
            files.extend(source.files)
        return tuple(specs), tuple(files)

    def _run_job(self, job: Job, files, out: str, stage: str) -> None:
        perf = perf_stats()
        before = perf.snapshot()
        report = self.cluster.run_job(job, list(files), out, require_success=True)
        self._temp.append(out)
        self.last_report = report
        self.jobs_run += 1
        self.stages_run += 1
        counters = {
            name: report.counters.get((group, name))
            for group, name in _STAGE_COUNTERS
        }
        self.last_plan.append(
            {
                "stage": stage,
                "job": job.name,
                "counters": counters,
                "perf": perf.delta_since(before),
            }
        )

    # -- sources ---------------------------------------------------------
    def _write_parallelized(self, rdd: ParallelizedRDD) -> _Source:
        base = f"/tmp/sparklite/data_{rdd.rdd_id}"
        files = []
        for index, slice_ in enumerate(rdd._slices):
            if not slice_:
                continue
            path = f"{base}/part-{index:05d}"
            text = "\n".join(encode_element(item) for item in slice_) + "\n"
            self._client.put_text(path, text, overwrite=True)
            files.append(path)
        # Always registered persistent via _compile (driver data lives
        # nowhere else); record the directory for evict().
        self._cached_dirs.setdefault(rdd.rdd_id, []).append(base)
        return _Source("enc", tuple(files))

    def _text_source(self, rdd: HdfsTextRDD) -> _Source:
        lengths, _locations = self.context.fetcher.block_layout(rdd.path)
        if not lengths or not sum(lengths):
            return _Source("raw", ())
        return _Source("raw", (rdd.path,))

    def _dir_source(self, out: str) -> _Source:
        files = tuple(
            status.path
            for status in self._client.list_status(out)
            if not status.is_dir
            and status.path.rsplit("/", 1)[-1].startswith("part-")
            and status.length > 0
        )
        return _Source("enc", files)

    def _next_dir(self, label: str, rdd_id: int) -> str:
        self._seq += 1
        safe = "".join(ch if ch.isalnum() else "_" for ch in label)
        return f"/tmp/sparklite/stage_{self._seq:05d}_{safe}_{rdd_id}"

    # -- reading results -------------------------------------------------
    def _read(self, source: _Source) -> list:
        out: list = []
        for path in source.files:
            text = self._client.read_text(path)
            lines = text.split("\n")
            if lines and lines[-1] == "":
                lines.pop()
            if source.kind == "raw":
                out.extend(lines)
            else:
                out.extend(decode_element(line) for line in lines)
        return out

    def _cleanup(self) -> None:
        for path in self._temp:
            self._client.delete(path, recursive=True)
        self._temp = []


def _op_of(rdd: RDD) -> tuple[str, Callable]:
    if isinstance(rdd, _Mapped):
        return (rdd.kind, rdd.fn)
    if isinstance(rdd, _Filtered):
        return ("filter", rdd.predicate)
    raise ReproError(f"not a fusable narrow op: {rdd.description}")
