"""In-memory span tracer for the benchmark's traced pass.

Spans are recorded from this package only: :meth:`Tracer.install`
swaps timing wrappers over the *public* callables named in
:data:`TRACE_TABLE` (one coarse call per task, RPC, job or engine run —
never per record), the workloads add their own spans around client
operations, and :meth:`Tracer.restore` puts every patched attribute
back.  End-to-end metrics never come from a traced repetition.

A span is ``[name, start, end, parent_index]``; its *self time* is its
duration minus the part of that interval its child spans cover.  The
process is single-threaded, so children nest properly and that part is
the sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

_clock = time.perf_counter

#: span name -> public callable (``module:qualname``) timed under it.
#: Several callables may share a name; the per-layer metrics are sums
#: over a name.  Per-record functions (``Mapper.map``, ``Context.write``,
#: ``Simulation.step``) are deliberately absent: they are attributed as
#: the enclosing span's self time.  So are generators (``read_records``,
#: ``external_sorted``): a wrapper would time their creation, not their
#: work.
TRACE_TABLE: tuple[tuple[str, str], ...] = (
    # mapreduce — task path
    ("mapreduce.map", "repro.mapreduce.runtime:execute_map"),
    ("mapreduce.reduce", "repro.mapreduce.runtime:execute_reduce"),
    ("mapreduce.sort", "repro.mapreduce.shuffle:sort_pairs"),
    ("mapreduce.partition", "repro.mapreduce.shuffle:partition_pairs"),
    ("mapreduce.combine", "repro.mapreduce.shuffle:run_combiner"),
    ("mapreduce.shuffle.merge", "repro.mapreduce.shuffle:merge_for_reduce"),
    (
        "mapreduce.shuffle.merge",
        "repro.mapreduce.shuffle:framed_merge_for_reduce",
    ),
    (
        "mapreduce.output.render",
        "repro.mapreduce.outputformat:TextOutputFormat.render",
    ),
    (
        "mapreduce.output.parse",
        "repro.mapreduce.outputformat:TextOutputFormat.parse",
    ),
    # mapreduce — host-parallel backend (parent side)
    (
        "mapreduce.backend.submit",
        "repro.mapreduce.backend:PooledExecutionBackend.submit",
    ),
    (
        "mapreduce.backend.wait",
        "repro.mapreduce.backend:PooledExecutionBackend.join_all",
    ),
    # mapreduce — control plane
    (
        "mapreduce.jobtracker.heartbeat",
        "repro.mapreduce.jobtracker:JobTracker.heartbeat",
    ),
    (
        "mapreduce.jobtracker.submit",
        "repro.mapreduce.jobtracker:JobTracker.submit_job",
    ),
    (
        "mapreduce.jobtracker.task_completed",
        "repro.mapreduce.jobtracker:JobTracker.task_completed",
    ),
    ("mapreduce.cluster.run_job", "repro.mapreduce.cluster:MapReduceCluster.run_job"),
    # sim
    ("sim.run", "repro.sim.engine:Simulation.run"),
    ("sim.run", "repro.sim.engine:Simulation.run_until"),
    ("sim.run", "repro.sim.engine:Simulation.run_for"),
    # hdfs
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.create_file"),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.add_block"),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.complete_file"),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.get_block_locations"),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.rename"),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.delete"),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.list_status"),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.heartbeat"),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode.process_block_report"),
    ("hdfs.journal.log", "repro.hdfs.journal:NameNodeJournal.log_mkdirs"),
    ("hdfs.journal.log", "repro.hdfs.journal:NameNodeJournal.log_create"),
    ("hdfs.journal.log", "repro.hdfs.journal:NameNodeJournal.log_add_block"),
    ("hdfs.journal.log", "repro.hdfs.journal:NameNodeJournal.log_abandon_block"),
    ("hdfs.journal.log", "repro.hdfs.journal:NameNodeJournal.log_complete"),
    ("hdfs.journal.log", "repro.hdfs.journal:NameNodeJournal.log_delete"),
    ("hdfs.journal.log", "repro.hdfs.journal:NameNodeJournal.log_rename"),
    ("hdfs.journal.checkpoint", "repro.hdfs.journal:NameNodeJournal.checkpoint"),
    ("hdfs.journal.recover", "repro.hdfs.journal:NameNodeJournal.recover"),
    ("hdfs.datanode.write", "repro.hdfs.datanode:DataNode.write_block"),
    ("hdfs.datanode.read", "repro.hdfs.datanode:DataNode.read_block"),
    ("hdfs.datanode.read", "repro.hdfs.datanode:DataNode.read_block_range"),
    ("hdfs.blockio.read_block", "repro.mapreduce.blockio:BlockFetcher.read_block"),
    ("hdfs.fsck", "repro.hdfs.fsck:fsck"),
    # front ends and the campus driver
    ("sparklite.action", "repro.sparklite.planner:CompiledRunner.collect"),
    ("hive.execute", "repro.hive.engine:HiveLite.execute"),
    ("core.campus", "repro.core.campus:CampusClusterRun.run_to_completion"),
    # datasets (set-up side)
    (
        "datasets.generate",
        "repro.datasets.zipf_text:ZipfTextGenerator.text_of_bytes",
    ),
    ("datasets.generate", "repro.datasets.movielens:generate_movielens"),
    ("datasets.generate", "repro.jobs.pagerank:generate_web_graph"),
)

#: Spans whose return values the tracer keeps (``Tracer.kept``): the
#: ``RunningJob`` handles are how the traced pass reads every job's
#: counters, whichever cluster ran them.
KEEP_RESULTS = frozenset({"mapreduce.jobtracker.submit"})


class _NullSpan:
    """The untraced stand-in for :meth:`Tracer.span`: costs two calls."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def null_span(name: str) -> _NullSpan:
    """``span`` factory for untraced repetitions."""
    return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.index = self.tracer._open(self.name)

    def __exit__(self, *exc_info) -> bool:
        self.tracer._close(self.index)
        return False


class Tracer:
    """Records spans in memory; installs and restores the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self._stack: list[int] = []
        #: (owner, attribute, original) for every attribute replaced.
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        stack = self._stack
        self.spans.append([name, _clock(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _clock()

    def span(self, name: str) -> _Span:
        """Context manager recording one span around the ``with`` body."""
        return _Span(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        open_span, close_span = self._open, self._close
        keep = self.kept.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start afresh.

        Only meaningful between repetitions (no span open).
        """
        taken = list(self.spans)
        self.spans.clear()
        return taken

    # -- patching ---------------------------------------------------------
    def install(self, table: Iterable[tuple[str, str]] = TRACE_TABLE) -> None:
        """Replace every callable in ``table`` with its timing wrapper.

        A module-level function is also replaced wherever another loaded
        module of the repo or of this package imported it by name
        (``from x import f`` binds a second reference the owner module's
        attribute does not reach).
        """
        for name, target in table:
            owner, attribute = _resolve(target)
            original = vars(owner)[attribute]
            if isinstance(original, staticmethod):
                wrapper = staticmethod(self.wrap(name, original.__func__))
            elif isinstance(original, classmethod):
                wrapper = classmethod(self.wrap(name, original.__func__))
            else:
                wrapper = self.wrap(name, original)
            self._patch(owner, attribute, original, wrapper)
            if isinstance(owner, type(sys)):  # module-level function
                for module in _patchable_modules():
                    if module is owner:
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, original, wrapper)

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def _resolve(target: str) -> tuple[object, str]:
    """``"module:Class.method"`` -> (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attribute = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _patchable_modules() -> list:
    """Loaded modules that may hold a by-name import of a traced function."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and name.startswith(("repro.", "benchmarks.perf.workloads."))
    ]


# --------------------------------------------------------------------------
# span arithmetic


@dataclass
class SpanStats:
    """Everything the per-layer metrics need about one span name."""

    count: int = 0
    #: Sum of durations (nested same-name spans counted each time).
    total_s: float = 0.0
    #: Sum of self times: duration minus direct children.
    self_s: float = 0.0
    #: Sum of durations of spans with no same-name ancestor.
    outermost_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, by index."""
    selfs = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def ancestor_names(spans: list[list]) -> list[frozenset]:
    """The set of span names above every span, by index.

    Siblings share one set object, so this is one small set per span
    that has children, not one per span.
    """
    above: list[frozenset] = []
    for_children: dict[int, frozenset] = {-1: frozenset()}
    for _name, _start, _end, parent in spans:
        names = for_children.get(parent)
        if names is None:
            names = for_children[parent] = above[parent] | {spans[parent][0]}
        above.append(names)
    return above


def summarize(spans: list[list], under: str | None = None) -> dict[str, SpanStats]:
    """Per-name :class:`SpanStats`; ``under`` keeps only spans that have
    an ancestor of that name."""
    stats: dict[str, SpanStats] = {}
    if under is not None and not any(span[0] == under for span in spans):
        return stats
    selfs = self_times(spans)
    above = ancestor_names(spans)
    for index, (name, start, end, _parent) in enumerate(spans):
        names_above = above[index]
        if under is not None and under not in names_above:
            continue
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = SpanStats()
        duration = end - start
        entry.count += 1
        entry.total_s += duration
        entry.self_s += selfs[index]
        entry.durations.append(duration)
        if name not in names_above:
            entry.outermost_s += duration
    return stats


def write_trace(path: Path, workload: str, spans: list[list], extra: dict) -> None:
    """Write one repetition's spans and their per-name summary.

    Spans are stored compactly as ``[name_index, start_us, duration_us,
    parent_index]`` with times relative to the first span.
    """
    names = sorted({span[0] for span in spans})
    name_index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    summary = {
        name: {
            "count": entry.count,
            "total_s": entry.total_s,
            "self_s": entry.self_s,
            "outermost_s": entry.outermost_s,
        }
        for name, entry in sorted(summarize(spans).items())
    }
    payload = {
        "workload": workload,
        **extra,
        "summary": summary,
        "names": names,
        "span_fields": ["name_index", "start_us", "duration_us", "parent_index"],
        "spans": [
            [
                name_index[name],
                round((start - origin) * 1e6, 1),
                round((end - start) * 1e6, 1),
                parent,
            ]
            for name, start, end, parent in spans
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
