"""Job counters — the "final MapReduce job report" the course reads.

The combiner lecture has students observe "the tradeoff between
increased map task run time ... versus reduced network traffic (observed
through final MapReduce job report)"; these counters are that report.
Names follow Hadoop 1.x so the output reads like the real thing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field, fields


class C:
    """Standard counter names (group, name), Hadoop-1 style."""

    MAP_INPUT_RECORDS = ("Map-Reduce Framework", "Map input records")
    MAP_OUTPUT_RECORDS = ("Map-Reduce Framework", "Map output records")
    MAP_OUTPUT_BYTES = ("Map-Reduce Framework", "Map output bytes")
    COMBINE_INPUT_RECORDS = ("Map-Reduce Framework", "Combine input records")
    COMBINE_OUTPUT_RECORDS = ("Map-Reduce Framework", "Combine output records")
    REDUCE_INPUT_GROUPS = ("Map-Reduce Framework", "Reduce input groups")
    REDUCE_INPUT_RECORDS = ("Map-Reduce Framework", "Reduce input records")
    REDUCE_OUTPUT_RECORDS = ("Map-Reduce Framework", "Reduce output records")
    REDUCE_SHUFFLE_BYTES = ("Map-Reduce Framework", "Reduce shuffle bytes")
    SPILLED_RECORDS = ("Map-Reduce Framework", "Spilled Records")

    HDFS_BYTES_READ = ("FileSystemCounters", "HDFS_BYTES_READ")
    HDFS_BYTES_WRITTEN = ("FileSystemCounters", "HDFS_BYTES_WRITTEN")
    FILE_BYTES_READ = ("FileSystemCounters", "FILE_BYTES_READ")
    FILE_BYTES_WRITTEN = ("FileSystemCounters", "FILE_BYTES_WRITTEN")

    # Runtime-sanitizer violations (MapReduceConfig.sanitize=True); zero
    # on a clean run, so the group is absent unless something is wrong.
    SANITIZER_INPUT_MUTATIONS = ("Sanitizer", "Input mutations")
    SANITIZER_EMIT_ALIASING = ("Sanitizer", "Emitted-object aliasing")
    SANITIZER_COMBINER_VIOLATIONS = ("Sanitizer", "Combiner contract violations")

    TOTAL_LAUNCHED_MAPS = ("Job Counters", "Launched map tasks")
    TOTAL_LAUNCHED_REDUCES = ("Job Counters", "Launched reduce tasks")
    DATA_LOCAL_MAPS = ("Job Counters", "Data-local map tasks")
    RACK_LOCAL_MAPS = ("Job Counters", "Rack-local map tasks")
    OFF_RACK_MAPS = ("Job Counters", "Off-rack map tasks")
    FAILED_MAPS = ("Job Counters", "Failed map tasks")
    FAILED_REDUCES = ("Job Counters", "Failed reduce tasks")
    KILLED_SPECULATIVE = ("Job Counters", "Killed speculative attempts")


def _group_counters() -> defaultdict:
    """One counter group.  Module-level so Counters instances pickle
    (a ``defaultdict`` pickles its factory by reference), which pooled
    execution backends rely on to ship task results between processes.
    """
    return defaultdict(int)


@dataclass
class Counters:
    """Hierarchical ``group -> name -> int`` counters."""

    _data: dict[str, dict[str, int]] = field(
        default_factory=lambda: defaultdict(_group_counters)
    )

    def increment(self, counter: tuple[str, str], amount: int = 1) -> None:
        group, name = counter
        self._data[group][name] += amount

    def get(self, counter: tuple[str, str]) -> int:
        group, name = counter
        return self._data.get(group, {}).get(name, 0)

    def set(self, counter: tuple[str, str], value: int) -> None:
        group, name = counter
        self._data[group][name] = value

    def groups(self) -> list[str]:
        return sorted(self._data)

    def items(self, group: str) -> list[tuple[str, int]]:
        return sorted(self._data.get(group, {}).items())

    def merge(self, other: "Counters") -> None:
        for group, names in other._data.items():
            for name, value in names.items():
                self._data[group][name] += value

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {g: dict(ns) for g, ns in self._data.items()}

    def render(self) -> str:
        """Render like the tail of a ``hadoop jar`` run."""
        lines = ["Counters:"]
        for group in self.groups():
            lines.append(f"  {group}")
            for name, value in self.items(group):
                lines.append(f"    {name}={value}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Host-side performance attribution (NOT part of the job report).
#
# These numbers measure where *host wall-clock* goes in the framed
# shuffle transport (serialize, decode, merge) so the benchmark can
# attribute its speedup.  They are deliberately kept outside
# :class:`Counters`: job counters are part of the deterministic,
# bit-identical-across-backends contract, and wall-clock timings (and
# transport-specific byte tallies) would break both the run-to-run and
# the framed-vs-object equality the property tests assert.


def _perf_clock() -> float:
    """Host wall-clock for PerfStats attribution.

    The sole sanctioned wall-clock read in this package: values feed
    host-side profiling output only, never simulated time, counters, or
    any other deterministic state.
    """
    return time.perf_counter()  # repro: lint-ok[MRE102] host-side profiling; result never reaches simulated state


@dataclass
class PerfStats:
    """Per-stage host timings and byte tallies for the shuffle transport.

    ``Perf.map_serialize_ms`` / ``shuffle_decode_ms`` / ``merge_ms`` are
    the stage breakdown the benchmark's traced pass reports.
    """

    #: Framing map output partitions into wire blobs (worker-side).
    map_serialize_ms: float = 0.0
    #: Framing reduce output for the trip back (worker-side).
    reduce_serialize_ms: float = 0.0
    #: Decoding fetched map-output blobs on the reduce side.
    shuffle_decode_ms: float = 0.0
    #: K-way merging the decoded (pre-sorted) per-map streams.
    merge_ms: float = 0.0
    #: Total wire-blob bytes produced by the codec.
    bytes_framed: int = 0
    #: Blobs encoded / decoded.
    blobs_encoded: int = 0
    blobs_decoded: int = 0
    #: Map outputs that could not be framed and shipped in object form.
    frame_fallbacks: int = 0
    #: Shuffle-plane shared memory: bytes published into segments.
    shm_bytes: int = 0
    #: Segments created (one per published map output).
    segments_created: int = 0
    #: First-time attaches (per process; cache hits don't count).
    segments_attached: int = 0
    #: Blob bytes decoded straight from a shared view instead of being
    #: pickled/copied across the pool — the zero-copy win.
    copy_avoided_bytes: int = 0

    def merge(self, other: "PerfStats | dict") -> None:
        data = other.as_dict() if isinstance(other, PerfStats) else other
        for name, value in data.items():
            if value:
                setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> dict[str, float | int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> dict[str, float | int]:
        """Freeze the current tallies (for :meth:`delta_since`)."""
        return self.as_dict()

    def delta_since(self, snapshot: dict[str, float | int]) -> dict:
        """What accumulated since ``snapshot`` — the per-stage rollup
        the workload planners record for each compiled stage.  Only
        fields that moved are included, so rollups stay readable."""
        out: dict[str, float | int] = {}
        for name, value in self.as_dict().items():
            moved = value - snapshot.get(name, 0)
            if moved:
                out[name] = moved
        return out


#: Process-wide accumulator: runner/tracker callbacks merge each task's
#: worker-side PerfStats into this after the work resolves.
PERF = PerfStats()


def perf_stats() -> PerfStats:
    """The process-wide host-side transport timing accumulator."""
    return PERF
