"""Job and framework configuration (the interesting ``mapred-site.xml``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import ConfigError
from repro.util.units import MB


# -- the timing model ----------------------------------------------------
# It turns executed work into simulated seconds.  Values are calibrated to
# 2012-era commodity hardware so that the *shapes* the paper reports
# (serial half-hour jobs, order-of-magnitude side-file penalties,
# minutes-long cluster runs) come out at realistic magnitudes.  Absolute
# numbers are not the reproduction target.

#: JVM/task launch overhead, seconds (Hadoop 1 pays this per task).
TASK_STARTUP = 1.0
#: CPU cost per record through map() or reduce().
CPU_PER_RECORD = 10e-6
#: CPU cost per input byte (parsing, decompression).
CPU_PER_BYTE = 4e-9
#: Cost of one in-memory sort comparison.
SORT_PER_RECORD = 1.5e-6
#: Seconds per side-file byte when a mapper re-reads an auxiliary file
#: (open + stream, no caching).
SIDE_READ_PER_BYTE = 12e-9
#: Per side-file open overhead (NameNode RPC + connection setup).
SIDE_OPEN_OVERHEAD = 0.05


def cpu_time(records: int, nbytes: int) -> float:
    return records * CPU_PER_RECORD + nbytes * CPU_PER_BYTE


def sort_time(records: int) -> float:
    if records <= 1:
        return 0.0
    # records * log2(records) comparisons, roughly.
    return records * math.log2(records) * SORT_PER_RECORD


#: Heartbeats missed before the JobTracker declares a tracker lost.
TRACKER_MISS_LIMIT = 10


@dataclass
class MapReduceConfig:
    """Framework-level settings shared by all jobs on a cluster."""

    map_slots_per_tracker: int = 2
    reduce_slots_per_tracker: int = 2
    tasktracker_heartbeat: float = 3.0
    #: io.sort.mb — map output buffer before spilling to local disk.
    #: The spill is simulated: each overflow re-counts the map output in
    #: ``Spilled Records`` and charges one more pass at disk bandwidth.
    sort_buffer_bytes: int = 100 * MB
    #: How pooled task payloads/results cross the process boundary:
    #: "framed" packs Writable pairs into binary wire blobs
    #: (``repro.mapreduce.wire``) — one ``bytes`` per partition instead
    #: of per-record pickled objects; "shm" frames and then writes the
    #: blobs into mmap-ed segment files (``repro.mapreduce.shm``; on the
    #: ``/dev/shm`` tmpfs where the host has one) so only (segment,
    #: offset, length) triples cross the pool — zero-copy on the reduce
    #: side.  Results are bit-identical in both and equal to the serial
    #: backend's (property-tested), which never frames — nothing
    #: crosses a process boundary there.
    shuffle_transport: str = "framed"
    #: Jitter fraction applied to each shuffle-fetch retry's backoff
    #: delay (0 = none, which window-sensitive fault drills need).
    shuffle_retry_jitter: float = 0.25
    #: Run the runtime sanitizer (``repro.analysis.sanitizer``) around
    #: user task code: detect input mutation, emitted-object aliasing,
    #: and non-monoid combiners dynamically.  Violations surface in the
    #: job counters (group "Sanitizer"); clean runs are bit-identical
    #: to unsanitized runs.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.map_slots_per_tracker < 1 or self.reduce_slots_per_tracker < 1:
            raise ConfigError("slot counts must be >= 1")
        if self.tasktracker_heartbeat <= 0:
            raise ConfigError("tasktracker_heartbeat must be positive")
        if self.sort_buffer_bytes <= 0:
            raise ConfigError("sort_buffer_bytes must be positive")
        if self.shuffle_transport not in ("framed", "shm"):
            raise ConfigError(
                f"shuffle_transport must be 'framed' or 'shm', "
                f"got {self.shuffle_transport!r}"
            )
        if not (0.0 <= self.shuffle_retry_jitter <= 1.0):
            raise ConfigError("shuffle_retry_jitter must be in [0, 1]")

    @property
    def tracker_timeout(self) -> float:
        return self.tasktracker_heartbeat * TRACKER_MISS_LIMIT


@dataclass
class JobConf:
    """Per-job configuration, Hadoop ``JobConf`` style."""

    name: str = "job"
    #: Submitting user (a course account on a shared cluster).
    user: str = "student"
    num_reduces: int = 1
    speculative_execution: bool = False
    #: Probability that any given task attempt triggers the simulated
    #: Java-heap leak (the paper's student-bug failure mode).  The
    #: classroom simulator sets this on "buggy" submissions.
    heap_leak_probability: float = 0.0
    #: Free-form user parameters readable via ``context.get(...)``.
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_reduces < 1:
            raise ConfigError("num_reduces must be >= 1")
        if not (0.0 <= self.heap_leak_probability <= 1.0):
            raise ConfigError("heap_leak_probability must be in [0, 1]")
