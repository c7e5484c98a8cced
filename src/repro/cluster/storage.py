"""Storage models: per-node local disks and a central parallel file system.

These two classes *are* the paper's Figure 1 in code: a Hadoop cluster
stores blocks on :class:`LocalDisk`\\ s next to the compute, while an HPC
cluster funnels all I/O through one :class:`ParallelFileSystem` whose
aggregate bandwidth is shared by every concurrent reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ConfigError


class LocalDisk:
    """A node-local HDD with capacity accounting and simple throughput."""

    def __init__(self, capacity: int, read_bw: float, write_bw: float):
        if capacity <= 0 or read_bw <= 0 or write_bw <= 0:
            raise ConfigError("disk capacity and bandwidths must be positive")
        self.capacity = int(capacity)
        self.read_bw = float(read_bw)
        self.write_bw = float(write_bw)
        self.used = 0
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def allocate(self, nbytes: int) -> bool:
        """Reserve space; returns False (no partial write) if it won't fit."""
        if nbytes < 0:
            raise ValueError("cannot allocate negative bytes")
        if nbytes > self.free:
            return False
        self.used += nbytes
        return True

    def release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot release negative bytes")
        self.used = max(0, self.used - nbytes)

    def read_time(self, nbytes: int) -> float:
        """Seconds to stream ``nbytes`` off this disk."""
        self.bytes_read += nbytes
        return nbytes / self.read_bw

    def write_time(self, nbytes: int) -> float:
        self.bytes_written += nbytes
        return nbytes / self.write_bw


@dataclass
class ParallelFileSystem:
    """A central parallel storage system (Lustre/GPFS-like).

    Aggregate bandwidth is fixed; when ``n`` clients stream concurrently
    each sees ``aggregate_bw / n`` (perfect fair sharing), floored by the
    per-client link.  This is the compute/storage-separated architecture
    of Figure 1(a), and the reason data-intensive scans stop scaling on a
    typical HPC cluster — the observation motivating the whole module.

    The paper also notes Clemson's parallel storage lacked file-locking
    support, which ruled out myHadoop's persistent mode; the
    ``supports_file_locking`` flag carries that constraint into
    :mod:`repro.myhadoop`.
    """

    aggregate_bw: float = 4_000 * 1024 * 1024  # 4 GB/s backbone
    per_client_bw: float = 125 * 1024 * 1024  # gigabit per compute node
    capacity: int = 2 * 1024**5  # effectively unbounded for coursework
    supports_file_locking: bool = False
    used: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    _concurrent_readers: int = field(default=0, repr=False)

    def effective_bw(self, concurrent_clients: int) -> float:
        """Per-client streaming bandwidth with ``concurrent_clients`` active."""
        if concurrent_clients < 1:
            raise ValueError("concurrent_clients must be >= 1")
        fair_share = self.aggregate_bw / concurrent_clients
        return min(self.per_client_bw, fair_share)

    def read_time(self, nbytes: int, concurrent_clients: int = 1) -> float:
        """Seconds for one client to read ``nbytes`` under contention."""
        self.bytes_read += nbytes
        return nbytes / self.effective_bw(concurrent_clients)

    def saturation_point(self) -> int:
        """Number of clients beyond which the backbone, not the NIC, limits
        per-client bandwidth — where HPC scan scaling flattens."""
        return max(1, int(self.aggregate_bw // self.per_client_bw))
