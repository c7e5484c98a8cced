"""HDFS configuration (the interesting subset of ``hdfs-site.xml``)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigError
from repro.util.units import MB, parse_size


#: Heartbeats a NameNode may miss before declaring a DataNode dead.
#: Hadoop 1.x waits 10 minutes; 10 intervals keeps simulations brisk
#: while preserving the mechanism.
HEARTBEAT_MISS_LIMIT = 10


@dataclass
class HdfsConfig:
    """Tunable HDFS parameters.

    Defaults follow Hadoop 1.2.1 — the release the course shipped to
    students — except where noted.  Teaching platforms typically shrink
    ``block_size`` so classroom-scale datasets still split into many
    blocks (the behaviour the HDFS lab observes).
    """

    #: dfs.block.size — Hadoop 1.x default 64 MB.
    block_size: int = 64 * MB
    #: dfs.replication.
    replication: int = 3
    #: dfs.heartbeat.interval, seconds.
    heartbeat_interval: float = 3.0
    #: Seconds between replication-monitor sweeps.
    replication_check_interval: float = 3.0
    #: DataNode startup integrity scan rate, bytes/second.  Scanning a
    #: near-full 850 GB HDD at ~1 GB/s of combined seek+verify work gives
    #: the paper's "at least fifteen minutes" restart.
    startup_scan_bw: float = 1024 * MB
    #: io.bytes.per.checksum — bytes covered by one CRC32 entry.  Hadoop
    #: ships 512; we default to 64 KB so production-scale 64 MB blocks
    #: keep their CRC arrays small.  Set it alongside a small
    #: ``block_size`` so a block still spans many chunks (ranged reads
    #: then verify only the chunks they touch).
    checksum_chunk_size: int = 64 * 1024
    #: Capacity of each DataNode's verified-block cache (LRU, keyed by
    #: (block_id, generation)).  0 disables the cache.  Cache state is
    #: host-side only: hits and misses charge identical simulated time.
    block_cache_bytes: int = 64 * MB
    #: Write-ahead journaling of every namespace mutation (the fsimage +
    #: edit-log pair).  Costs nothing in simulated time or determinism —
    #: fault-free runs are bit-identical with it on or off.  ``False``
    #: restores the memory-only NameNode, where a crash loses the
    #: namespace forever (the paper's nightmare scenario).
    journal: bool = True
    #: Directory for on-disk journal files (``fsimage`` + ``edits``).
    #: ``None`` keeps the journal in process memory — still
    #: crash-recoverable in-simulation, without touching the host disk.
    journal_dir: str | None = None
    #: Roll a checkpoint automatically once this many edit records have
    #: accumulated (the SecondaryNameNode's job).  0 = roll only on an
    #: explicit ``dfsadmin -saveNamespace``.
    checkpoint_edit_limit: int = 0

    def __post_init__(self) -> None:
        self.block_size = parse_size(self.block_size)
        if self.block_size <= 0:
            raise ConfigError("block_size must be positive")
        if self.replication < 1:
            raise ConfigError("replication must be >= 1")
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be positive")
        self.checksum_chunk_size = parse_size(self.checksum_chunk_size)
        if self.checksum_chunk_size <= 0:
            raise ConfigError("checksum_chunk_size must be positive")
        self.block_cache_bytes = parse_size(self.block_cache_bytes)
        if self.block_cache_bytes < 0:
            raise ConfigError("block_cache_bytes must be >= 0")
        if self.checkpoint_edit_limit < 0:
            raise ConfigError("checkpoint_edit_limit must be >= 0")
        if self.journal_dir is not None and not self.journal:
            raise ConfigError("journal_dir is set but journal=False")

    @property
    def dead_node_timeout(self) -> float:
        """Seconds of heartbeat silence before a node is declared dead."""
        return self.heartbeat_interval * HEARTBEAT_MISS_LIMIT
