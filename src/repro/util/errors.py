"""Exception hierarchy for the whole stack.

Every error raised by this package derives from :class:`ReproError`, so
callers (graders, benchmarks, the classroom simulator) can contain
failures from student-style code without masking genuine bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration values."""


# --------------------------------------------------------------------------
# HDFS


class HdfsError(ReproError):
    """Base class for HDFS errors."""


class FileNotFoundInHdfs(HdfsError):
    """Path does not exist in the HDFS namespace."""


class FileAlreadyExists(HdfsError):
    """Create was attempted on an existing path without overwrite."""


class NotADirectory(HdfsError):
    """A path component that must be a directory is a file."""


class IsADirectory(HdfsError):
    """A file operation was attempted on a directory."""


class DirectoryNotEmpty(HdfsError):
    """Non-recursive delete of a non-empty directory."""


class SafeModeException(HdfsError):
    """Mutation rejected because the NameNode is in safe mode."""


class ReplicationError(HdfsError):
    """Could not place or maintain the requested number of replicas."""


class CorruptBlockError(HdfsError):
    """Block data failed its checksum verification."""


class BlockNotFoundError(HdfsError):
    """A block id is not known to the NameNode or a DataNode."""


class DataNodeDownError(HdfsError):
    """An operation was routed to a dead or stopped DataNode."""


class NameNodeDownError(HdfsError):
    """An RPC reached a crashed NameNode.

    Distinct from :class:`SafeModeException`: safemode is a NameNode
    that is *up* but not yet trusting its block map; this is a NameNode
    that is gone until recovery replays its journal.
    """


class JournalFormatError(HdfsError):
    """A corrupt or truncated fsimage / edit-log structure was decoded.

    A torn edit-log *tail* is expected (crash mid-append) and handled by
    replay truncation; this error surfaces the unexpected cases — bad
    magic, a corrupt fsimage body, garbage mid-log.
    """


class QuotaExceededError(HdfsError):
    """Namespace or space quota would be exceeded."""


class LeaseConflictError(HdfsError):
    """A second writer attempted to open a file already being written."""


# --------------------------------------------------------------------------
# MapReduce


class MapReduceError(ReproError):
    """Base class for MapReduce errors."""


class JobSubmissionError(MapReduceError):
    """Job configuration was rejected at submission time."""


class TaskFailedError(MapReduceError):
    """A task attempt raised an error while running user code."""


class JobFailedError(MapReduceError):
    """The job exhausted its retry budget and was killed."""


class InvalidWritableError(MapReduceError):
    """A key or value did not conform to the Writable contract."""


class WireFormatError(MapReduceError):
    """A binary shuffle frame could not be encoded or decoded.

    Raised with a human-readable position/reason instead of letting
    ``struct.error`` or ``UnicodeDecodeError`` noise escape — truncated
    or corrupt frames are an expected failure mode (IPC, segment files),
    and callers fall back to object form on encode-side failures.
    """


class OutputExistsError(MapReduceError):
    """The job output directory already exists (Hadoop refuses this)."""


class HeapExhaustedError(TaskFailedError):
    """Simulated Java heap exhaustion (the paper's memory-leak crash)."""


class FetchFailedError(TaskFailedError):
    """A reduce could not pull map output (its source node is gone)."""


# --------------------------------------------------------------------------
# Batch scheduler / provisioning


class SchedulerError(ReproError):
    """Base class for PBS-like scheduler errors."""


class ReservationError(SchedulerError):
    """Not enough nodes, or an invalid reservation request."""


class PreemptedError(SchedulerError):
    """The reservation was preempted by a higher-priority job."""


class ProvisionError(ReproError):
    """Base class for myHadoop provisioning errors."""


class PortInUseError(ProvisionError):
    """A required Hadoop daemon port is already bound (ghost daemon)."""


class BadPathError(ProvisionError):
    """A myHadoop configuration path is wrong (the common student error)."""
