"""Shared-memory shuffle plane: segments, scopes, and the attach cache.

PR 4's framed transport shrank what crosses the process pool to one
blob per partition — but the blob itself still rode the pickle pipe,
so every byte of map output was copied twice per hop (worker pickle →
pipe → parent unpickle, and again parent → reduce worker).  This
module removes the copies: a map worker writes its frozen RWF2 blobs
into one segment and ships only :class:`ShmSlice` triples; a reduce
worker maps the segment once and decodes straight from a ``memoryview``
over the shared pages.  A shuffle blob is materialised exactly once on
the host.

A segment is a ``0600`` file in its scope's private (``0700``)
``mkdtemp`` directory, read back through ``mmap``
(:class:`~repro.mapreduce.blockio.MappedFile`).  The directory sits under ``/dev/shm`` where that tmpfs
exists and is writable — POSIX shared memory *is* a file there, so
these are the same page-cache pages with none of the
``multiprocessing`` bookkeeping — and under the system temp dir
anywhere else.

Lifecycle (see DESIGN.md §4f for the diagram)::

    parent                         worker
    ------                         ------
    ShmScope() ── token ──▶  publish_frames(frames, token)
        │                          │  create segment, write blobs, close
        │           ◀── slices ────┘  (segment persists; creator may die)
    scope.adopt_output(...)
        │          reduce worker: attach_slice(slice) → shared memoryview
    scope.release()   unlink adopted + rmtree the directory (crashed
                      workers' orphans), drop cached mappings, exactly once

Segment lifetime belongs to the scope, never to the process that opened
the file, so a worker can die at any point without leaking.  A SIGKILLed
*parent* leaves its directory behind until the temp dir is cleaned;
short of that, :func:`release_all_scopes` (run from backend shutdown and
``atexit``) means even a ``KeyboardInterrupt`` that skips the runner's
``finally`` cannot leak a segment past process exit.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import threading
from typing import NamedTuple

from repro.mapreduce.blockio import MappedFile
from repro.mapreduce.counters import PerfStats
from repro.util.errors import WireFormatError

#: Where Linux keeps its shared-memory tmpfs; scope directories go here
#: when they can.
_TMPFS_DIR = "/dev/shm"

#: Per-process caps on the reader-side attach cache.  Segments are
#: unmapped LRU-first past either bound; a mapping pinned by live
#: decode views survives eviction (see :func:`_close_or_park`).
ATTACH_CACHE_SEGMENTS = 64
ATTACH_CACHE_BYTES = 256 << 20


class ShmSlice(NamedTuple):
    """One partition blob's address: ``length`` bytes at ``offset`` of
    the segment file ``segment``.  Never leaves the program — it only
    crosses the pool's own pickle pipe."""

    segment: str
    offset: int
    length: int


# ---------------------------------------------------------------------------
# worker side: publish


def publish_frames(
    frames: dict[int, bytes], token: str, perf: PerfStats | None = None
) -> dict[int, ShmSlice] | None:
    """Write one map output's frame blobs into a fresh segment.

    ``token`` is the scope directory minted by the parent's
    :class:`ShmScope`.  Returns partition → :class:`ShmSlice`, or
    ``None`` when publishing is not possible (empty output, tmpfs full,
    scope directory already released) — callers then keep the framed
    form, which is always correct, just slower.
    """
    total = sum(len(blob) for blob in frames.values())
    if total == 0:
        return None
    try:
        # O_CREAT|O_EXCL, mode 0600, under a name no other worker holds.
        fd, path = tempfile.mkstemp(suffix=".seg", dir=token)
        try:
            slices: dict[int, ShmSlice] = {}
            offset = 0
            with os.fdopen(fd, "wb") as segment:
                for partition in sorted(frames):
                    blob = frames[partition]
                    segment.write(blob)
                    slices[partition] = ShmSlice(path, offset, len(blob))
                    offset += len(blob)
        except BaseException:
            os.unlink(path)
            raise
    except OSError:
        return None
    if perf is not None:
        perf.segments_created += 1
        perf.shm_bytes += total
    return slices


# ---------------------------------------------------------------------------
# reader side: the per-process attach cache
#
# Reducers attach *lazily*, on the first decode of a slice, and each
# process maps a segment at most once no matter how many partitions it
# reads from it — that is why slices stay cheap even when one map
# output fans out to every reduce.

_attach_lock = threading.Lock()
#: segment path -> its mapping, oldest-attached first (LRU via
#: pop/re-insert on hit).
_attached: dict[str, MappedFile] = {}
#: Mappings whose close() was refused by live exports; referenced here
#: so teardown never runs close() from __del__ mid-decode.
_zombies: list[MappedFile] = []


def attach_slice(desc: ShmSlice, perf: PerfStats | None = None) -> memoryview:
    """A zero-copy ``memoryview`` over one slice's blob.

    Maps the segment on first touch (counted in
    ``perf.segments_attached``); later slices into the same segment hit
    the cache.  Ranges outside the segment raise
    :class:`~repro.util.errors.WireFormatError` rather than returning a
    short view that would decode as a truncated blob.
    """
    with _attach_lock:
        att = _attached.pop(desc.segment, None)
        if att is not None:
            _attached[desc.segment] = att  # refresh LRU recency
        else:
            att = _attached[desc.segment] = MappedFile.open(desc.segment)
            if perf is not None:
                perf.segments_attached += 1
            _evict_locked()
    end = desc.offset + desc.length
    if desc.offset < 0 or desc.length < 0 or end > len(att):
        raise WireFormatError(
            f"shm slice out of range: [{desc.offset}, {end}) of a "
            f"{len(att)}-byte segment ({desc.segment!r})"
        )
    return att.view()[desc.offset : end]


def _close_or_park(att: MappedFile) -> None:
    """Unmap, or park a mapping that live decode views still pin (it is
    reclaimed at process exit, and the segment file is already
    unlinked, so nothing survives the run either way)."""
    if not att.close():
        _zombies.append(att)


def _evict_locked() -> None:
    while len(_attached) > 1 and (
        len(_attached) > ATTACH_CACHE_SEGMENTS
        or sum(len(a) for a in _attached.values()) > ATTACH_CACHE_BYTES
    ):
        oldest = next(iter(_attached))  # insertion order
        _close_or_park(_attached.pop(oldest))


def _detach_where(match) -> None:
    """Close (or park) every cached mapping whose segment path matches."""
    with _attach_lock:
        for segment in [s for s in _attached if match(s)]:
            _close_or_park(_attached.pop(segment))


def attached_segment_count() -> int:
    """Segments currently mapped by this process's attach cache."""
    with _attach_lock:
        return len(_attached)


# ---------------------------------------------------------------------------
# parent side: scopes


_scopes_lock = threading.Lock()
#: token -> ShmScope for every not-yet-released scope in this process.
_live_scopes: dict[str, "ShmScope"] = {}


def _make_scope_dir() -> str:
    """A fresh private (0700) directory: on the shared-memory tmpfs
    when the host has a writable one, else in the system temp dir."""
    try:
        return tempfile.mkdtemp(prefix="repro-shm-", dir=_TMPFS_DIR)
    except OSError:
        return tempfile.mkdtemp(prefix="repro-shm-")


class ShmScope:
    """Parent-side registry and janitor for one run's segments.

    Created by the runner/JobTracker before pooled tasks launch; its
    :attr:`token` — the scope directory — travels to map workers (it is
    the only shm state that crosses the pool besides slices).
    :meth:`release` — idempotent, called from the runner's ``finally``,
    the JobTracker's job finish/fail paths, backend shutdown and the
    ``atexit`` backstop — unlinks every adopted segment *and* removes
    the directory, orphans of workers that died between publishing and
    returning included.
    """

    def __init__(self):
        self.token = _make_scope_dir()
        self._adopted: set[str] = set()
        self._lock = threading.Lock()
        self._released = False
        with _scopes_lock:
            _live_scopes[self.token] = self

    @property
    def released(self) -> bool:
        return self._released

    def adopt_output(self, output) -> None:
        """Register a map output's segments for exact unlink at release."""
        if not output.frames:
            return
        with self._lock:
            self._adopted.update(
                slot.segment
                for slot in output.frames.values()
                if isinstance(slot, ShmSlice)
            )

    def live_segments(self) -> list[str]:
        """Paths of this scope's segments that exist on the host now."""
        try:
            entries = os.listdir(self.token)
        except OSError:
            return []
        return sorted(os.path.join(self.token, name) for name in entries)

    def release(self) -> None:
        """Unlink everything this scope owns, exactly once."""
        with self._lock:
            if self._released:
                return
            self._released = True
            adopted = sorted(self._adopted)
        with _scopes_lock:
            _live_scopes.pop(self.token, None)
        # Drop this process's own mappings first so the unlinked pages
        # are actually freed (pooled-threads runs attach in-process).
        inside = self.token + os.sep
        _detach_where(lambda segment: segment.startswith(inside))
        for path in adopted:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        shutil.rmtree(self.token, ignore_errors=True)  # orphans too


def live_scope_tokens() -> list[str]:
    """Tokens of every unreleased scope in this process (for tests)."""
    with _scopes_lock:
        return sorted(_live_scopes)


def release_all_scopes() -> None:
    """Release every live scope (backend shutdown / atexit backstop).

    Also drains this process's attach cache: pool *workers* hold
    mappings for segments whose scope lives in the parent, so their
    cached file handles would otherwise survive to interpreter exit
    and trip ResourceWarning.
    """
    with _scopes_lock:
        scopes = [_live_scopes[token] for token in sorted(_live_scopes)]
    for scope in scopes:
        scope.release()
    _detach_where(lambda segment: True)
    # Retry parked mappings: views exported at detach time have usually
    # been dropped by now, letting their files finally close.
    with _attach_lock:
        parked, _zombies[:] = list(_zombies), []
    for att in parked:
        if not att.close():
            with _attach_lock:  # pragma: no cover - view still exported
                _zombies.append(att)


atexit.register(release_all_scopes)
