"""NameNode durability: the binary EditLog and FsImage pair.

Hadoop's answer to "block metadata lives in memory" (Figure 2) losing
everything on a NameNode crash is the ``fsimage`` + ``edits`` pair: a
periodic full snapshot of the namespace plus a write-ahead log of every
mutation since.  This module is that pair, in the struct-framed
style of :mod:`repro.mapreduce.wire`:

EditLog (``RWJ1``)::

    +-------+---------+   +---------+----------+-----------+
    | magic | version |   | payload | CRC32    | payload   |  ... records
    | RWJ1  |  u32    |   | len u32 | u32      | (framed)  |
    +-------+---------+   +---------+----------+-----------+

    payload = u8 opcode + typed fields (strings are u32 len + UTF-8,
    mtimes are exact big-endian f64, optional ints carry a presence
    byte).  Records are *logical redo*: they carry resolved results
    (the allocated block id, the normalized path), so replay never
    re-chooses anything.

FsImage (``RWI1``)::

    +-------+---------+---------+-------+------+
    | magic | version | body    | CRC32 | body |
    | RWI1  |  u32    | len u32 | u32   | ...  |
    +-------+---------+---------+-------+------+

    body = next block id, directory quotas, decommissioning set, then
    a sorted preorder walk of every inode (directories with mtime;
    files with replication, under-construction flag and block list).

Torn-tail tolerance: a crash mid-append leaves a short or CRC-broken
final record.  :func:`scan_edits` replays the longest valid prefix and
stops cleanly at the first bad frame — truncating the log at *any* byte
boundary recovers every fully-written record (property-tested).  The
fsimage, by contrast, is swapped atomically at checkpoint time, so any
corruption there is a hard :class:`~repro.util.errors.JournalFormatError`.

Replica locations, DataNode registrations and pending commands are
runtime state: recovery rebuilds them from DataNode block reports while
the NameNode waits out safemode, exactly like a real restart.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.hdfs.block import DEFAULT_FIRST_BLOCK_ID, Block
from repro.hdfs.namespace import Namespace, move_quotas
from repro.util.errors import HdfsError, JournalFormatError

EDITS_MAGIC = b"RWJ1"
IMAGE_MAGIC = b"RWI1"
VERSION = 1

_HEADER = struct.Struct(">4sI")  # magic + format version
_FRAME = struct.Struct(">II")  # payload length + CRC32(payload)
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")

# -- edit opcodes -----------------------------------------------------------

OP_MKDIRS = 1
OP_CREATE = 2
OP_ADD_BLOCK = 3
OP_ABANDON_BLOCK = 4
OP_COMPLETE = 5
OP_DELETE = 6
OP_RENAME = 7
OP_SET_REPLICATION = 8
OP_SET_QUOTA = 9
OP_DECOMM_START = 10
OP_DECOMM_STOP = 11

#: opcode -> field spec: the single source of truth for the edit codec
#: (the hypothesis round-trip tests generate one value per field kind).
EDIT_SPECS: dict[int, tuple[str, ...]] = {
    OP_MKDIRS: ("str", "f64"),  # path, mtime
    OP_CREATE: ("str", "u32", "f64"),  # path, replication, mtime
    OP_ADD_BLOCK: ("str", "u64", "u32", "u64"),  # path, id, generation, len
    OP_ABANDON_BLOCK: ("str", "u64"),  # path, block id
    OP_COMPLETE: ("str", "f64"),  # path, mtime
    OP_DELETE: ("str", "bool"),  # path, recursive
    OP_RENAME: ("str", "str"),  # src, dst
    OP_SET_REPLICATION: ("str", "u32"),  # path, replication
    OP_SET_QUOTA: ("str", "opt_i64", "opt_i64"),  # path, ns / space quota
    OP_DECOMM_START: ("str",),  # datanode
    OP_DECOMM_STOP: ("str",),  # datanode
}

OP_NAMES: dict[int, str] = {
    OP_MKDIRS: "MKDIRS",
    OP_CREATE: "CREATE",
    OP_ADD_BLOCK: "ADD_BLOCK",
    OP_ABANDON_BLOCK: "ABANDON_BLOCK",
    OP_COMPLETE: "COMPLETE",
    OP_DELETE: "DELETE",
    OP_RENAME: "RENAME",
    OP_SET_REPLICATION: "SET_REPLICATION",
    OP_SET_QUOTA: "SET_QUOTA",
    OP_DECOMM_START: "DECOMM_START",
    OP_DECOMM_STOP: "DECOMM_STOP",
}

# -- the field codec --------------------------------------------------------


#: Fixed-width field kinds and their struct codes.  ``bool`` packs as
#: ``?`` — the truth value, one byte 0/1.
_FIXED_CODES = {"u32": "I", "u64": "Q", "i64": "q", "f64": "d", "bool": "?"}
_SEG_FIXED, _SEG_STR, _SEG_OPT_I64 = 0, 1, 2
_TRUNCATED = "truncated journal record"


def _compile_layout(spec: tuple[str, ...]) -> tuple[tuple, ...]:
    """One record's codec, compiled from its spec row: runs of adjacent
    fixed-width fields fuse into one ``struct.Struct`` over a slice of
    the values (with the byte offsets of its ``bool`` fields, which the
    unpacker checks); ``str`` and ``opt_i64`` stay segments."""
    segments: list[tuple] = []
    run_start = None
    for i, kind in enumerate((*spec, None)):  # None flushes the last run
        if kind in _FIXED_CODES:
            if run_start is None:
                run_start = i
            continue
        if run_start is not None:
            codes = "".join(_FIXED_CODES[k] for k in spec[run_start:i])
            bools = tuple(
                struct.calcsize(">" + codes[:j])
                for j, code in enumerate(codes)
                if code == "?"
            )
            fused = struct.Struct(">" + codes)
            segments.append((_SEG_FIXED, fused, run_start, i, bools))
            run_start = None
        if kind == "str":
            segments.append((_SEG_STR, None, i, i + 1, ()))
        elif kind == "opt_i64":
            segments.append((_SEG_OPT_I64, None, i, i + 1, ()))
        elif kind is not None:  # pragma: no cover - spec typo guard
            raise AssertionError(f"unknown field kind {kind!r}")
    return tuple(segments)


def _pack(segments: tuple[tuple, ...], values, out: list) -> None:
    """Append one record's fields, packed by its compiled layout."""
    for tag, packer, start, stop, _ in segments:
        if tag == _SEG_STR:
            data = values[start].encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
        elif tag == _SEG_FIXED:
            out.append(packer.pack(*values[start:stop]))
        elif values[start] is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01")
            out.append(_I64.pack(values[start]))


def _unpack(segments: tuple[tuple, ...], data, pos: int) -> tuple[tuple, int]:
    """Read one record's fields from ``data[pos:]`` by its compiled
    layout; returns ``(values, end)``.  Every read is bounds-checked:
    truncation, a bool or presence byte that is not 0/1, and bad UTF-8
    raise :class:`JournalFormatError`."""
    values: list = []
    size = len(data)
    for tag, unpacker, _, _, bools in segments:
        if tag == _SEG_FIXED:
            end = pos + unpacker.size
            if end > size:
                raise JournalFormatError(_TRUNCATED)
            for offset in bools:
                if data[pos + offset] > 1:
                    raise JournalFormatError(f"bad bool byte {data[pos + offset]}")
            values += unpacker.unpack_from(data, pos)
        elif tag == _SEG_STR:
            if pos + 4 > size:
                raise JournalFormatError(_TRUNCATED)
            start = pos + 4
            end = start + _U32.unpack_from(data, pos)[0]
            if end > size:
                raise JournalFormatError(_TRUNCATED)
            try:
                values.append(str(data[start:end], "utf-8"))
            except UnicodeDecodeError as exc:
                raise JournalFormatError(
                    f"bad UTF-8 in journal string: {exc}"
                ) from None
        else:
            if pos >= size:
                raise JournalFormatError(_TRUNCATED)
            flag = data[pos]
            if flag == 0:
                values.append(None)
                end = pos + 1
            elif flag == 1:
                end = pos + 9
                if end > size:
                    raise JournalFormatError(_TRUNCATED)
                values.append(_I64.unpack_from(data, pos + 1)[0])
            else:
                raise JournalFormatError(f"bad optional-presence byte {flag}")
        pos = end
    return tuple(values), pos


def _unpack_keyed(layouts: dict, what: str, data, pos: int) -> tuple[int, tuple, int]:
    """Read a key byte (an edit's opcode, an inode's kind), then the
    record it keys; returns ``(key, values, end)``."""
    if pos >= len(data):
        raise JournalFormatError(_TRUNCATED)
    key = data[pos]
    layout = layouts.get(key)
    if layout is None:
        raise JournalFormatError(f"unknown {what} {key}")
    values, end = _unpack(layout[2], data, pos + 1)
    return key, values, end


def _keyed_layouts(specs: dict[int, tuple[str, ...]]) -> dict[int, tuple]:
    """key -> (key byte, field count, compiled segments)."""
    return {
        key: (bytes((key,)), len(spec), _compile_layout(spec))
        for key, spec in specs.items()
    }


# -- edit record codec ------------------------------------------------------


_EDIT_LAYOUTS = _keyed_layouts(EDIT_SPECS)


def encode_edit(op: int, values: tuple) -> bytes:
    """Encode one edit record payload (opcode + typed fields), packed by
    the opcode's compiled layout."""
    layout = _EDIT_LAYOUTS.get(op)
    if layout is None:
        raise JournalFormatError(f"unknown edit opcode {op}")
    head, arity, segments = layout
    if len(values) != arity:
        raise JournalFormatError(
            f"{OP_NAMES[op]} takes {arity} fields, got {len(values)}"
        )
    out = [head]
    _pack(segments, values, out)
    return b"".join(out)


def decode_edit(payload) -> tuple[int, tuple]:
    """Decode one edit record payload back to ``(opcode, values)``."""
    op, values, end = _unpack_keyed(_EDIT_LAYOUTS, "edit opcode", payload, 0)
    if end != len(payload):
        raise JournalFormatError("trailing bytes after edit record")
    return op, values


def frame_record(payload: bytes) -> bytes:
    """Wrap a payload in the length + CRC32 frame."""
    return _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def edits_header() -> bytes:
    return _HEADER.pack(EDITS_MAGIC, VERSION)


@dataclass(frozen=True)
class EditScan:
    """The valid prefix of one edit-log blob."""

    records: tuple[tuple[int, tuple], ...]
    #: Byte offset where each valid record's frame starts.
    offsets: tuple[int, ...]
    #: Header + every fully-valid frame; appends resume here after a tear.
    valid_bytes: int
    #: Bytes past the valid prefix (the torn tail), dropped on recovery.
    torn_bytes: int


def scan_edits(blob) -> EditScan:
    """Replay-scan an edit log, stopping cleanly at the first bad record.

    Tolerates any truncation (including mid-header): whatever survives
    as fully-written frames is returned; the rest is counted as torn.
    A *wrong* magic, however, means this is not an edit log at all —
    truncation cannot manufacture one — and raises.
    """
    view = memoryview(blob)
    total = len(view)
    if total < _HEADER.size:
        return EditScan((), (), 0, total)
    magic, version = _HEADER.unpack(view[: _HEADER.size])
    if magic != EDITS_MAGIC:
        raise JournalFormatError(f"bad edit-log magic {bytes(magic)!r}")
    if version != VERSION:
        raise JournalFormatError(f"unsupported edit-log version {version}")
    pos = _HEADER.size
    records: list[tuple[int, tuple]] = []
    offsets: list[int] = []
    while True:
        if total - pos < _FRAME.size:
            break
        length, crc = _FRAME.unpack(view[pos : pos + _FRAME.size])
        start = pos + _FRAME.size
        if total - start < length:
            break
        payload = view[start : start + length]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            break
        try:
            records.append(decode_edit(payload))
        except JournalFormatError:
            break
        offsets.append(pos)
        pos = start + length
    return EditScan(tuple(records), tuple(offsets), pos, total - pos)


# -- fsimage codec ----------------------------------------------------------


@dataclass
class ImageState:
    """The durable half of the NameNode, ready to encode or install.

    Everything else the NameNode holds (replica locations, DataNode
    descriptors, pending commands, under/over-replicated sets) is
    runtime state rebuilt from block reports after recovery.
    """

    namespace: Namespace
    quotas: dict[str, tuple[int | None, int | None]]
    decommissioning: set[str]
    next_block_id: int


def empty_image_state() -> ImageState:
    return ImageState(
        namespace=Namespace(),
        quotas={},
        decommissioning=set(),
        next_block_id=DEFAULT_FIRST_BLOCK_ID,
    )


def _image_size(state: ImageState) -> tuple[int, int]:
    """``(inodes, blocks)`` an fsimage of ``state`` holds (for the stats)."""
    inodes = [inode for _, inode in state.namespace.walk_all("/")]
    return len(inodes), sum(len(i.blocks) for i in inodes if not i.is_dir)


#: fsimage record shapes, one spec row each.  An inode record is keyed
#: by its kind byte the way an edit is keyed by its opcode.
_KIND_DIR, _KIND_FILE = 0, 1
_IMAGE_HEAD = _compile_layout(("u64", "u32"))  # next block id, quota count
_QUOTA = _compile_layout(("str", "opt_i64", "opt_i64"))  # path, ns / space quota
_COUNT = _compile_layout(("u32",))  # decommissioning names, inodes
_NAME = _compile_layout(("str",))  # decommissioning datanode
_INODE_LAYOUTS = _keyed_layouts(
    {
        _KIND_DIR: ("str", "f64"),  # path, mtime
        # path, mtime, replication, under construction, block count
        _KIND_FILE: ("str", "f64", "u32", "bool", "u32"),
    }
)
_BLOCK = _compile_layout(("u64", "u32", "u64"))  # id, generation, length


def encode_image(state: ImageState) -> bytes:
    """Serialize a full namespace snapshot (the fsimage)."""
    out: list = []
    quotas = sorted(state.quotas.items())
    _pack(_IMAGE_HEAD, (state.next_block_id, len(quotas)), out)
    for path, (namespace_quota, space_quota) in quotas:
        _pack(_QUOTA, (path, namespace_quota, space_quota), out)
    decommissioning = sorted(state.decommissioning)
    _pack(_COUNT, (len(decommissioning),), out)
    for name in decommissioning:
        _pack(_NAME, (name,), out)
    entries = list(state.namespace.walk_all("/"))
    _pack(_COUNT, (len(entries),), out)
    dir_head, _, dir_segments = _INODE_LAYOUTS[_KIND_DIR]
    file_head, _, file_segments = _INODE_LAYOUTS[_KIND_FILE]
    for path, inode in entries:
        if inode.is_dir:
            out.append(dir_head)
            _pack(dir_segments, (path, inode.mtime), out)
            continue
        out.append(file_head)
        header = (path, inode.mtime, inode.replication, inode.under_construction)
        _pack(file_segments, (*header, len(inode.blocks)), out)
        for block in inode.blocks:
            _pack(_BLOCK, (block.block_id, block.generation, block.length), out)
    return _HEADER.pack(IMAGE_MAGIC, VERSION) + frame_record(b"".join(out))


def decode_image(blob) -> ImageState:
    """Deserialize an fsimage.  Corruption here is a hard error — the
    image is swapped atomically, so a bad one was never a torn write."""
    view = memoryview(blob)
    prefix = _HEADER.size + _FRAME.size
    if len(view) < prefix:
        raise JournalFormatError("fsimage truncated before the body")
    magic, version = _HEADER.unpack(view[: _HEADER.size])
    if magic != IMAGE_MAGIC:
        raise JournalFormatError(f"bad fsimage magic {bytes(magic)!r}")
    if version != VERSION:
        raise JournalFormatError(f"unsupported fsimage version {version}")
    length, crc = _FRAME.unpack(view[_HEADER.size : prefix])
    body = view[prefix : prefix + length]
    if len(body) != length:
        raise JournalFormatError("fsimage body shorter than its declared length")
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        raise JournalFormatError("fsimage body CRC mismatch")
    (next_block_id, count), pos = _unpack(_IMAGE_HEAD, body, 0)
    quotas: dict[str, tuple[int | None, int | None]] = {}
    for _ in range(count):
        (path, namespace_quota, space_quota), pos = _unpack(_QUOTA, body, pos)
        quotas[path] = (namespace_quota, space_quota)
    (count,), pos = _unpack(_COUNT, body, pos)
    decommissioning = set()
    for _ in range(count):
        (name,), pos = _unpack(_NAME, body, pos)
        decommissioning.add(name)
    (count,), pos = _unpack(_COUNT, body, pos)
    ns = Namespace()
    for _ in range(count):
        kind, values, pos = _unpack_keyed(_INODE_LAYOUTS, "inode kind", body, pos)
        if kind == _KIND_DIR:
            path, mtime = values
            if path == "/":
                ns.root.mtime = mtime
            else:
                # Preorder serialization: parents always precede
                # children, so this creates exactly one directory.
                ns.mkdirs(path, mtime=mtime)
            continue
        path, mtime, replication, under_construction, block_count = values
        blocks = []
        for _ in range(block_count):
            block, pos = _unpack(_BLOCK, body, pos)  # id, generation, length
            blocks.append(Block(*block))
        inode = ns.create_file(path, replication=replication, mtime=mtime)
        inode.blocks = blocks
        inode.under_construction = under_construction
        inode.mtime = mtime
    if pos != len(body):
        raise JournalFormatError("trailing bytes in fsimage body")
    return ImageState(
        namespace=ns,
        quotas=quotas,
        decommissioning=decommissioning,
        next_block_id=next_block_id,
    )


# -- replay -----------------------------------------------------------------


def apply_edit(state: ImageState, op: int, values: tuple) -> None:
    """Apply one edit record onto an :class:`ImageState` (logical redo).

    Records carry resolved results (the allocated block id, normalized
    paths), so replay is pure application — nothing is re-decided.
    """
    ns = state.namespace
    if op == OP_MKDIRS:
        path, mtime = values
        ns.mkdirs(path, mtime=mtime)
    elif op == OP_CREATE:
        path, replication, mtime = values
        ns.create_file(path, replication=replication, mtime=mtime)
    elif op == OP_ADD_BLOCK:
        path, block_id, generation, length = values
        inode = ns.get_file(path)
        inode.blocks.append(
            Block(block_id=block_id, generation=generation, length=length)
        )
        state.next_block_id = max(state.next_block_id, block_id + 1)
    elif op == OP_ABANDON_BLOCK:
        path, block_id = values
        inode = ns.get_file(path)
        inode.blocks = [b for b in inode.blocks if b.block_id != block_id]
    elif op == OP_COMPLETE:
        path, mtime = values
        inode = ns.get_file(path)
        inode.under_construction = False
        inode.mtime = mtime
    elif op == OP_DELETE:
        path, recursive = values
        ns.delete(path, recursive=recursive)
        move_quotas(state.quotas, path, None)
    elif op == OP_RENAME:
        src, dst = values
        landed = ns.rename(src, dst)
        if landed is not None:
            move_quotas(state.quotas, src, landed)
    elif op == OP_SET_REPLICATION:
        path, replication = values
        ns.get_file(path).replication = replication
    elif op == OP_SET_QUOTA:
        path, namespace_quota, space_quota = values
        if namespace_quota is None and space_quota is None:
            state.quotas.pop(path, None)
        else:
            state.quotas[path] = (namespace_quota, space_quota)
    elif op == OP_DECOMM_START:
        state.decommissioning.add(values[0])
    elif op == OP_DECOMM_STOP:
        state.decommissioning.discard(values[0])
    else:  # pragma: no cover - decode_edit rejects unknown opcodes
        raise JournalFormatError(f"unknown edit opcode {op}")


# -- storage backends -------------------------------------------------------


class MemoryJournalStorage:
    """Journal bytes held in process memory (the default).

    The *simulated* NameNode process crashes; the host process running
    the simulation does not — so in-memory storage is exactly as durable
    as the simulation needs, without touching the host filesystem.
    """

    def __init__(self) -> None:
        self._image: bytes | None = None
        self._edits = bytearray(edits_header())

    def read_image(self) -> bytes | None:
        return self._image

    def write_image(self, blob: bytes) -> None:
        self._image = bytes(blob)

    def append_edit(self, frame: bytes) -> None:
        self._edits += frame

    def edits_blob(self) -> bytes:
        return bytes(self._edits)

    def rewrite_edits(self, blob: bytes) -> None:
        self._edits = bytearray(blob)


class DirJournalStorage:
    """Journal as real files (``fsimage`` + ``edits``) under a directory.

    Image swaps are atomic (write ``.tmp``, fsync, ``os.replace``) so a
    host crash mid-checkpoint never leaves a half-written image — only
    the edit log can tear, which is exactly what replay tolerates.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.image_path = os.path.join(directory, "fsimage")
        self.edits_path = os.path.join(directory, "edits")
        if not os.path.exists(self.edits_path):
            self._replace(self.edits_path, edits_header())

    @staticmethod
    def _replace(path: str, blob: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def read_image(self) -> bytes | None:
        if not os.path.exists(self.image_path):
            return None
        with open(self.image_path, "rb") as fh:
            return fh.read()

    def write_image(self, blob: bytes) -> None:
        self._replace(self.image_path, blob)

    def append_edit(self, frame: bytes) -> None:
        with open(self.edits_path, "ab") as fh:
            fh.write(frame)

    def edits_blob(self) -> bytes:
        with open(self.edits_path, "rb") as fh:
            return fh.read()

    def rewrite_edits(self, blob: bytes) -> None:
        self._replace(self.edits_path, blob)


# -- the journal manager ----------------------------------------------------


@dataclass(frozen=True)
class CheckpointStats:
    """What one checkpoint roll produced."""

    edits_truncated: int
    image_inodes: int
    image_blocks: int


@dataclass(frozen=True)
class RecoveryStats:
    """What one recovery replayed."""

    replayed_edits: int
    torn_bytes: int
    image_inodes: int
    image_blocks: int


class NameNodeJournal:
    """The NameNode's durability manager.

    Owns the storage pair, appends framed edit records (``log_*``),
    rolls SecondaryNameNode-style checkpoints (new fsimage, atomic
    swap, edit-log truncation) and rebuilds an :class:`ImageState` on
    recovery.  A disabled journal (``storage=None``) keeps every
    ``log_*`` call a no-op so the NameNode's mutators never branch.
    """

    def __init__(self, storage=None):
        self.storage = storage
        self.enabled = storage is not None
        self._snapshot_source: Callable[[], ImageState] | None = None
        #: Edits appended since format (cumulative; checkpoints do not reset).
        self.edits_logged = 0
        self.edits_since_checkpoint = 0
        self.checkpoints = 0
        self.recoveries = 0
        self.last_checkpoint: CheckpointStats | None = None
        self.last_recovery: RecoveryStats | None = None

    def bind(self, snapshot_source: Callable[[], ImageState]) -> None:
        """Attach the NameNode's state snapshot (for checkpoint rolls)."""
        self._snapshot_source = snapshot_source

    def format(self) -> None:
        """Initialize storage: empty edit log + an image of current state."""
        if not self.enabled:
            return
        self.storage.rewrite_edits(edits_header())
        state = (
            self._snapshot_source()
            if self._snapshot_source is not None
            else empty_image_state()
        )
        self.storage.write_image(encode_image(state))

    # -- append (the log_* wrappers are what mrlint MRE105 looks for) ------
    def _append(self, op: int, *values) -> None:
        if not self.enabled:
            return
        self.storage.append_edit(frame_record(encode_edit(op, values)))
        self.edits_logged += 1
        self.edits_since_checkpoint += 1

    def log_mkdirs(self, path: str, mtime: float) -> None:
        self._append(OP_MKDIRS, path, mtime)

    def log_create(self, path: str, replication: int, mtime: float) -> None:
        self._append(OP_CREATE, path, replication, mtime)

    def log_add_block(
        self, path: str, block_id: int, generation: int, length: int
    ) -> None:
        self._append(OP_ADD_BLOCK, path, block_id, generation, length)

    def log_abandon_block(self, path: str, block_id: int) -> None:
        self._append(OP_ABANDON_BLOCK, path, block_id)

    def log_complete(self, path: str, mtime: float) -> None:
        self._append(OP_COMPLETE, path, mtime)

    def log_delete(self, path: str, recursive: bool) -> None:
        self._append(OP_DELETE, path, bool(recursive))

    def log_rename(self, src: str, dst: str) -> None:
        self._append(OP_RENAME, src, dst)

    def log_set_replication(self, path: str, replication: int) -> None:
        self._append(OP_SET_REPLICATION, path, replication)

    def log_set_quota(
        self,
        path: str,
        namespace_quota: int | None,
        space_quota: int | None,
    ) -> None:
        self._append(OP_SET_QUOTA, path, namespace_quota, space_quota)

    def log_decommission_start(self, datanode: str) -> None:
        self._append(OP_DECOMM_START, datanode)

    def log_decommission_stop(self, datanode: str) -> None:
        self._append(OP_DECOMM_STOP, datanode)

    # -- checkpoint / recover ---------------------------------------------
    def checkpoint(self) -> CheckpointStats:
        """SecondaryNameNode roll: new fsimage, atomic swap, truncate."""
        if not self.enabled:
            raise HdfsError(
                "journaling is disabled (HdfsConfig.journal=False); "
                "there is nothing to checkpoint"
            )
        if self._snapshot_source is None:
            raise HdfsError("journal has no snapshot source bound")
        state = self._snapshot_source()
        self.storage.write_image(encode_image(state))
        self.storage.rewrite_edits(edits_header())
        image_inodes, image_blocks = _image_size(state)
        stats = CheckpointStats(
            edits_truncated=self.edits_since_checkpoint,
            image_inodes=image_inodes,
            image_blocks=image_blocks,
        )
        self.edits_since_checkpoint = 0
        self.checkpoints += 1
        self.last_checkpoint = stats
        return stats

    def recover(self) -> ImageState:
        """Load the fsimage, replay the edit log's valid prefix, and
        truncate any torn tail so later appends land on clean frames."""
        if not self.enabled:
            raise HdfsError(
                "journaling is disabled (HdfsConfig.journal=False); "
                "a crashed NameNode cannot recover without a journal"
            )
        image_blob = self.storage.read_image()
        if image_blob is None:
            state = empty_image_state()
        else:
            state = decode_image(image_blob)
        image_inodes, image_blocks = _image_size(state)
        blob = self.storage.edits_blob()
        scan = scan_edits(blob)
        for op, values in scan.records:
            apply_edit(state, op, values)
        if scan.torn_bytes:
            valid = blob[: scan.valid_bytes]
            self.storage.rewrite_edits(valid if valid else edits_header())
        self.edits_since_checkpoint = len(scan.records)
        self.recoveries += 1
        self.last_recovery = RecoveryStats(
            replayed_edits=len(scan.records),
            torn_bytes=scan.torn_bytes,
            image_inodes=image_inodes,
            image_blocks=image_blocks,
        )
        return state

    # -- fault hooks -------------------------------------------------------
    def tear_tail(self, drop_bytes: int | None = None) -> int:
        """Chop bytes off the edit-log tail (the ``journal.torn_tail``
        fault).  With no explicit count, tears halfway into the last
        fully-written record — deterministically."""
        if not self.enabled:
            return 0
        blob = self.storage.edits_blob()
        if drop_bytes is None:
            scan = scan_edits(blob)
            if not scan.offsets:
                return 0
            last_start = scan.offsets[-1]
            keep = last_start + (scan.valid_bytes - last_start) // 2
            drop = len(blob) - keep
        else:
            drop = min(max(0, int(drop_bytes)), len(blob))
        if drop:
            self.storage.rewrite_edits(blob[: len(blob) - drop])
        return drop

    def describe(self) -> str:
        if not self.enabled:
            return "Journal: disabled (HdfsConfig.journal=False)"
        storage_kind = type(self.storage).__name__
        return (
            f"Journal: {self.edits_logged} edits logged "
            f"({self.edits_since_checkpoint} since last checkpoint), "
            f"{self.checkpoints} checkpoints, "
            f"{self.recoveries} recoveries, storage={storage_kind}"
        )
