"""Reference oracle: the journal codecs as they were, one field at a
time.

``encode_edit`` walked its opcode's ``EDIT_SPECS`` row and appended each
value with ``pack_field``; ``encode_image`` did the same for every
fsimage field; ``decode_edit`` and ``decode_image`` read both files back
through ``Reader``'s per-kind methods.  Production packs and unpacks
every record by a layout compiled once per spec row;
``test_edit_codec_differential.py`` holds it to these bytes, these
decoded values and these exceptions.  One difference is intended:
``decode_image`` here reads a file's under-construction byte with
``u8() == 1``, so a byte of 2 loads the file as complete, where
production rejects it like any other bool byte; ``strict_bool=True``
reads it as production does.  Not collected by pytest (no ``test_``
prefix).
"""

from __future__ import annotations

import struct
import zlib

from repro.hdfs.block import Block
from repro.hdfs.journal import EDIT_SPECS, IMAGE_MAGIC, OP_NAMES, VERSION, ImageState
from repro.hdfs.namespace import Namespace
from repro.util.errors import JournalFormatError

_HEADER = struct.Struct(">4sI")
_FRAME = struct.Struct(">II")
_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_KIND_DIR, _KIND_FILE = 0, 1


def pack_field(kind: str, value, out: bytearray) -> None:
    if kind == "str":
        data = value.encode("utf-8")
        out += _U32.pack(len(data))
        out += data
    elif kind == "u32":
        out += _U32.pack(value)
    elif kind == "u64":
        out += _U64.pack(value)
    elif kind == "i64":
        out += _I64.pack(value)
    elif kind == "f64":
        out += _F64.pack(value)
    elif kind == "bool":
        out += _U8.pack(1 if value else 0)
    elif kind == "opt_i64":
        if value is None:
            out += _U8.pack(0)
        else:
            out += _U8.pack(1)
            out += _I64.pack(value)
    else:
        raise AssertionError(f"unknown field kind {kind!r}")


class Reader:
    """Bounds-checked decoding over a memoryview; truncation raises."""

    __slots__ = ("view", "pos")

    def __init__(self, data):
        self.view = memoryview(data)
        self.pos = 0

    def _take(self, n: int) -> memoryview:
        if self.pos + n > len(self.view):
            raise JournalFormatError("truncated journal record")
        chunk = self.view[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def bool_(self) -> bool:
        flag = self.u8()
        if flag not in (0, 1):
            raise JournalFormatError(f"bad bool byte {flag}")
        return flag == 1

    def str_(self) -> str:
        length = self.u32()
        try:
            return bytes(self._take(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JournalFormatError(f"bad UTF-8 in journal string: {exc}") from None

    def opt_i64(self) -> int | None:
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise JournalFormatError(f"bad optional-presence byte {flag}")
        return self.i64()

    def field(self, kind: str):
        if kind == "str":
            return self.str_()
        if kind == "u32":
            return self.u32()
        if kind == "u64":
            return self.u64()
        if kind == "i64":
            return self.i64()
        if kind == "f64":
            return self.f64()
        if kind == "bool":
            return self.bool_()
        if kind == "opt_i64":
            return self.opt_i64()
        raise AssertionError(f"unknown field kind {kind!r}")

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.view)


def encode_edit(op: int, values: tuple) -> bytes:
    spec = EDIT_SPECS.get(op)
    if spec is None:
        raise JournalFormatError(f"unknown edit opcode {op}")
    if len(values) != len(spec):
        raise JournalFormatError(
            f"{OP_NAMES[op]} takes {len(spec)} fields, got {len(values)}"
        )
    out = bytearray(_U8.pack(op))
    for kind, value in zip(spec, values):
        pack_field(kind, value, out)
    return bytes(out)


def decode_edit(payload) -> tuple[int, tuple]:
    reader = Reader(payload)
    op = reader.u8()
    spec = EDIT_SPECS.get(op)
    if spec is None:
        raise JournalFormatError(f"unknown edit opcode {op}")
    values = tuple(reader.field(kind) for kind in spec)
    if not reader.exhausted:
        raise JournalFormatError("trailing bytes after edit record")
    return op, values


def encode_image(state: ImageState) -> bytes:
    body = bytearray()
    body += _U64.pack(state.next_block_id)
    quotas = sorted(state.quotas.items())
    body += _U32.pack(len(quotas))
    for path, (namespace_quota, space_quota) in quotas:
        pack_field("str", path, body)
        pack_field("opt_i64", namespace_quota, body)
        pack_field("opt_i64", space_quota, body)
    decommissioning = sorted(state.decommissioning)
    body += _U32.pack(len(decommissioning))
    for name in decommissioning:
        pack_field("str", name, body)
    entries = list(state.namespace.walk_all("/"))
    body += _U32.pack(len(entries))
    for path, inode in entries:
        if inode.is_dir:
            body += _U8.pack(_KIND_DIR)
            pack_field("str", path, body)
            body += _F64.pack(inode.mtime)
        else:
            body += _U8.pack(_KIND_FILE)
            pack_field("str", path, body)
            body += _F64.pack(inode.mtime)
            body += _U32.pack(inode.replication)
            body += _U8.pack(1 if inode.under_construction else 0)
            body += _U32.pack(len(inode.blocks))
            for block in inode.blocks:
                body += _U64.pack(block.block_id)
                body += _U32.pack(block.generation)
                body += _U64.pack(block.length)
    blob = bytes(body)
    return (
        _HEADER.pack(IMAGE_MAGIC, VERSION)
        + _FRAME.pack(len(blob), zlib.crc32(blob) & 0xFFFFFFFF)
        + blob
    )


def decode_image(blob, strict_bool: bool = False) -> ImageState:
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
    reader = Reader(body)
    next_block_id = reader.u64()
    quotas: dict[str, tuple[int | None, int | None]] = {}
    for _ in range(reader.u32()):
        path = reader.str_()
        quotas[path] = (reader.opt_i64(), reader.opt_i64())
    decommissioning = {reader.str_() for _ in range(reader.u32())}
    ns = Namespace()
    for _ in range(reader.u32()):
        kind = reader.u8()
        path = reader.str_()
        mtime = reader.f64()
        if kind == _KIND_DIR:
            if path == "/":
                ns.root.mtime = mtime
            else:
                ns.mkdirs(path, mtime=mtime)
        elif kind == _KIND_FILE:
            replication = reader.u32()
            under_construction = reader.bool_() if strict_bool else reader.u8() == 1
            blocks = [
                Block(
                    block_id=reader.u64(),
                    generation=reader.u32(),
                    length=reader.u64(),
                )
                for _ in range(reader.u32())
            ]
            inode = ns.create_file(path, replication=replication, mtime=mtime)
            inode.blocks = blocks
            inode.under_construction = under_construction
            inode.mtime = mtime
        else:
            raise JournalFormatError(f"unknown inode kind {kind}")
    if not reader.exhausted:
        raise JournalFormatError("trailing bytes in fsimage body")
    return ImageState(
        namespace=ns,
        quotas=quotas,
        decommissioning=decommissioning,
        next_block_id=next_block_id,
    )
