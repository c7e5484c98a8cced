"""Reference oracle: the edit-record encoder as it was, one field at a
time.

``encode_edit`` walked its opcode's ``EDIT_SPECS`` row and appended each
value with ``_pack_field``.  The production encoder packs by a layout
compiled once per opcode; ``test_edit_codec_differential.py`` holds it
to these bytes and these exceptions.  Not collected by pytest (no
``test_`` prefix).
"""

from __future__ import annotations

import struct

from repro.hdfs.journal import EDIT_SPECS, OP_NAMES
from repro.util.errors import JournalFormatError

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


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
