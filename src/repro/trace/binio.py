"""Compact block-indexed binary encoding of dynamic traces.

The line-oriented text format (:mod:`repro.trace.textio`) is human readable
but slow to parse.  This module provides the production trace encoding:
struct-packed records plus a footer carrying a *block-offset index*, which
is what lets :mod:`repro.trace.columnar` decode whole runs of records in
lockstep.  Every analysis walks this encoding: inputs in any other form (an
in-memory trace, a text file, a version-1 file) are first encoded into
memory by :func:`encode_trace`.

File layout (all integers little-endian)::

    header   "ACTB" | u16 version | u16 reserved | u16 len | module name utf-8
    records  one variable-length block per TraceRecord (see below)
    footer   "ACTF" | globals | string table | block index | content digest
    trailer  u64 footer offset | "ACTE"

Since format version 2 the footer also records a **content digest**: the
SHA-256 of every record block (in stream order) followed by the encoded
globals section, maintained incrementally by the writer as it streams.  The
digest identifies the trace *content* independently of the file it lives in,
which is what the artifact store (:mod:`repro.store`) keys analysis results
on — reading it back costs one footer decode, no record I/O.  Version-1
files (no digest field) are still read; their digest is reported as ``None``
and :func:`repro.store.digest.compute_trace_digest` falls back to hashing
the raw file bytes.

Record block::

    i64 dyn id | i32 opcode | i32 line | i32 column | i32 bb label
    u32 opcode-name id | u32 function id | u32 bb-id id | u32 callee id
    u8 operand count | u8 has-result flag
    ... operands ... [result]

Operand::

    u8 flags (bit0 register, bit1 has-address, bits 4-5 value tag)
    u32 index id | i32 bits | u32 name id
    value: i64 (tag 0) / f64 (tag 1) / u32 len + decimal utf-8 (tag 2)
    [u64 address when bit1 set]

All strings in record blocks are interned into the footer's string table and
referenced by u32 id, which both shrinks the file and makes decoding a list
lookup instead of a utf-8 decode.  The block index stores the byte offset of
every ``INDEX_STRIDE``-th record block, so a reader can seek to (almost) any
record without scanning, and :func:`partition_offsets_binary` can split the
file into exact block-aligned byte ranges without reading record data at all
(the parallel reader of :mod:`repro.trace.partition`, paper Sec. V-A).
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from repro.trace.records import (
    GlobalSymbol,
    Trace,
    TraceOperand,
    TraceRecord,
)

BINARY_MAGIC = b"ACTB"
FOOTER_MAGIC = b"ACTF"
TRAILER_MAGIC = b"ACTE"
#: Version written by :class:`TraceBinaryWriter` (2 adds the footer digest).
BINARY_VERSION = 2
#: Versions :func:`read_layout` accepts.
SUPPORTED_VERSIONS = (1, 2)
#: One block-index entry is emitted every this many records.
INDEX_STRIDE = 256

_HEADER = struct.Struct("<4sHHH")
_TRAILER = struct.Struct("<Q4s")
_RECORD_FIXED = struct.Struct("<qiiiiIIIIBB")
_OPERAND_FIXED = struct.Struct("<BIiI")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_GLOBAL_FIXED = struct.Struct("<QQIB")

_VALUE_INT = 0
_VALUE_FLOAT = 1
_VALUE_BIG = 2

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


class BinaryTraceError(ValueError):
    """Raised when a file does not follow the binary trace encoding."""


def is_binary_trace_file(path: str) -> bool:
    """True when ``path`` starts with the binary trace magic."""
    with open(path, "rb") as handle:
        return handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC


# --------------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------------- #
def encode_globals(globals_: Iterable[GlobalSymbol]) -> bytes:
    """The footer's encoded globals section (without its count prefix).

    The content digest covers exactly these bytes after the record blocks,
    so the writer and :func:`verify_content_digest` share this encoding.
    """
    parts: List[bytes] = []
    for symbol in globals_:
        name_bytes = symbol.name.encode()
        parts.append(_U16.pack(len(name_bytes)))
        parts.append(name_bytes)
        parts.append(_GLOBAL_FIXED.pack(symbol.address, symbol.size_bytes,
                                        symbol.element_bits,
                                        1 if symbol.is_array else 0))
    return b"".join(parts)


class TraceBinaryWriter:
    """Stream a trace to a binary file as it is generated.

    Implements the same sink protocol as
    :class:`repro.trace.textio.TraceTextWriter` (``write_global`` /
    ``write_record``), so the tracing interpreter can stream directly into
    the binary format.  Globals and the string table live in the footer, so
    they may arrive at any point before :meth:`close`.

    The writer also maintains the trace's **content digest** (SHA-256 over
    the record blocks in stream order plus the encoded globals section) as a
    by-product of encoding — one incremental hash update per block, no
    second pass — and records it in the footer.  Pass ``fileobj`` to encode
    into an existing binary sink (e.g. a discard sink when only the digest
    is wanted); the writer then never opens or closes a file of its own.
    """

    def __init__(self, path: Optional[str], module_name: str = "module",
                 fileobj: Optional[IO[bytes]] = None) -> None:
        if (path is None) == (fileobj is None):
            raise ValueError("pass exactly one of path or fileobj")
        self.path = path
        self.module_name = module_name
        self._owns_handle = fileobj is None
        self._fh: Optional[IO[bytes]] = (open(path, "wb") if fileobj is None
                                         else fileobj)
        name_bytes = module_name.encode()
        self._fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, 0,
                                    len(name_bytes)))
        self._fh.write(name_bytes)
        self._offset = _HEADER.size + len(name_bytes)
        self._globals: List[GlobalSymbol] = []
        self._strings: List[str] = []
        self._string_ids: dict = {}
        self._index: List[int] = []
        self._record_count = 0
        self._digest = hashlib.sha256()
        self._digest_hex: Optional[str] = None

    # ------------------------------------------------------------------ #
    def _intern(self, text: str) -> int:
        string_id = self._string_ids.get(text)
        if string_id is None:
            string_id = len(self._strings)
            self._strings.append(text)
            self._string_ids[text] = string_id
        return string_id

    def _encode_operand(self, parts: List[bytes], operand: TraceOperand) -> None:
        value = operand.value
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float):
            tag = _VALUE_FLOAT
            value_bytes = _F64.pack(value)
        elif _INT64_MIN <= value <= _INT64_MAX:
            tag = _VALUE_INT
            value_bytes = _I64.pack(value)
        else:
            tag = _VALUE_BIG
            digits = str(value).encode("ascii")
            value_bytes = _U32.pack(len(digits)) + digits
        flags = ((1 if operand.is_register else 0)
                 | (2 if operand.address is not None else 0)
                 | (tag << 4))
        parts.append(_OPERAND_FIXED.pack(flags, self._intern(operand.index),
                                         operand.bits,
                                         self._intern(operand.name)))
        parts.append(value_bytes)
        if operand.address is not None:
            parts.append(_U64.pack(operand.address))

    def write_global(self, symbol: GlobalSymbol) -> None:
        """Queue one module global for the footer's preamble section.

        Args:
            symbol: the global's name, base address and extent.  May be
                called at any point before :meth:`close` (globals live in
                the footer, not ahead of the records).
        """
        assert self._fh is not None
        self._globals.append(symbol)

    def write_record(self, record: TraceRecord) -> None:
        """Append one record block (and its index entry when due).

        Args:
            record: the executed instruction to encode; its strings are
                interned into the footer's string table.
        """
        assert self._fh is not None
        if self._record_count % INDEX_STRIDE == 0:
            self._index.append(self._offset)
        parts: List[bytes] = [_RECORD_FIXED.pack(
            record.dyn_id, record.opcode, record.line, record.column,
            record.bb_label,
            self._intern(record.opcode_name), self._intern(record.function),
            self._intern(record.bb_id), self._intern(record.callee),
            len(record.operands), 1 if record.result is not None else 0)]
        for operand in record.operands:
            self._encode_operand(parts, operand)
        if record.result is not None:
            self._encode_operand(parts, record.result)
        block = b"".join(parts)
        self._fh.write(block)
        self._digest.update(block)
        self._offset += len(block)
        self._record_count += 1

    @property
    def record_count(self) -> int:
        """Number of record blocks written so far."""
        return self._record_count

    @property
    def digest_hex(self) -> Optional[str]:
        """The trace's content digest; available once :meth:`close` ran."""
        return self._digest_hex

    def _write_footer(self) -> None:
        assert self._fh is not None
        footer_offset = self._offset
        globals_bytes = encode_globals(self._globals)
        # Content digest = record blocks (already folded in, in stream
        # order) + encoded globals.  The string table and block index are
        # derived data and deliberately excluded.
        self._digest.update(globals_bytes)
        digest = self._digest.digest()
        self._digest_hex = digest.hex()
        out: List[bytes] = [FOOTER_MAGIC, _U32.pack(len(self._globals)),
                            globals_bytes]
        out.append(_U32.pack(len(self._strings)))
        for text in self._strings:
            text_bytes = text.encode()
            out.append(_U16.pack(len(text_bytes)))
            out.append(text_bytes)
        out.append(_U32.pack(INDEX_STRIDE))
        out.append(_U64.pack(self._record_count))
        out.append(_U32.pack(len(self._index)))
        for offset in self._index:
            out.append(_U64.pack(offset))
        out.append(_U8.pack(len(digest)))
        out.append(digest)
        out.append(_TRAILER.pack(footer_offset, TRAILER_MAGIC))
        self._fh.write(b"".join(out))

    def close(self) -> None:
        """Write the footer (globals + string table + block index + content
        digest) and the trailer, then close the file.  Idempotent; a file
        without its trailer is detected as truncated by
        :func:`read_layout`.  An externally supplied ``fileobj`` is left
        open (the caller owns it)."""
        if self._fh is not None:
            self._write_footer()
            if self._owns_handle:
                self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceBinaryWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace_file_binary(trace: Trace, path: str) -> int:
    """Write an in-memory trace to ``path``; return the file size in bytes."""
    with TraceBinaryWriter(path, module_name=trace.module_name) as writer:
        for symbol in trace.globals:
            writer.write_global(symbol)
        for record in trace.records:
            writer.write_record(record)
    return os.path.getsize(path)


def encode_trace(module_name: str, globals_: Iterable[GlobalSymbol],
                 records: Iterable[TraceRecord]) -> Tuple[bytes, str]:
    """Encode a trace into an in-memory binary file.

    ``records`` may be any iterable (a list, or a file-backed record
    stream); it is consumed once.

    Returns:
        ``(file bytes, content digest)`` — the bytes a
        :class:`TraceBinaryWriter` would write to disk, and the digest its
        footer carries.
    """
    sink = io.BytesIO()
    with TraceBinaryWriter(None, module_name=module_name,
                           fileobj=sink) as writer:
        for symbol in globals_:
            writer.write_global(symbol)
        for record in records:
            writer.write_record(record)
    assert writer.digest_hex is not None
    return sink.getvalue(), writer.digest_hex


# --------------------------------------------------------------------------- #
# Footer / index
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BinaryTraceLayout:
    """Everything the footer knows: globals, string table and block index."""

    module_name: str
    globals: List[GlobalSymbol]
    strings: List[str]
    index_stride: int
    record_count: int
    #: byte offset of every ``index_stride``-th record block
    block_offsets: List[int]
    #: byte offset of the first record block
    records_start: int
    #: byte offset one past the last record block (== footer offset)
    records_end: int
    #: hex SHA-256 of the trace content (``None`` for version-1 files,
    #: which predate the footer digest)
    content_digest: Optional[str] = None

    def seek_position(self, record_index: int) -> Tuple[int, int]:
        """(byte offset, records to skip) to reach ``record_index``."""
        if record_index <= 0 or not self.block_offsets:
            return self.records_start, max(0, record_index)
        entry = min(record_index // self.index_stride,
                    len(self.block_offsets) - 1)
        return (self.block_offsets[entry],
                record_index - entry * self.index_stride)


def _read_exact(handle: IO[bytes], count: int,
                path: Optional[str] = None) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        where = f" {path!r}" if path else ""
        raise BinaryTraceError(f"truncated binary trace file{where}")
    return data


# Footers of same-shaped traces share one compiled Struct for the block
# index; an f-string format would recompile it on every read_layout call.
_BLOCK_OFFSETS_STRUCTS: dict = {}


def _block_offsets_struct(entry_count: int) -> struct.Struct:
    layout = _BLOCK_OFFSETS_STRUCTS.get(entry_count)
    if layout is None:
        layout = struct.Struct(f"<{entry_count}Q")
        _BLOCK_OFFSETS_STRUCTS[entry_count] = layout
    return layout


def _parse_footer(footer: bytes, version: int, module_name: str,
                  records_start: int, footer_offset: int,
                  name: str) -> BinaryTraceLayout:
    """Decode the footer bytes into a :class:`BinaryTraceLayout`.

    The working ``memoryview`` is released deterministically on every exit
    path so callers handing in a slice of an ``mmap`` can close the mapping
    immediately afterwards.
    """
    view = memoryview(footer)
    try:
        if view[:4].tobytes() != FOOTER_MAGIC:
            raise BinaryTraceError(f"{name!r}: corrupt binary trace footer")
        position = 4
        (global_count,) = _U32.unpack_from(view, position)
        position += 4
        globals_: List[GlobalSymbol] = []
        for _ in range(global_count):
            (name_len,) = _U16.unpack_from(view, position)
            position += 2
            symbol_name = (view[position:position + name_len].tobytes()
                           .decode("utf-8"))
            position += name_len
            (address, size_bytes, element_bits,
             is_array) = _GLOBAL_FIXED.unpack_from(view, position)
            position += _GLOBAL_FIXED.size
            globals_.append(GlobalSymbol(name=symbol_name, address=address,
                                         size_bytes=size_bytes,
                                         element_bits=element_bits,
                                         is_array=bool(is_array)))
        (string_count,) = _U32.unpack_from(view, position)
        position += 4
        strings: List[str] = []
        for _ in range(string_count):
            (text_len,) = _U16.unpack_from(view, position)
            position += 2
            strings.append(view[position:position + text_len].tobytes()
                           .decode("utf-8"))
            position += text_len
        (index_stride,) = _U32.unpack_from(view, position)
        position += 4
        (record_count,) = _U64.unpack_from(view, position)
        position += 8
        (entry_count,) = _U32.unpack_from(view, position)
        position += 4
        block_offsets = list(
            _block_offsets_struct(entry_count).unpack_from(view, position))
        position += 8 * entry_count
        content_digest: Optional[str] = None
        if version >= 2:
            (digest_len,) = _U8.unpack_from(view, position)
            position += 1
            content_digest = (view[position:position + digest_len]
                              .tobytes().hex())
    finally:
        view.release()
    return BinaryTraceLayout(module_name=module_name, globals=globals_,
                             strings=strings, index_stride=index_stride,
                             record_count=record_count,
                             block_offsets=block_offsets,
                             records_start=records_start,
                             records_end=footer_offset,
                             content_digest=content_digest)


def read_layout(path: str) -> BinaryTraceLayout:
    """Read the header and footer (globals + string table + index).

    Every failure mode names the offending file in the exception message —
    a truncated, version-skewed or corrupt trace surfaced deep inside a
    batch run must be attributable without a stack trace.
    """
    file_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        magic, version, _, name_len = _HEADER.unpack(
            _read_exact(handle, _HEADER.size, path))
        if magic != BINARY_MAGIC:
            raise BinaryTraceError(f"{path!r} is not a binary trace file")
        if version not in SUPPORTED_VERSIONS:
            raise BinaryTraceError(
                f"{path!r}: unsupported binary trace version {version} "
                f"(supported: {SUPPORTED_VERSIONS})")
        module_name = _read_exact(handle, name_len, path).decode("utf-8")
        records_start = _HEADER.size + name_len
        if file_size < records_start + _TRAILER.size:
            raise BinaryTraceError(f"truncated binary trace file {path!r}")
        handle.seek(file_size - _TRAILER.size)
        footer_offset, trailer = _TRAILER.unpack(
            _read_exact(handle, _TRAILER.size, path))
        if trailer != TRAILER_MAGIC:
            raise BinaryTraceError(
                f"{path!r}: missing binary trace trailer "
                f"(file truncated or still being written)")
        handle.seek(footer_offset)
        footer = handle.read(file_size - _TRAILER.size - footer_offset)
    return _parse_footer(footer, version, module_name, records_start,
                         footer_offset, path)


def layout_from_buffer(buffer, name: Optional[str] = None,
                       ) -> BinaryTraceLayout:
    """Parse the layout from an already-open whole-file buffer / ``mmap``.

    The warm-path counterpart of :func:`read_layout`: callers that just
    wrote a trace (or hold it mapped) hand the bytes straight back to a
    reader without reopening the file or re-reading the footer from disk.
    ``name`` labels error messages (defaults to ``"<buffer>"``).
    """
    name = name or "<buffer>"
    view = memoryview(buffer)
    try:
        file_size = len(view)
        if file_size < _HEADER.size:
            raise BinaryTraceError(f"truncated binary trace file {name!r}")
        magic, version, _, name_len = _HEADER.unpack_from(view, 0)
        if magic != BINARY_MAGIC:
            raise BinaryTraceError(f"{name!r} is not a binary trace file")
        if version not in SUPPORTED_VERSIONS:
            raise BinaryTraceError(
                f"{name!r}: unsupported binary trace version {version} "
                f"(supported: {SUPPORTED_VERSIONS})")
        records_start = _HEADER.size + name_len
        if file_size < records_start + _TRAILER.size:
            raise BinaryTraceError(f"truncated binary trace file {name!r}")
        module_name = (view[_HEADER.size:records_start].tobytes()
                       .decode("utf-8"))
        footer_offset, trailer = _TRAILER.unpack_from(
            view, file_size - _TRAILER.size)
        if trailer != TRAILER_MAGIC:
            raise BinaryTraceError(
                f"{name!r}: missing binary trace trailer "
                f"(file truncated or still being written)")
        footer = view[footer_offset:file_size - _TRAILER.size].tobytes()
    finally:
        view.release()
    return _parse_footer(footer, version, module_name, records_start,
                         footer_offset, name)


def verify_content_digest(buffer, name: Optional[str] = None) -> bool:
    """Check a whole binary file's footer digest against its content.

    Re-folds the digest the writer computes — the record region followed
    by the encoded globals — over ``buffer`` and compares it with the
    footer's.  Hashes raw bytes only; no record is decoded.  Version-1
    files carry no digest and always pass.  The header and the footer's
    string table are outside the digest, so a file whose string table
    was rewritten still passes.

    Raises:
        BinaryTraceError: when ``buffer`` is not a readable binary trace.
    """
    layout = layout_from_buffer(buffer, name=name)
    if layout.content_digest is None:
        return True
    sha256 = hashlib.sha256(
        memoryview(buffer)[layout.records_start:layout.records_end])
    sha256.update(encode_globals(layout.globals))
    return sha256.hexdigest() == layout.content_digest


def read_preamble_binary(path: str) -> Tuple[str, List[GlobalSymbol]]:
    """Module name and globals of a binary trace (footer read only)."""
    layout = read_layout(path)
    return layout.module_name, layout.globals


# --------------------------------------------------------------------------- #
# Decoder
# --------------------------------------------------------------------------- #
# Operand blocks come in four fixed layouts (int/float value × with/without
# address) plus a rare variable-length one (big integers).  The flags byte
# fully determines the layout, so a 256-entry dispatch table keyed by it
# turns operand decoding into a single precompiled ``unpack_from`` call —
# this is what makes the binary reader several times faster than the text
# parser, which pays one ``str.split`` plus several ``int()`` calls per line.
def _build_operand_table():
    layouts = {
        _VALUE_INT: ("q", _I64), _VALUE_FLOAT: ("d", _F64),
    }
    table: List[Optional[Tuple]] = [None] * 256
    for flags in range(256):
        tag = flags >> 4
        if tag not in layouts:
            continue  # big-int (or invalid) values take the slow path
        value_code = layouts[tag][0]
        has_addr = bool(flags & 2)
        layout = struct.Struct("<BIiI" + value_code + ("Q" if has_addr else ""))
        table[flags] = (layout.unpack_from, layout.size, has_addr,
                        bool(flags & 1))
    return table


_OPERAND_TABLE = _build_operand_table()


def _decode_operand_slow(buf, position: int,
                         strings: List[str]) -> Tuple[TraceOperand, int]:
    """Variable-length (big-integer) and validation fallback."""
    flags, index_id, bits, name_id = _OPERAND_FIXED.unpack_from(buf, position)
    position += _OPERAND_FIXED.size
    tag = flags >> 4
    if tag != _VALUE_BIG:
        raise BinaryTraceError(f"unknown operand value tag {tag}")
    (digit_count,) = _U32.unpack_from(buf, position)
    position += 4
    if position + digit_count > len(buf):
        raise struct.error("big-integer value overruns the buffer")
    value = int(bytes(buf[position:position + digit_count]))
    position += digit_count
    if flags & 2:
        (address,) = _U64.unpack_from(buf, position)
        position += 8
    else:
        address = None
    return TraceOperand(strings[index_id], bits, value, bool(flags & 1),
                        strings[name_id], address), position


def _decode_record(buf, position: int, strings: List[str],
                   ) -> Tuple[TraceRecord, int]:
    """Decode one record block at ``position``; return (record, next position)."""
    (dyn_id, opcode, line, column, bb_label, opcode_name_id, function_id,
     bb_id_id, callee_id, operand_count,
     has_result) = _RECORD_FIXED.unpack_from(buf, position)
    position += _RECORD_FIXED.size
    table = _OPERAND_TABLE
    operands: List[TraceOperand] = []
    result: Optional[TraceOperand] = None
    for slot in range(operand_count + has_result):
        entry = table[buf[position]]
        if entry is None:
            operand, position = _decode_operand_slow(buf, position, strings)
        else:
            unpack, size, has_addr, is_register = entry
            if has_addr:
                _, index_id, bits, name_id, value, address = unpack(
                    buf, position)
            else:
                _, index_id, bits, name_id, value = unpack(buf, position)
                address = None
            position += size
            operand = TraceOperand(strings[index_id], bits, value,
                                   is_register, strings[name_id], address)
        if slot < operand_count:
            operands.append(operand)
        else:
            result = operand
    record = TraceRecord(dyn_id, opcode, strings[opcode_name_id],
                         strings[function_id], line, column, bb_label,
                         strings[bb_id_id], operands, result,
                         strings[callee_id])
    return record, position


def decode_record_range(buf, start: int, end: int,
                        strings: List[str]) -> List[TraceRecord]:
    """Decode every record block in ``buf[start:end]``."""
    records: List[TraceRecord] = []
    append = records.append
    decode = _decode_record
    position = start
    while position < end:
        record, position = decode(buf, position, strings)
        append(record)
    if position != end:
        raise BinaryTraceError("record block overruns the record region")
    return records


# --------------------------------------------------------------------------- #
# Readers
# --------------------------------------------------------------------------- #
class TraceBinaryReader:
    """Read a binary trace back into memory, serially or record by record.

    Accepts either a ``path`` or an already-open whole-file ``buffer`` /
    ``mmap`` (optionally with a pre-read ``layout``), so warm re-reads
    within one process — e.g. ``analyze-batch`` generating a trace and
    immediately analyzing it — skip the reopen and the footer re-parse.
    """

    def __init__(self, path: Optional[str] = None,
                 layout: Optional[BinaryTraceLayout] = None,
                 buffer=None) -> None:
        if (path is None) and (buffer is None):
            raise ValueError("pass a path or an already-open buffer")
        self.path = path
        self._buffer = buffer
        if layout is None:
            layout = (layout_from_buffer(buffer, name=path)
                      if buffer is not None else read_layout(path))
        self.layout = layout

    def read(self) -> Trace:
        """Decode the whole file into an in-memory :class:`Trace`.

        Returns:
            The trace with its globals preamble and every record, in file
            order.
        """
        layout = self.layout
        if self._buffer is not None:
            records = decode_record_range(self._buffer, layout.records_start,
                                          layout.records_end, layout.strings)
        else:
            with open(self.path, "rb") as handle:
                handle.seek(layout.records_start)
                buf = _read_exact(handle,
                                  layout.records_end - layout.records_start)
            records = decode_record_range(buf, 0, len(buf), layout.strings)
        return Trace(module_name=layout.module_name,
                     globals=list(layout.globals), records=records)

    def iter_records(self, start_record: int = 0,
                     chunk_bytes: int = 1 << 20) -> Iterator[TraceRecord]:
        """Yield records starting at ``start_record`` with bounded memory.

        The block index makes the initial seek O(1); a file source is then
        decoded in ``chunk_bytes`` slices so multi-hundred-MB traces never
        have to be resident at once (an in-memory ``buffer`` source is
        decoded in place).
        """
        layout = self.layout
        offset, skip = layout.seek_position(start_record)
        if self._buffer is not None:
            buf = self._buffer
            position = offset
            end = layout.records_end
            strings = layout.strings
            while position < end:
                record, position = _decode_record(buf, position, strings)
                if skip > 0:
                    skip -= 1
                    continue
                yield record
            return
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            to_read = layout.records_end - offset
            buffer = b""
            position = 0
            while True:
                if position >= len(buffer):
                    if to_read <= 0:
                        return
                    buffer = handle.read(min(chunk_bytes, to_read))
                    to_read -= len(buffer)
                    position = 0
                try:
                    record, position = _decode_record(buffer, position,
                                                      layout.strings)
                except (IndexError, struct.error):
                    # Partial block at the end of the buffer (the flags-byte
                    # peek raises IndexError, fixed-layout unpacks raise
                    # struct.error): pull more bytes and retry.
                    if to_read <= 0:
                        raise BinaryTraceError(
                            f"truncated record block in "
                            f"{self.path!r}") from None
                    extra = handle.read(min(chunk_bytes, to_read))
                    to_read -= len(extra)
                    buffer = buffer[position:] + extra
                    position = 0
                    continue
                if skip > 0:
                    skip -= 1
                    continue
                yield record


def read_trace_file_binary(path: str) -> Trace:
    """Convenience wrapper around :class:`TraceBinaryReader`."""
    return TraceBinaryReader(path).read()


def iter_trace_file_binary(path: str,
                           start_record: int = 0) -> Iterator[TraceRecord]:
    """Stream the records of a binary trace without materializing the trace."""
    return TraceBinaryReader(path).iter_records(start_record=start_record)


# --------------------------------------------------------------------------- #
# Partitioned (parallel) reading
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BinaryPartition:
    """A byte range of record blocks, exact by construction."""

    index: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


def partition_offsets_binary(path_or_layout: Union[str, BinaryTraceLayout],
                             num_partitions: int) -> List[BinaryPartition]:
    """Split the record region into block-aligned byte ranges via the index.

    Unlike the text partitioner there is no boundary *scanning*: every
    candidate boundary comes from the block index, so it is a record start
    by construction and the split is pure byte arithmetic.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    layout = (path_or_layout if isinstance(path_or_layout, BinaryTraceLayout)
              else read_layout(path_or_layout))
    start, end = layout.records_start, layout.records_end
    boundaries = [start]
    for part in range(1, num_partitions):
        target = start + ((end - start) * part) // num_partitions
        entry = bisect_right(layout.block_offsets, target)
        aligned = layout.block_offsets[entry] if entry < len(
            layout.block_offsets) else end
        boundaries.append(max(aligned, boundaries[-1]))
    boundaries.append(end)
    return [BinaryPartition(index=i, start=boundaries[i], end=boundaries[i + 1])
            for i in range(num_partitions)]


def _parse_binary_partition(path: str, start: int, end: int,
                            strings: Optional[List[str]] = None,
                            ) -> List[TraceRecord]:
    """Worker: decode the record blocks in ``[start, end)`` of ``path``."""
    if end <= start:
        return []
    if strings is None:  # process worker: re-read the footer itself
        strings = read_layout(path).strings
    with open(path, "rb") as handle:
        handle.seek(start)
        buf = _read_exact(handle, end - start)
    return decode_record_range(buf, 0, len(buf), strings)


def read_trace_file_binary_parallel(path: str, num_workers: int = 4,
                                    use_processes: bool = False) -> Trace:
    """Read a binary trace by decoding index-aligned partitions concurrently.

    Returns records in file order (identical, record for record, to
    :func:`read_trace_file_binary`); no post-hoc sort is needed because the
    partitions tile the record region in order.
    """
    layout = read_layout(path)
    partitions = partition_offsets_binary(layout, max(1, num_workers))

    if len(partitions) == 1 or num_workers <= 1:
        records = _parse_binary_partition(path, partitions[0].start,
                                          partitions[-1].end, layout.strings)
        return Trace(module_name=layout.module_name,
                     globals=list(layout.globals), records=records)

    executor_cls = ProcessPoolExecutor if use_processes else ThreadPoolExecutor
    chunks: List[Optional[List[TraceRecord]]] = [None] * len(partitions)
    shared_strings = None if use_processes else layout.strings
    with executor_cls(max_workers=num_workers) as executor:
        futures = {
            executor.submit(_parse_binary_partition, path, part.start,
                            part.end, shared_strings): part.index
            for part in partitions
        }
        for future, index in futures.items():
            chunks[index] = future.result()

    records: List[TraceRecord] = []
    for chunk in chunks:
        if chunk:
            records.extend(chunk)
    return Trace(module_name=layout.module_name, globals=list(layout.globals),
                 records=records)
