"""Compact block-indexed binary encoding of dynamic traces.

The line-oriented text format (:mod:`repro.trace.textio`) is human readable
but slow to parse.  This module provides the production trace encoding:
struct-packed records plus a footer carrying a *block-offset index*, which
is what lets :mod:`repro.trace.columnar` decode whole runs of records in
lockstep.  The tracing interpreter writes it directly, one emit template
per instruction (:meth:`TraceBinaryWriter.template`) and one packer per
value-flag signature (:meth:`TraceBinaryWriter.emitter`).  A packer only
appends its record's bytes; the writer writes them out in whole blocks
of ``INDEX_STRIDE`` records (:meth:`TraceBinaryWriter.write_blocks`) when
the interpreter enters a basic block, after each ``write_record`` and at
``close``, so blocks start every ``INDEX_STRIDE`` records.  Every analysis
walks this encoding, and an in-memory :class:`~repro.trace.records.Trace`
holds it with its :class:`BinaryTraceLayout`: a trace built from records,
a text file or a version-1 file is encoded once by :func:`encode_trace`,
whose writer hands over the layout of the bytes it wrote, and bytes from
elsewhere have their footer parsed once.  A whole file's bytes of either
encoding become a ``Trace`` through one front door,
:func:`repro.trace.textio.trace_from_bytes`.  Over those bytes and that
layout, :func:`decode_records` is the one per-record decoder and
:func:`check_content_digest` checks the footer digest.

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
files (no digest field) are still read; their digest is reported as ``None``,
and the store keys such a file, like a text file, by the SHA-256 of its raw
bytes (:meth:`repro.core.pipeline.AutoCheck.cache_key`).

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
every ``INDEX_STRIDE``-th record block, so the columnar decoder can step
through whole index blocks in lockstep.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import struct
from dataclasses import dataclass, field
from typing import (
    IO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
INDEX_STRIDE = 64
#: The buffer of a trace file the writer opens, so its blocks go out in
#: few ``write`` system calls rather than one per block.
_FILE_BUFFER_BYTES = 1 << 20

_HEADER = struct.Struct("<4sHHH")
_TRAILER = struct.Struct("<Q4s")
_RECORD_FIXED = struct.Struct("<qiiiiIIIIBB")
#: A record block's fixed part after the dyn id.
_RECORD_HEAD = struct.Struct("<iiiiIIIIBB")
#: The dyn id followed by a template's packed ``_RECORD_HEAD``.
_pack_record_start = struct.Struct(f"<q{_RECORD_HEAD.size}s").pack
_OPERAND_FIXED = struct.Struct("<BIiI")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_pack_i64 = _I64.pack
_pack_f64 = _F64.pack
_pack_i64_u64 = struct.Struct("<qQ").pack
_pack_f64_u64 = struct.Struct("<dQ").pack
_GLOBAL_FIXED = struct.Struct("<QQIB")

_VALUE_INT = 0
_VALUE_FLOAT = 1
_VALUE_BIG = 2

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


class BinaryTraceError(ValueError):
    """Raised when a file does not follow the binary trace encoding."""


class TraceDigestMismatch(BinaryTraceError):
    """The bytes a publishing walk read do not hash to the digest its store
    key came from — a binary trace's footer digest, or the raw-byte digest
    of a text or version-1 file: the trace changed after it was written or
    keyed, and a report of it must not be stored under that key."""

    def __init__(self, path: Optional[str], expected: str, actual: str,
                 keyed_by: str = "the footer digest") -> None:
        super().__init__(
            f"{path or '<buffer>'!r}: content digest {actual} does not match "
            f"{keyed_by} {expected} (the trace changed after it was written "
            f"or keyed)")
        self.path = path
        self.expected = expected
        self.actual = actual


# --------------------------------------------------------------------------- #
# Layout and content digest
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BinaryTraceLayout:
    """Everything the footer knows: globals, string table and block index.

    The writer builds it from what it wrote (:attr:`TraceBinaryWriter.layout`);
    a reader of bytes from elsewhere parses it (:func:`read_layout`,
    :func:`layout_from_buffer`).
    """

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


def encode_globals(globals_: Iterable[GlobalSymbol]) -> bytes:
    """The footer's encoded globals section (without its count prefix).

    The content digest covers exactly these bytes after the record blocks
    (see :class:`_DigestFold`).
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


class _DigestFold:
    """The content digest: SHA-256 over record bytes in stream order, then
    the encoded globals.

    The one fold of the digest: the writer adds each block it writes, a
    publishing walk each span it reads, and :func:`check_content_digest`
    a trace's whole record region.  The sum equals the footer digest only
    when the spans tile the record region in order.
    """

    def __init__(self, records_start: int) -> None:
        self.sha256 = hashlib.sha256()
        self.position = records_start
        self.tiled = True

    def add(self, start: int, data) -> None:
        self.tiled = self.tiled and start == self.position
        self.sha256.update(data)
        self.position = start + len(data)

    def finish(self, globals_bytes: bytes) -> bytes:
        """The digest, once ``globals_bytes`` (:func:`encode_globals`)
        follow the records."""
        self.sha256.update(globals_bytes)
        return self.sha256.digest()

    def check(self, layout: BinaryTraceLayout, name: Optional[str]) -> None:
        """Raise :class:`TraceDigestMismatch` naming ``name`` unless the
        bytes added are ``layout``'s record region and, with its globals,
        fold to its footer digest (a version-1 layout has none to check)."""
        if layout.content_digest is None:
            return
        actual = self.finish(encode_globals(layout.globals)).hex()
        if (not self.tiled or self.position != layout.records_end
                or actual != layout.content_digest):
            raise TraceDigestMismatch(name, layout.content_digest, actual)


def check_content_digest(trace: Trace) -> None:
    """Refuse ``trace`` unless its record region and globals fold to the
    digest its footer declares.

    Hashes the bytes the trace holds over the layout it keeps: nothing is
    parsed and no record is decoded.  A trace read from version-1 bytes
    holds their version-2 encoding, whose digest it was given, so it
    passes.  The header and the footer's string table lie outside the
    digest, so a trace whose string table was rewritten passes too.  A
    trace that passes records it (:attr:`~Trace.digest_checked`), so its
    walk does not hash the same bytes again.

    Raises:
        TraceDigestMismatch: naming the trace's :attr:`~Trace.source_path`.
    """
    data, _ = trace.encoded()
    layout = trace.layout
    fold = _DigestFold(layout.records_start)
    fold.add(layout.records_start,
             memoryview(data)[layout.records_start:layout.records_end])
    fold.check(layout, trace.source_path)
    trace.digest_checked = True


# --------------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------------- #
def _encode_operand_value(value: Union[int, float],
                         address: Optional[int]) -> Tuple[int, bytes]:
    """One operand's value flag bits and its value (and address) bytes.

    The writer's reference value encoder:
    :meth:`TraceBinaryWriter.write_record` calls it, and an emitter's
    precompiled packer writes the same bytes for an int in int64 range or
    a float and falls back to it for any other value, so a record encodes
    to the same bytes on either path.  A float takes tag 1 (f64); an int
    (a bool is one) in int64 range tag 0 and any other int tag 2 (decimal
    digits).  The has-address bit is set when ``address`` is not ``None``.
    """
    # Flag bits: value tag << 4, plus 2 when an address follows.
    if isinstance(value, float):
        if address is None:
            return 0x10, _pack_f64(value)
        return 0x12, _pack_f64_u64(value, address)
    try:
        if address is None:
            return 0x00, _pack_i64(value)
        return 0x02, _pack_i64_u64(value, address)
    except struct.error:
        if _INT64_MIN <= value <= _INT64_MAX:
            raise  # a bad address, not a big value
    digits = str(int(value)).encode("ascii")
    value_bytes = _U32.pack(len(digits)) + digits
    if address is None:
        return 0x20, value_bytes
    return 0x22, value_bytes + _U64.pack(address)


#: Every value flag combination ``_encode_operand_value`` returns.
_VALUE_FLAGS = (0x00, 0x02, 0x10, 0x12, 0x20, 0x22)

#: One operand slot of a template: ``(index, bits, is_register, name)``;
#: a name of ``None`` stands for the record's pointer symbol.
SlotSpec = Tuple[str, int, bool, Optional[str]]

#: Appends one record with the dyn id, then each slot's value and, for a
#: slot with an address, its address (see :meth:`TraceBinaryWriter.emitter`).
Emitter = Callable[..., None]


def _operand_heads(register: int, index_id: int, bits: int,
                   name_id: int) -> Dict[int, bytes]:
    """An operand's 13-byte head by its value flag bits."""
    return {flags: _OPERAND_FIXED.pack(register | flags, index_id, bits,
                                       name_id)
            for flags in _VALUE_FLAGS}


@dataclass(frozen=True, slots=True)
class EmitTemplate:
    """Everything static about one instruction's record, in one file's ids.

    ``head`` is the 34 bytes after the dyn id.  ``slots`` holds one entry
    per operand, the result last: the operand's heads by value flag bits
    (see :func:`_operand_heads`), or ``None`` for the slot named by the
    record's pointer symbol.  That slot's ``(register, index id, bits)``
    is ``symbol_slot``, and ``symbol_heads`` caches its heads by symbol.
    ``emitters`` caches one record packer per (value-flag signature,
    pointer symbol).
    """

    head: bytes
    slots: Tuple[Optional[Dict[int, bytes]], ...]
    symbol_slot: Optional[Tuple[int, int, int]] = None
    symbol_heads: Dict[str, Dict[int, bytes]] = field(default_factory=dict)
    emitters: Dict[Tuple[Tuple[int, ...], str], Emitter] = field(
        default_factory=dict)


#: Emitter factories by slot address layout (see :func:`_emitter_factory`).
_EMITTER_FACTORIES: Dict[Tuple[bool, ...], Callable[..., Emitter]] = {}


def _emitter_factory(addresses: Tuple[bool, ...]) -> Callable[..., Emitter]:
    """The factory of emitters for records whose slots carry an address
    where ``addresses`` says so.

    An emitter takes its arguments in record order, so it hands them to
    one ``struct.Struct.pack`` with each slot's constant bytes between
    them (the record head rides with the first slot's head), and appends
    the record's bytes to the writer's pending list; it counts nothing,
    since the writer cuts blocks by the list's length
    (:meth:`TraceBinaryWriter.write_blocks`).  It is generated once per
    layout, as :mod:`dataclasses` generates ``__init__``: a Python loop
    that interleaved the constants would cost more than the pack itself.
    A value the packer refuses (an int outside int64, or a value that is
    not an int) falls back to ``encode(dyn_id, fields)``, the per-slot
    encoder of ``write_record``.
    """
    factory = _EMITTER_FACTORIES.get(addresses)
    if factory is None:
        params = ["dyn_id"]
        packed = ["dyn_id", "c0"] if not addresses else ["dyn_id"]
        fields = []
        for slot, has_address in enumerate(addresses):
            params.append(f"v{slot}")
            packed += [f"c{slot}", f"v{slot}"]
            fields.append(f"v{slot}")
            if has_address:
                params.append(f"a{slot}")
                packed.append(f"a{slot}")
            fields.append(f"a{slot}" if has_address else "None")
        constants = "".join(f"c{slot}, "
                            for slot in range(max(1, len(addresses))))
        source = (
            f"def factory(pack, constants, encode, append):\n"
            f"    {constants}= constants\n"
            f"    def emit({', '.join(params)}):\n"
            f"        try:\n"
            f"            append(pack({', '.join(packed)}))\n"
            f"        except error:\n"
            f"            append(encode(dyn_id, ({''.join(f + ', ' for f in fields)})))\n"
            f"    return emit\n")
        namespace: Dict[str, object] = {"error": struct.error}
        exec(source, namespace)
        factory = _EMITTER_FACTORIES[addresses] = \
            namespace["factory"]  # type: ignore[assignment]
    return factory


class TraceBinaryWriter:
    """Stream a trace to a binary file as it is generated.

    Records arrive two ways.  :meth:`write_record` encodes a
    :class:`TraceRecord`.  The tracing interpreter instead compiles one
    :class:`EmitTemplate` per instruction with :meth:`template` and hands
    an :meth:`emitter` of it only the dynamic fields of each execution,
    so no record object is built.  Both paths append one ``bytes`` object
    per record to a pending list, and neither counts: the records are
    written out in whole blocks of ``INDEX_STRIDE`` by
    :meth:`write_blocks`, which the tracing interpreter calls at each
    basic-block entry and :meth:`write_record` after each record.  Each
    block gets its block-index entry, one write and one digest fold, so
    blocks start exactly every ``INDEX_STRIDE`` records; :meth:`close`
    writes the rest as the last block.  Globals and the string table
    live in the footer, so they may arrive at any point before
    :meth:`close`.

    The writer also maintains the trace's **content digest** (SHA-256 over
    the record blocks in stream order plus the encoded globals section) as a
    by-product of encoding — no second pass — and records it in the footer.
    :meth:`close` leaves the :attr:`layout` of the bytes written, built
    from what the writer holds, so whoever keeps those bytes need not
    parse their footer.  Pass ``fileobj`` to encode into an existing
    binary sink; the writer then never opens or closes a file of its own.
    """

    def __init__(self, path: Optional[str], module_name: str = "module",
                 fileobj: Optional[IO[bytes]] = None) -> None:
        if (path is None) == (fileobj is None):
            raise ValueError("pass exactly one of path or fileobj")
        self.path = path
        self.module_name = module_name
        self._owns_handle = fileobj is None
        self._fh: Optional[IO[bytes]] = (
            open(path, "wb", buffering=_FILE_BUFFER_BYTES) if fileobj is None
            else fileobj)
        name_bytes = module_name.encode()
        self._fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, 0,
                                    len(name_bytes)))
        self._fh.write(name_bytes)
        self._records_start = self._offset = _HEADER.size + len(name_bytes)
        self._globals: List[GlobalSymbol] = []
        self._strings: List[str] = []
        self._string_ids: dict = {}
        self._index: List[int] = []
        #: records already written out; the pending list holds the rest
        self._written_records = 0
        #: the bytes of each record not yet written out, one per record
        #: (the emitters append to this list)
        self._pending: List[bytes] = []
        self._fold = _DigestFold(self._records_start)
        #: the layout of the bytes written; set by :meth:`close`
        self.layout: Optional[BinaryTraceLayout] = None

    # ------------------------------------------------------------------ #
    def _intern(self, text: str) -> int:
        string_id = self._string_ids.get(text)
        if string_id is None:
            string_id = len(self._strings)
            self._strings.append(text)
            self._string_ids[text] = string_id
        return string_id

    def _operand_bytes(self, operand: TraceOperand) -> bytes:
        flags, value_bytes = _encode_operand_value(operand.value,
                                                   operand.address)
        return _OPERAND_FIXED.pack(
            (1 if operand.is_register else 0) | flags,
            self._intern(operand.index), operand.bits,
            self._intern(operand.name)) + value_bytes

    def write_blocks(self) -> None:
        """Write out every whole block of ``INDEX_STRIDE`` records still
        pending; fewer records stay pending.

        The tracing interpreter calls it at each basic-block entry, so
        fewer than ``INDEX_STRIDE`` records plus one basic block's are
        ever pending.
        """
        pending = len(self._pending)
        if pending >= INDEX_STRIDE:
            self._write_out(pending - pending % INDEX_STRIDE)

    def _write_out(self, count: int) -> None:
        """Write the first ``count`` pending records as blocks of
        ``INDEX_STRIDE`` (the last one shorter when ``count`` is not a
        multiple): each block gets its index entry, one write and one
        digest fold."""
        assert self._fh is not None
        pending = self._pending
        write, fold, index = self._fh.write, self._fold, self._index
        offset = self._offset
        for start in range(0, count, INDEX_STRIDE):
            block = b"".join(pending[start:start + INDEX_STRIDE])
            index.append(offset)
            write(block)
            fold.add(offset, block)
            offset += len(block)
        # In place: the emitters hold this list's ``append``.
        del pending[:count]
        self._offset = offset
        self._written_records += count

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
        """Append one record block.

        Args:
            record: the executed instruction to encode; its strings are
                interned into the footer's string table.
        """
        assert self._fh is not None
        intern = self._intern
        parts = [_RECORD_FIXED.pack(
            record.dyn_id, record.opcode, record.line, record.column,
            record.bb_label,
            intern(record.opcode_name), intern(record.function),
            intern(record.bb_id), intern(record.callee),
            len(record.operands), 0 if record.result is None else 1)]
        for operand in record.operands:
            parts.append(self._operand_bytes(operand))
        if record.result is not None:
            parts.append(self._operand_bytes(record.result))
        self._pending.append(b"".join(parts))
        self.write_blocks()

    def template(self, opcode: int, opcode_name: str, function: str,
                 line: int, column: int, bb_label: int, bb_id: str,
                 callee: str, operands: Sequence[SlotSpec],
                 result: Optional[SlotSpec] = None,
                 symbol: str = "") -> EmitTemplate:
        """Compile the emit template of one instruction.

        Interns the template's strings in :meth:`write_record`'s order —
        opcode name, function, bb id, callee, then the index and name of
        each operand with the result last — taking ``symbol`` for a slot
        whose name is ``None``.  Built at an instruction's first emission
        (with that record's ``symbol``), it therefore numbers the strings
        exactly as :meth:`write_record` would for the same record.
        """
        intern = self._intern
        head = _RECORD_HEAD.pack(
            opcode, line, column, bb_label, intern(opcode_name),
            intern(function), intern(bb_id), intern(callee), len(operands),
            0 if result is None else 1)
        slots: List[Optional[Dict[int, bytes]]] = []
        symbol_slot: Optional[Tuple[int, int, int]] = None
        for index, bits, is_register, name in (
                *operands, *(() if result is None else (result,))):
            index_id = intern(index)
            register = 1 if is_register else 0
            if name is None:
                symbol_slot = (register, index_id, bits)
                intern(symbol)
                slots.append(None)
            else:
                slots.append(_operand_heads(register, index_id, bits,
                                            intern(name)))
        return EmitTemplate(head, tuple(slots), symbol_slot)

    def _slot_heads(self, template: EmitTemplate,
                    symbol: str) -> List[Dict[int, bytes]]:
        """Each slot's heads by value flags, the symbol slot's named by
        ``symbol`` (interned here when new)."""
        heads = template.symbol_heads.get(symbol)
        if heads is None and template.symbol_slot is not None:
            register, index_id, bits = template.symbol_slot
            heads = template.symbol_heads[symbol] = _operand_heads(
                register, index_id, bits, self._intern(symbol))
        return [slot if slot is not None else heads  # type: ignore[misc]
                for slot in template.slots]

    def _encode_record(self, template: EmitTemplate, symbol: str,
                       dyn_id: int, fields: Sequence) -> bytes:
        """One record's bytes, each slot through ``_encode_operand_value``
        (the emitters' fallback)."""
        parts = [_pack_record_start(dyn_id, template.head)]
        for slot, heads in enumerate(self._slot_heads(template, symbol)):
            flags, value_bytes = _encode_operand_value(fields[2 * slot],
                                                       fields[2 * slot + 1])
            parts.append(heads[flags])
            parts.append(value_bytes)
        return b"".join(parts)

    def emitter(self, template: EmitTemplate, fields: Sequence,
                symbol: str = "") -> Emitter:
        """The emitter of ``template``'s records shaped like ``fields``.

        ``fields`` holds the value and the address (``None`` for none) of
        each slot, in slot order; ``symbol`` names the slot the template
        leaves to the record.  The returned callable appends one record:
        it takes the dyn id, then each slot's value and, for a slot with
        an address, its address, and packs them with one precompiled
        ``struct.Struct``.  It serves every record whose values have the
        classes of ``fields``' values, so callers cache it by those
        classes.  Emitters are cached on the template by value-flag
        signature (float or int tag, address or none, per slot) and
        symbol; a new symbol is interned when its first emitter is built,
        which is when :meth:`write_record` would intern it.
        """
        signature = tuple(
            (0x10 if fields[position].__class__ is float else 0x00)
            | (0x00 if fields[position + 1] is None else 0x02)
            for position in range(0, len(fields), 2))
        key = (signature, symbol)
        emit = template.emitters.get(key)
        if emit is None:
            heads = [slot_heads[flags] for slot_heads, flags in zip(
                self._slot_heads(template, symbol), signature)]
            constants = [template.head + (heads[0] if heads else b""),
                         *heads[1:]]
            codes = [("d" if flags & 0x10 else "q")
                     + ("Q" if flags & 0x02 else "") for flags in signature]
            layout = "".join(f"{len(constant)}s{code}" for constant, code
                             in zip(constants, codes or [""]))
            emit = template.emitters[key] = _emitter_factory(
                tuple(bool(flags & 0x02) for flags in signature))(
                struct.Struct("<q" + layout).pack, constants,
                functools.partial(self._encode_record, template, symbol),
                self._pending.append)
        return emit

    @property
    def record_count(self) -> int:
        """Number of records written so far, the pending ones included."""
        return self._written_records + len(self._pending)

    def _write_footer(self) -> None:
        assert self._fh is not None
        globals_bytes = encode_globals(self._globals)
        # Content digest = record blocks (already folded in, in stream
        # order) + encoded globals.  The string table and block index are
        # derived data and deliberately excluded.
        digest = self._fold.finish(globals_bytes)
        out: List[bytes] = [FOOTER_MAGIC, _U32.pack(len(self._globals)),
                            globals_bytes]
        out.append(_U32.pack(len(self._strings)))
        for text in self._strings:
            text_bytes = text.encode()
            out.append(_U16.pack(len(text_bytes)))
            out.append(text_bytes)
        out.append(_U32.pack(INDEX_STRIDE))
        out.append(_U64.pack(self._written_records))
        out.append(_U32.pack(len(self._index)))
        for offset in self._index:
            out.append(_U64.pack(offset))
        out.append(_U8.pack(len(digest)))
        out.append(digest)
        out.append(_TRAILER.pack(self._offset, TRAILER_MAGIC))
        self._fh.write(b"".join(out))
        self.layout = BinaryTraceLayout(
            module_name=self.module_name, globals=self._globals,
            strings=self._strings, index_stride=INDEX_STRIDE,
            record_count=self._written_records, block_offsets=self._index,
            records_start=self._records_start, records_end=self._offset,
            content_digest=digest.hex())

    def close(self) -> None:
        """Write the pending records (whole blocks, then the rest as the
        last block), the footer (globals + string table + block index +
        content digest) and the trailer, then close the file and set
        :attr:`layout`.  Idempotent; a file without its
        trailer is detected as truncated by :func:`read_layout`.  An
        externally supplied ``fileobj`` is left open (the caller owns
        it)."""
        if self._fh is not None:
            self._write_out(len(self._pending))
            self._write_footer()
            if self._owns_handle:
                self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceBinaryWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace_file_binary(trace: Trace, path: str) -> int:
    """Write a trace's binary encoding to ``path``; return the file size
    in bytes."""
    data = trace.encoded()[0]
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def encode_trace(module_name: str, globals_: Iterable[GlobalSymbol],
                 records: Iterable[TraceRecord],
                 ) -> Tuple[bytes, BinaryTraceLayout]:
    """Encode a trace into an in-memory binary file.

    ``records`` may be any iterable (a list, or a file-backed record
    stream); it is consumed once.

    Returns:
        ``(file bytes, layout)`` — the bytes a :class:`TraceBinaryWriter`
        would write to disk, and the writer's :attr:`~TraceBinaryWriter.layout`
        of them (its ``content_digest`` is the footer's).
    """
    sink = io.BytesIO()
    with TraceBinaryWriter(None, module_name=module_name,
                           fileobj=sink) as writer:
        for symbol in globals_:
            writer.write_global(symbol)
        for record in records:
            writer.write_record(record)
    assert writer.layout is not None
    return sink.getvalue(), writer.layout


# --------------------------------------------------------------------------- #
# Footer / index
# --------------------------------------------------------------------------- #
# Footers of same-shaped traces share one compiled Struct for the block
# index; an f-string format would recompile it on every read_layout call.
_BLOCK_OFFSETS_STRUCTS: dict = {}


def _block_offsets_struct(entry_count: int) -> struct.Struct:
    layout = _BLOCK_OFFSETS_STRUCTS.get(entry_count)
    if layout is None:
        layout = struct.Struct(f"<{entry_count}Q")
        _BLOCK_OFFSETS_STRUCTS[entry_count] = layout
    return layout


def _decode_text(data: bytes, name: str, what: str) -> str:
    """``data`` decoded as UTF-8, or a :class:`BinaryTraceError` naming the
    file ``name`` and the field ``what`` it holds."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BinaryTraceError(
            f"{name!r}: corrupt binary trace: {what} is not UTF-8 "
            f"({exc.reason} at byte {exc.start})") from None


def _parse_footer(footer: bytes, version: int, module_name: str,
                  records_start: int, footer_offset: int,
                  name: str) -> BinaryTraceLayout:
    """Decode the footer bytes into a :class:`BinaryTraceLayout`.

    The block index must agree with the record count: a stride of at
    least 1, one entry per started stride of records, and offsets that
    ascend from ``records_start`` and stay below the footer.  Every
    writer's footer does; one that lies is refused here with a
    :class:`BinaryTraceError` naming ``name``, before any reader trusts
    it.  So is a footer that ends inside a field, or a global name or
    string-table entry that is not UTF-8; the error names the field.

    The working ``memoryview`` is released deterministically on every exit
    path so callers handing in a slice of an ``mmap`` can close the mapping
    immediately afterwards.
    """
    view = memoryview(footer)
    size = len(view)
    field = "the global count"

    def text(position: int, length: int, what: str) -> str:
        if position + length > size:
            raise struct.error("short text")
        return _decode_text(view[position:position + length].tobytes(),
                            name, what)

    try:
        if view[:4].tobytes() != FOOTER_MAGIC:
            raise BinaryTraceError(f"{name!r}: corrupt binary trace footer")
        position = 4
        (global_count,) = _U32.unpack_from(view, position)
        position += 4
        globals_: List[GlobalSymbol] = []
        for index in range(global_count):
            field = f"global {index}"
            (name_len,) = _U16.unpack_from(view, position)
            position += 2
            symbol_name = text(position, name_len,
                               f"the name of global {index}")
            position += name_len
            (address, size_bytes, element_bits,
             is_array) = _GLOBAL_FIXED.unpack_from(view, position)
            position += _GLOBAL_FIXED.size
            globals_.append(GlobalSymbol(name=symbol_name, address=address,
                                         size_bytes=size_bytes,
                                         element_bits=element_bits,
                                         is_array=bool(is_array)))
        field = "the string count"
        (string_count,) = _U32.unpack_from(view, position)
        position += 4
        strings: List[str] = []
        for index in range(string_count):
            field = f"string {index}"
            (text_len,) = _U16.unpack_from(view, position)
            position += 2
            strings.append(text(position, text_len, field))
            position += text_len
        field = "the block index"
        (index_stride,) = _U32.unpack_from(view, position)
        position += 4
        (record_count,) = _U64.unpack_from(view, position)
        position += 8
        (entry_count,) = _U32.unpack_from(view, position)
        position += 4
        if position + 8 * entry_count > size:
            raise struct.error("short block index")
        block_offsets = list(
            _block_offsets_struct(entry_count).unpack_from(view, position))
        position += 8 * entry_count
        content_digest: Optional[str] = None
        if version >= 2:
            field = "the content digest"
            (digest_len,) = _U8.unpack_from(view, position)
            position += 1
            if position + digest_len > size:
                raise struct.error("short digest")
            content_digest = (view[position:position + digest_len]
                              .tobytes().hex())
    except struct.error:
        raise BinaryTraceError(
            f"{name!r}: corrupt binary trace footer: it ends early, in "
            f"{field}") from None
    finally:
        view.release()
    _check_block_index(index_stride, record_count, block_offsets,
                       records_start, footer_offset, name)
    return BinaryTraceLayout(module_name=module_name, globals=globals_,
                             strings=strings, index_stride=index_stride,
                             record_count=record_count,
                             block_offsets=block_offsets,
                             records_start=records_start,
                             records_end=footer_offset,
                             content_digest=content_digest)


def _check_block_index(stride: int, record_count: int, offsets: List[int],
                       records_start: int, records_end: int,
                       name: str) -> None:
    """Refuse a block index that disagrees with the footer's record count
    or does not point into the record region (see :func:`_parse_footer`)."""
    if stride < 1:
        raise BinaryTraceError(
            f"{name!r}: corrupt binary trace footer: index stride {stride}")
    expected = -(-record_count // stride)  # ceil
    if len(offsets) != expected:
        raise BinaryTraceError(
            f"{name!r}: corrupt binary trace footer: {len(offsets)} index "
            f"entries for {record_count} records at stride {stride} "
            f"(expected {expected})")
    if offsets and (offsets[0] != records_start
                    or offsets[-1] >= records_end
                    or any(a >= b for a, b in zip(offsets, offsets[1:]))):
        raise BinaryTraceError(
            f"{name!r}: corrupt binary trace footer: the block index does "
            f"not ascend from byte {records_start} within the record "
            f"region (ends at byte {records_end})")


def _read_layout(read: Callable[[int, int], bytes], size: int,
                 name: str) -> BinaryTraceLayout:
    """The layout of a ``size``-byte file named ``name``, whose bytes
    ``read(offset, count)`` returns (header, trailer and footer only)."""
    if size < _HEADER.size:
        raise BinaryTraceError(f"truncated binary trace file {name!r}")
    magic, version, _, name_len = _HEADER.unpack(read(0, _HEADER.size))
    if magic != BINARY_MAGIC:
        raise BinaryTraceError(f"{name!r} is not a binary trace file")
    if version not in SUPPORTED_VERSIONS:
        raise BinaryTraceError(
            f"{name!r}: unsupported binary trace version {version} "
            f"(supported: {SUPPORTED_VERSIONS})")
    records_start = _HEADER.size + name_len
    if size < records_start + _TRAILER.size:
        raise BinaryTraceError(f"truncated binary trace file {name!r}")
    module_name = _decode_text(read(_HEADER.size, name_len), name,
                               "the module name")
    footer_offset, trailer = _TRAILER.unpack(
        read(size - _TRAILER.size, _TRAILER.size))
    if trailer != TRAILER_MAGIC:
        raise BinaryTraceError(
            f"{name!r}: missing binary trace trailer "
            f"(file truncated or still being written)")
    if not records_start <= footer_offset <= size - _TRAILER.size:
        raise BinaryTraceError(
            f"{name!r}: corrupt binary trace trailer: footer offset "
            f"{footer_offset} lies outside bytes {records_start} to "
            f"{size - _TRAILER.size}")
    footer = read(footer_offset, size - _TRAILER.size - footer_offset)
    return _parse_footer(footer, version, module_name, records_start,
                         footer_offset, name)


def read_layout(path: str) -> BinaryTraceLayout:
    """Read the header and footer (globals + string table + index).

    Every failure mode names the offending file in the exception message —
    a truncated, version-skewed or corrupt trace surfaced deep inside a
    batch run must be attributable without a stack trace.
    """
    with open(path, "rb") as handle:
        return layout_from_handle(handle, path)


def layout_from_handle(handle: IO[bytes], name: str) -> BinaryTraceLayout:
    """:func:`read_layout` over a file already open for binary reading,
    named ``name`` in errors (it reads the header, trailer and footer)."""
    def read(offset: int, count: int) -> bytes:
        handle.seek(offset)
        return handle.read(count)

    return _read_layout(read, os.fstat(handle.fileno()).st_size, name)


def layout_from_buffer(buffer, name: Optional[str] = None,
                       ) -> BinaryTraceLayout:
    """Parse the layout from an already-open whole-file buffer / ``mmap``.

    The in-memory counterpart of :func:`read_layout`: a trace held in
    memory is parsed without a file.  ``name`` labels error messages
    (defaults to ``"<buffer>"``).
    """
    view = memoryview(buffer)
    try:
        return _read_layout(
            lambda offset, count: view[offset:offset + count].tobytes(),
            len(view), name or "<buffer>")
    finally:
        view.release()


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
    digits = bytes(buf[position:position + digit_count])
    try:
        value = int(digits)
    except ValueError:
        raise ValueError(f"big-integer digits {digits[:40]!r} do not "
                         f"parse") from None
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
    if has_result > 1:
        raise ValueError(f"has-result byte {has_result}")
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


def _refused_field(buf, position: int, strings: List[str]) -> Optional[str]:
    """The field :func:`_decode_record` refuses in the record block at
    ``position`` when it is a string id past the table or a has-result
    byte above 1, in the columnar scan's words (``"has function id 7,
    past the 5-entry string table"``); else None."""
    ids: List[Tuple[str, int]] = []
    with contextlib.suppress(struct.error):  # a header or slot cut short
        fields = _RECORD_FIXED.unpack_from(buf, position)
        if fields[10] > 1:
            return f"has a has-result byte of {fields[10]}, not 0 or 1"
        ids += zip(("opcode-name", "function", "basic-block", "callee"),
                   fields[5:9])
        position += _RECORD_FIXED.size
        for _ in range(fields[9] + fields[10]):
            flags, index_id, _, name_id = _OPERAND_FIXED.unpack_from(
                buf, position)
            ids += [("operand-index", index_id), ("operand-name", name_id)]
            entry = _OPERAND_TABLE[flags]
            if entry is not None:
                position += entry[1]
            elif flags >> 4 == _VALUE_BIG:  # digit count, digits, address
                at = position + _OPERAND_FIXED.size
                position = (at + 4 + _U32.unpack_from(buf, at)[0]
                            + (8 if flags & 2 else 0))
            else:
                break  # an unknown value tag, which the decoder names
    for what, value in ids:
        if value >= len(strings):
            return (f"has {what} id {value}, past the {len(strings)}-entry "
                    f"string table")
    return None


def decode_records(data, layout: BinaryTraceLayout,
                   name: Optional[str] = None) -> Iterator[TraceRecord]:
    """Decode every record of a whole binary file's bytes ``data``, in file
    order, over its ``layout``.

    The per-record reference decoder: a :class:`Trace`'s records and
    iteration and the re-encode of a version-1 file go through it, and
    the columnar scan is held to it.  A record block that does not
    decode is a :class:`BinaryTraceError` naming ``name``, the source the
    bytes came from (``'<buffer>'`` when ``None``), the record and the
    field, and so is a record region that holds another number of
    records than the footer counts.
    """
    name = name or "<buffer>"
    position = layout.records_start
    end = layout.records_end
    strings = layout.strings
    count = 0
    while position < end:
        start = position
        try:
            record, position = _decode_record(data, position, strings)
            if position > end:
                raise struct.error("it overruns the record region")
        except (IndexError, ValueError, struct.error) as exc:
            why = (_refused_field(data, start, strings)
                   or f"does not decode: {exc}")
            raise BinaryTraceError(
                f"{name!r}: record {count} (the record block at byte "
                f"{start}) {why}") from None
        count += 1
        yield record
    if count != layout.record_count:
        raise BinaryTraceError(
            f"{name!r}: the record region holds {count} records, but the "
            f"footer counts {layout.record_count}")
