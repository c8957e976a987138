"""Columnar decode of block-indexed binary traces.

:func:`repro.trace.binio.decode_records` decodes a trace one record at a
time: one ``unpack_from`` plus one slotted-dataclass construction per
record (and per operand).  Reading the fixed header alone costs a
fraction of that — the per-record *object layer* is the dominant cost of
analysis.  This module removes it: a :class:`TraceColumnarReader` turns
whole runs of record blocks into :class:`ColumnarBlock` objects — parallel
arrays (columns) for the fields the analysis engine actually consults per
record — in a small number of bulk sweeps, with full
:class:`~repro.trace.records.TraceRecord` materialization deferred to the
rare records that need it (the ``Call`` / ``Ret`` records that change a
scope, plus anything a pass explicitly requests via
:meth:`ColumnarBlock.record`).  It is the only input of the analysis
engine (:mod:`repro.core.engine`).

Decoded columns, all numpy arrays (everything else stays lazy)::

    per record   dyn_id, opcode, line, function_id, callee_id,
                 op_start (slot prefix sum, result slot included),
                 has_result, rec_off (byte offset, for materialization)
    per operand  op_flags, op_name_id, op_address (0 when absent:
                 ``op_flags & 2`` tells the two apart), op_off (byte
                 offset, for :meth:`ColumnarBlock.slot_field`)

Two scan implementations produce equal columns:

* a **numpy lockstep scan** for runs of full index blocks: the block
  index gives the byte offset of every ``INDEX_STRIDE``-th record, so a
  chunk of B full index blocks is decoded *simultaneously* — one vector
  step per record slot k advances all B lanes at once, and the operand
  walk advances each lane by a flags-byte size lookup.  Big-integer
  operands (variable length) abort the chunk to the pure-Python scan;
* a **pure-Python scan** for the trailing partial index block and for
  chunks holding a big-integer operand.

Both check that their records end exactly where the block index says
their span ends, and every block's function, callee and operand-name ids
are checked against the string table; either failure names the file.

The reader accepts a ``path`` or an already-open ``buffer``/``mmap`` of the
whole file, with the layout already known where there is one: a version-2
file streams with the layout its store key was read from, and a
:class:`~repro.trace.records.Trace` hands over its bytes, its layout and
its source's name in one call, so neither parses its footer again.  With
``iter_blocks(verify_digest=True)`` a full walk also folds the content
digest over the record bytes it reads (the one fold,
:class:`repro.trace.binio._DigestFold`) and checks it against the
footer's (:class:`~repro.trace.binio.TraceDigestMismatch` on a mismatch),
so a report of a file changed after it was written is never stored under
the footer digest's key.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.trace.binio import (
    _OPERAND_FIXED,
    _OPERAND_TABLE,
    _RECORD_FIXED,
    _U32,
    _U64,
    _VALUE_BIG,
    _VALUE_INT,
    BinaryTraceError,
    BinaryTraceLayout,
    _decode_record,
    _DigestFold,
    layout_from_buffer,
    read_layout,
)
from repro.trace.records import TraceRecord

#: Records handed to one :class:`ColumnarBlock` by default (a multiple of
#: the index stride keeps whole index blocks in lockstep).
DEFAULT_CHUNK_RECORDS = 65536

#: flags byte -> total encoded operand size (0 marks the variable-length
#: big-integer layout, which the lockstep scan cannot size vectorially).
_SIZE_BY_FLAGS = tuple(entry[1] if entry is not None else 0
                       for entry in _OPERAND_TABLE)

_HDR_SIZE = _RECORD_FIXED.size  # 42
_OP_FIXED_SIZE = _OPERAND_FIXED.size  # 13

# int32 everywhere the values are byte offsets: offsets into one chunk
# buffer always fit, and halving the index-array width measurably cuts
# the gather traffic of the lockstep scan (int64 variants cover the
# implausible >2 GiB-buffer case).
_NP_SIZE_LUT = np.array(_SIZE_BY_FLAGS, dtype=np.int64)
_NP_SIZE_LUT32 = np.array(_SIZE_BY_FLAGS, dtype=np.int32)
#: the fixed record header reinterpreted in place — one bulk gather of
#: the 42 header bytes per record, then per-field strided views instead
#: of one copy per field.
_NP_HDR_DTYPE = np.dtype({
    "names": ["dyn_id", "opcode", "line", "function_id", "callee_id",
              "has_result"],
    "formats": ["<i8", "<i4", "<i4", "<u4", "<u4", "u1"],
    "offsets": [0, 8, 12, 28, 36, 41],
    "itemsize": _HDR_SIZE,
})
#: the operand-head fields :meth:`ColumnarBlock.slot_field` reads: name
#: -> (byte offset in the slot, dtype)
_SLOT_FIELDS = {"index_id": (1, "<u4"), "bits": (5, "<i4")}
#: byte offsets of a record header's opcode-name and basic-block string
#: ids, which only the record decoder reads
_OPCODE_NAME_ID_AT = 24
_BB_ID_AT = 32


class _BigIntInChunk(Exception):
    """Internal: a lockstep chunk met a big-integer operand; fall back."""


def _at_every_byte(buf, dtype):
    """``buf`` read as ``dtype`` values starting at every byte offset: the
    value at offset ``i`` is element ``i``.  Indexing it with offsets
    gathers whole values with no index matrix; an offset whose value
    would end past ``buf`` raises ``IndexError``."""
    dtype = np.dtype(dtype)
    return np.ndarray(shape=(max(0, len(buf) - dtype.itemsize + 1),),
                      dtype=dtype, buffer=buf, strides=(1,))


class ColumnarBlock:
    """One decoded run of records as parallel numpy columns.

    Every column is a numpy array, whichever scan decoded the block:
    ``opcode`` / ``line`` / ``function_id`` / ``op_start`` (``int64``),
    ``has_result`` / ``op_flags`` (``uint8``), ``op_name_id``
    (``uint32``), ``op_address`` (``uint64``, 0 where an operand carries
    no address: its ``op_flags`` bit 2 is clear), and ``dyn_id`` /
    ``callee_id`` / ``rec_off`` / ``op_off`` (each slot's byte offset in
    ``buf``).  The walk masks and gathers them a span
    at a time; a pass that loops over rows in Python lists the columns it
    reads itself (wrap a single element in ``int()``).
    Operand slots of record ``row`` are ``op_start[row]`` to
    ``op_start[row + 1]`` (the *result* operand, when
    ``has_result[row]``, is the last slot); the record's operand count
    excluding the result is ``op_start[row+1] - op_start[row] -
    has_result[row]``.
    """

    __slots__ = ("name", "base_index", "count", "strings", "id_of", "buf",
                 "dyn_id", "opcode", "line", "function_id", "callee_id",
                 "op_start", "has_result", "rec_off",
                 "op_flags", "op_name_id", "op_address", "op_off",
                 "_records")

    def __init__(self, name: str, base_index: int, strings: List[str],
                 id_of: Dict[str, int], buf) -> None:
        self.name = name
        self.base_index = base_index
        self.strings = strings
        self.id_of = id_of
        self.buf = buf
        self._records: Dict[int, TraceRecord] = {}
        # The scan that decodes the block sets ``count`` and every column.

    def record(self, row: int) -> TraceRecord:
        """Materialize (and cache) the full record at ``row`` (a block that
        does not decode is a :class:`BinaryTraceError` naming the file and
        the record)."""
        record = self._records.get(row)
        if record is None:
            try:
                record, _ = _decode_record(self.buf, int(self.rec_off[row]),
                                           self.strings)
            except (IndexError, ValueError, struct.error) as exc:
                raise BinaryTraceError(
                    f"{self.name!r}: record {self.base_index + row} does "
                    f"not decode: {exc}") from None
            self._records[row] = record
        return record

    def slot_field(self, name: str, slots):
        """The ``index_id`` or ``bits`` field of each operand slot in
        ``slots`` (a numpy array of slot numbers), in one gather from the
        block's bytes."""
        offset, dtype = _SLOT_FIELDS[name]
        return _at_every_byte(self.buf, dtype)[self.op_off[slots] + offset]

    def int_values(self, slots):
        """``(values, plain)`` of the operand slots ``slots``: ``plain``
        marks the slots whose value is an int64 (not a float or a big
        integer), and ``values`` holds it there, gathered from the block's
        bytes (0 elsewhere)."""
        plain = (self.op_flags[slots] >> 4) == _VALUE_INT
        values = np.zeros(len(slots), dtype=np.int64)
        values[plain] = _at_every_byte(self.buf, "<i8")[
            self.op_off[slots[plain]] + _OP_FIXED_SIZE]
        return values, plain

    def operand_slots(self, rows):
        """``(slots, bounds)``: the operand slots of ``rows`` (a numpy
        array; result slots included), row after row, where row ``k``'s
        are ``slots[bounds[k]:bounds[k + 1]]``."""
        first = self.op_start[rows]
        counts = self.op_start[rows + 1] - first
        bounds = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        slots = np.arange(bounds[-1]) + np.repeat(first - bounds[:-1], counts)
        return slots, bounds

    def decodes_as_scanned(self, rows, slots, bounds):
        """Per row of ``rows`` (with its operand slots as
        :meth:`operand_slots` gives them), whether the checks that only
        the record decoder makes hold: its opcode-name and basic-block ids
        and every slot's index id lie in the string table, and no slot
        holds a big integer (whose digits only the decoder parses).  A row
        a walk reads from columns alone must pass, so that it reads
        nothing :meth:`record` would refuse."""
        size = len(self.strings)
        ids = _at_every_byte(self.buf, "<u4")
        at = self.rec_off[rows]
        ok = (ids[at + _OPCODE_NAME_ID_AT] < size) & (ids[at + _BB_ID_AT]
                                                      < size)
        bad = ((self.slot_field("index_id", slots) >= size)
               | ((self.op_flags[slots] >> 4) == _VALUE_BIG))
        seen = np.zeros(len(slots) + 1, dtype=np.int64)
        np.cumsum(bad, out=seen[1:])
        return ok & (seen[bounds[1:]] == seen[bounds[:-1]])

    def loop_rows(self, function_id: int, start_line: int, end_line: int,
                  canon=None):
        """Rows matching the main-loop spec (function + line range), as a
        numpy array.  ``function_id`` is the canonical id of the spec's
        function (``id_of``'s), and ``canon`` maps each string id to its
        canonical one (None: the string table repeats no string), so a
        row names the function by any of its ids."""
        function_ids = (self.function_id if canon is None
                        else canon[self.function_id])
        return np.flatnonzero((function_ids == function_id)
                              & (self.line >= start_line)
                              & (self.line <= end_line))


# --------------------------------------------------------------------------- #
# Pure-Python scan (trailing partial block + big-int chunks)
# --------------------------------------------------------------------------- #
def _scan_python(block: ColumnarBlock, buf, count: int, end: int) -> None:
    """Fill ``block`` with the ``count`` records in ``buf[:end]``.

    Produces the lockstep scan's columns — including for big-integer
    operands — from per-record lists.
    Raises :class:`BinaryTraceError` naming the block's file when the records
    overrun the buffer or do not end exactly at ``end``, the byte where
    the block index says the span ends.
    """
    name = block.name
    hdr = _RECORD_FIXED.unpack_from
    op_hdr = _OPERAND_FIXED.unpack_from
    sizes = _SIZE_BY_FLAGS
    dyn_ids: List[int] = []
    opcodes: List[int] = []
    lines: List[int] = []
    function_ids: List[int] = []
    callee_ids: List[int] = []
    op_starts = [0]
    has_results: List[int] = []
    rec_offs: List[int] = []
    op_flags: List[int] = []
    op_name_ids: List[int] = []
    op_addresses: List[int] = []
    op_offs: List[int] = []
    slot_total = 0
    position = 0
    try:
        for _ in range(count):
            (dyn_id, opcode, line, _column, _bb_label, _opcode_name_id,
             function_id, _bb_id_id, callee_id, operand_count,
             has_result) = hdr(buf, position)
            rec_offs.append(position)
            dyn_ids.append(dyn_id)
            opcodes.append(opcode)
            lines.append(line)
            function_ids.append(function_id)
            callee_ids.append(callee_id)
            has_results.append(has_result)
            position += _HDR_SIZE
            for _ in range(operand_count + has_result):
                flags, _index_id, _bits, name_id = op_hdr(buf, position)
                op_offs.append(position)
                op_flags.append(flags)
                op_name_ids.append(name_id)
                size = sizes[flags]
                if size == 0:
                    if (flags >> 4) != _VALUE_BIG:
                        raise BinaryTraceError(
                            f"{name!r}: unknown operand value tag "
                            f"{flags >> 4} in record "
                            f"{block.base_index + len(opcodes) - 1}")
                    (digit_count,) = _U32.unpack_from(
                        buf, position + _OP_FIXED_SIZE)
                    size = _OP_FIXED_SIZE + 4 + digit_count
                    if flags & 2:
                        size += 8
                if flags & 2:
                    (address,) = _U64.unpack_from(buf, position + size - 8)
                    op_addresses.append(address)
                else:
                    op_addresses.append(0)
                position += size
            if position > end:
                raise struct.error("record block overruns the span")
            slot_total += operand_count + has_result
            op_starts.append(slot_total)
    except (IndexError, struct.error):
        raise BinaryTraceError(
            f"{name!r}: the records from record {block.base_index} on "
            f"overrun their span in the block index") from None
    if position != end:
        raise BinaryTraceError(
            f"{name!r}: records {block.base_index} to "
            f"{block.base_index + count - 1} end {end - position} bytes "
            f"short of their span in the block index (the footer's record "
            f"count or block index is wrong)")
    block.count = count
    block.dyn_id = np.array(dyn_ids, dtype=np.int64)
    block.callee_id = np.array(callee_ids, dtype=np.int64)
    block.rec_off = np.array(rec_offs, dtype=np.int64)
    block.opcode = np.array(opcodes, dtype=np.int64)
    block.line = np.array(lines, dtype=np.int64)
    block.function_id = np.array(function_ids, dtype=np.int64)
    block.op_start = np.array(op_starts, dtype=np.int64)
    block.has_result = np.array(has_results, dtype=np.uint8)
    block.op_flags = np.array(op_flags, dtype=np.uint8)
    block.op_name_id = np.array(op_name_ids, dtype=np.uint32)
    block.op_address = np.array(op_addresses, dtype=np.uint64)
    block.op_off = np.array(op_offs, dtype=np.int64)


# --------------------------------------------------------------------------- #
# numpy lockstep scan
# --------------------------------------------------------------------------- #
def _scan_numpy(block: ColumnarBlock, buf, block_starts: List[int],
                expected_ends: List[int], stride: int) -> None:
    """Decode ``len(block_starts)`` *full* index blocks in lockstep.

    ``block_starts`` are byte offsets (relative to ``buf``) of consecutive
    index blocks, each containing exactly ``stride`` records, and
    ``expected_ends`` the matching one-past-the-end offsets from the block
    index; ``buf`` must extend at least one byte past the last block
    (finished lanes park their cursor on the next block's first byte).
    Fills ``block`` in stream order.  Raises :class:`_BigIntInChunk` when
    a big-integer operand is met — the caller re-scans the span with
    :func:`_scan_python`.

    Big-integer operands are *not* tested for in the hot loop: their
    size-LUT entry is 0, so a lane that meets one stops advancing and its
    final cursor misses the next block boundary the footer index promises —
    one vector comparison after the walk catches that (and any other
    corruption) and triggers the fallback.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    lanes = len(block_starts)
    if len(buf) <= 0x7FFFFF00:  # offsets (and offset sums) fit in int32
        off_dtype = np.int32
        size_lut = _NP_SIZE_LUT32
    else:  # pragma: no cover - >2 GiB chunk buffers
        off_dtype = np.int64
        size_lut = _NP_SIZE_LUT
    cur = np.asarray(block_starts, dtype=off_dtype)
    rec_off = np.empty((stride, lanes), off_dtype)
    slot_counts = np.empty((stride, lanes), np.int64)
    # Operand offsets write straight into their stream-assembly cube slot
    # (grown in the rare record with more slots than the initial guess).
    cube = np.empty((stride, 8, lanes), off_dtype)
    max_slots = 0
    for k in range(stride):
        rec_off[k] = cur
        slots = arr[cur + 40].astype(np.int64)
        slots += arr[cur + 41]
        slot_counts[k] = slots
        op_cur = cur + _HDR_SIZE
        limit = int(slots.max())
        if limit > cube.shape[1]:
            grown = np.empty((stride, limit, lanes), off_dtype)
            grown[:, :cube.shape[1], :] = cube
            cube = grown
        if limit > max_slots:
            max_slots = limit
        row_cube = cube[k]
        for j in range(limit):
            row_cube[j] = op_cur
            sizes = size_lut[arr[op_cur]]
            sizes *= slots > j  # freeze finished (and big-int) lanes
            op_cur += sizes
        cur = op_cur
    if not bool(np.array_equal(cur, np.asarray(expected_ends,
                                               dtype=np.int64))):
        raise _BigIntInChunk

    # Assemble stream order: record (lane b, slot k) sorts by (b, k).
    rec_off_stream = rec_off.T.ravel()
    slots_stream = slot_counts.T.ravel()
    if max_slots:
        valid = (np.arange(max_slots)[None, :, None]
                 < slot_counts[:, None, :])
        flat_op_off = (cube[:, :max_slots, :].transpose(2, 0, 1)
                       [valid.transpose(2, 0, 1)])
    else:
        flat_op_off = np.empty(0, off_dtype)

    # Bulk header gather: one fancy index, then per-field struct views.
    recs = _at_every_byte(buf, _NP_HDR_DTYPE)[rec_off_stream]
    block.count = len(recs)
    block.dyn_id = recs["dyn_id"]
    block.callee_id = recs["callee_id"]
    block.rec_off = rec_off_stream
    block.opcode = recs["opcode"].astype(np.int64)
    block.line = recs["line"].astype(np.int64)
    block.function_id = recs["function_id"].astype(np.int64)
    block.has_result = recs["has_result"]
    block.op_start = np.empty(len(recs) + 1, np.int64)
    block.op_start[0] = 0
    np.cumsum(slots_stream, out=block.op_start[1:])

    flags_u8 = arr[flat_op_off]
    block.op_off = flat_op_off
    block.op_flags = flags_u8
    block.op_name_id = _at_every_byte(buf, "<u4")[flat_op_off + 9]
    has_addr = (flags_u8 & 2) != 0
    block.op_address = np.zeros(len(flat_op_off), dtype=np.uint64)
    if bool(has_addr.any()):
        addr_off = flat_op_off[has_addr] + size_lut[flags_u8[has_addr]] - 8
        block.op_address[has_addr] = _at_every_byte(buf, "<u8")[addr_off]


def _check_string_ids(block: ColumnarBlock) -> None:
    """Refuse a block whose function, callee or operand-name ids reach past
    the string table (one vector max per column), naming the file and the
    first such record."""
    size = len(block.strings)
    for what, ids in (("function", block.function_id),
                      ("callee", block.callee_id),
                      ("operand-name", block.op_name_id)):
        if ids.size and int(ids.max()) >= size:
            at = int(np.flatnonzero(ids >= size)[0])
            row = (at if what != "operand-name" else
                   int(np.searchsorted(block.op_start, at, "right")) - 1)
            raise BinaryTraceError(
                f"{block.name!r}: record {block.base_index + row} has {what}"
                f" id {int(ids[at])}, past the {size}-entry string table")


# --------------------------------------------------------------------------- #
# Reader
# --------------------------------------------------------------------------- #
class TraceColumnarReader:
    """Stream a binary trace as :class:`ColumnarBlock` chunks.

    Exactly one of ``path`` and ``buffer`` is the byte source; ``buffer``
    is an already-open ``bytes`` / ``memoryview`` / ``mmap`` of the *whole*
    file (a :class:`~repro.trace.records.Trace`'s bytes, say), and a
    pre-read ``layout`` skips the footer parse.  :attr:`name` is what the
    walk's errors call the source: ``name`` when given (the file a
    buffer's bytes came from), else ``path``, else None (``'<buffer>'``).
    :meth:`close` releases the owned file handle deterministically; the
    reader is a context manager.
    """

    def __init__(self, path: Optional[str] = None,
                 layout: Optional[BinaryTraceLayout] = None,
                 buffer=None, name: Optional[str] = None) -> None:
        if (path is None) and (buffer is None):
            raise ValueError("pass a path or an already-open buffer")
        self.path = path
        self.name: Optional[str] = name or path
        self._buffer = buffer
        if layout is None:
            layout = (layout_from_buffer(buffer, name=self.name)
                      if buffer is not None else read_layout(path))
        self.layout = layout
        self.strings = layout.strings
        self.id_of: Dict[str, int] = {
            text: index for index, text in enumerate(layout.strings)}
        self._handle = None
        self._closed = False
        #: the content digest of the walk in progress, when it verifies
        self._fold: Optional[_DigestFold] = None

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the owned file handle (idempotent; an externally
        supplied buffer is left to its owner)."""
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceColumnarReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _read_span(self, start: int, length: int, guard: int = 0) -> bytes:
        """``length`` record bytes at absolute offset ``start``, plus
        ``guard`` bytes past them (finished lockstep lanes peek one byte
        past their block); the record bytes join the digest fold."""
        if self._buffer is not None:
            data = bytes(memoryview(self._buffer)[start:start + length + guard])
        else:
            if self._closed:
                raise ValueError("columnar reader is closed")
            if self._handle is None:
                self._handle = open(self.path, "rb")
            self._handle.seek(start)
            data = self._handle.read(length + guard)
        if len(data) < length + guard:
            raise BinaryTraceError(
                f"truncated binary trace file {self.name!r}")
        if self._fold is not None:
            self._fold.add(start, memoryview(data)[:length])
        return data

    # ------------------------------------------------------------------ #
    def iter_blocks(self, chunk_records: int = DEFAULT_CHUNK_RECORDS,
                    verify_digest: bool = False,
                    ) -> Iterator[ColumnarBlock]:
        """Yield the whole trace's records as columns, in stream order.

        Chunks hold whole index blocks and decode via the lockstep scan;
        the trailing partial index block (and any chunk containing a
        big-integer operand) takes the pure-Python scan, with identical
        columns either way.  Memory stays bounded by ``chunk_records``.

        With ``verify_digest`` the walk folds the content digest over the
        record bytes as it reads them and, after the last block, raises
        :class:`~repro.trace.binio.TraceDigestMismatch` unless they hash
        to the footer digest.
        """
        self._fold = (_DigestFold(self.layout.records_start)
                      if verify_digest else None)
        yield from self._iter_blocks(chunk_records)
        if self._fold is not None:
            self._fold.check(self.layout, self.name)

    def _iter_blocks(self, chunk_records: int) -> Iterator[ColumnarBlock]:
        layout = self.layout
        stride = layout.index_stride
        offsets = layout.block_offsets
        name = self.name or "<buffer>"
        full_blocks = layout.record_count // stride
        blocks_per_chunk = max(1, chunk_records // stride)
        for first in range(0, full_blocks, blocks_per_chunk):
            stop = min(first + blocks_per_chunk, full_blocks)
            chunk_start = offsets[first]
            chunk_end = (offsets[stop] if stop < len(offsets)
                         else layout.records_end)
            # One guard byte past the chunk (the footer always follows
            # the record region): finished lanes park their cursor there.
            buf = self._read_span(chunk_start, chunk_end - chunk_start, 1)
            starts = [offsets[b] - chunk_start for b in range(first, stop)]
            ends = starts[1:] + [chunk_end - chunk_start]
            block = ColumnarBlock(name, first * stride, self.strings,
                                  self.id_of, buf)
            try:
                _scan_numpy(block, buf, starts, ends, stride)
            except (_BigIntInChunk, IndexError):
                _scan_python(block, buf, (stop - first) * stride, ends[-1])
            _check_string_ids(block)
            yield block

        # Trailing partial index block.
        tail = full_blocks * stride
        if tail < layout.record_count:
            start = offsets[full_blocks]
            buf = self._read_span(start, layout.records_end - start)
            block = ColumnarBlock(name, tail, self.strings, self.id_of, buf)
            _scan_python(block, buf, layout.record_count - tail, len(buf))
            _check_string_ids(block)
            yield block
