"""Columnar decode of block-indexed binary traces.

:mod:`repro.trace.binio` decodes a trace one record at a time: one
``unpack_from`` plus one slotted-dataclass construction per record (and per
operand).  Reading the fixed header alone costs a fraction of that — the
per-record *object layer* is the dominant cost of analysis.  This module
removes it: a :class:`TraceColumnarReader` turns
whole runs of record blocks into :class:`ColumnarBlock` objects — parallel
arrays (columns) for the fields the analysis engine actually consults per
record — in a small number of bulk sweeps, with full
:class:`~repro.trace.records.TraceRecord` materialization deferred to the
rare records that need it (``Alloca`` / ``Call`` / ``Ret``, plus anything a
pass explicitly requests via :meth:`ColumnarBlock.record`).  It is the only
input of the analysis engine (:mod:`repro.core.engine`).

Decoded columns (everything else stays lazy)::

    per record   dyn_id, opcode, line, function_id, callee_id,
                 op_start (slot prefix sum, result slot included),
                 has_result, rec_off (byte offset, for materialization)
    per operand  op_flags, op_name_id, op_address (None when absent)

Two scan implementations produce byte-identical columns:

* a **numpy lockstep scan** (used when numpy is importable): the block
  index gives the byte offset of every ``INDEX_STRIDE``-th record, so a
  chunk of B full index blocks is decoded *simultaneously* — one vector
  step per record slot k advances all B lanes at once, and the operand
  walk advances each lane by a flags-byte size lookup exactly like
  ``binio._skip_operands``.  Big-integer operands (variable length) abort
  the chunk to the fallback;
* a **pure-Python scan** used for partial blocks, arbitrary record ranges,
  big-integer chunks, and when numpy is unavailable.

The reader accepts a ``path`` or an already-open ``buffer``/``mmap`` of the
whole file (plus an optional pre-read layout), so warm re-reads within one
process re-use the open mapping and the parsed footer.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional

from repro.trace.binio import (
    _OPERAND_FIXED,
    _OPERAND_TABLE,
    _RECORD_FIXED,
    _U32,
    _U64,
    _VALUE_BIG,
    BinaryTraceError,
    BinaryTraceLayout,
    _decode_record,
    layout_from_buffer,
    read_layout,
)
from repro.trace.records import TraceRecord

try:  # numpy is optional: the pure-Python scan covers its absence
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _scan_range fallback
    _np = None

#: Records handed to one :class:`ColumnarBlock` by default (a multiple of
#: the index stride keeps whole index blocks in lockstep).
DEFAULT_CHUNK_RECORDS = 65536

#: flags byte -> total encoded operand size (0 marks the variable-length
#: big-integer layout, which the lockstep scan cannot size vectorially).
_SIZE_BY_FLAGS = tuple(entry[1] if entry is not None else 0
                       for entry in _OPERAND_TABLE)

_HDR_SIZE = _RECORD_FIXED.size  # 42
_OP_FIXED_SIZE = _OPERAND_FIXED.size  # 13

if _np is not None:
    # int32 everywhere the values are byte offsets: offsets into one chunk
    # buffer always fit, and halving the index-array width measurably cuts
    # the gather traffic of the lockstep scan (int64 variants cover the
    # implausible >2 GiB-buffer case).
    _NP_SIZE_LUT = _np.array(_SIZE_BY_FLAGS, dtype=_np.int64)
    _NP_SIZE_LUT32 = _np.array(_SIZE_BY_FLAGS, dtype=_np.int32)
    _NP_HDR_RANGE = _np.arange(_HDR_SIZE, dtype=_np.int32)
    _NP_OP_NAME_RANGE = _np.arange(9, 13, dtype=_np.int32)
    _NP_ADDR_RANGE = _np.arange(8, dtype=_np.int32)
    #: the fixed record header reinterpreted in place — one bulk gather of
    #: the 42 header bytes per record, then per-field strided views instead
    #: of one copy per field.
    _NP_HDR_DTYPE = _np.dtype({
        "names": ["dyn_id", "opcode", "line", "function_id", "callee_id",
                  "has_result"],
        "formats": ["<i8", "<i4", "<i4", "<u4", "<u4", "u1"],
        "offsets": [0, 8, 12, 28, 36, 41],
        "itemsize": _HDR_SIZE,
    })


class _BigIntInChunk(Exception):
    """Internal: a lockstep chunk met a big-integer operand; fall back."""


class ColumnarBlock:
    """One decoded run of records as parallel columns.

    Columns are plain Python lists (cheapest to consume from Python loops);
    ``np_opcode`` / ``np_line`` / ``np_function_id`` mirror three of them as
    numpy arrays when numpy is available, for vectorized masks (loop-row
    detection, prefilter skip masks).  Operand slots of record ``row`` are
    ``op_start[row]`` to ``op_start[row + 1]`` (the *result* operand, when
    ``has_result[row]``, is the last slot); the record's operand count
    excluding the result is ``op_start[row+1] - op_start[row] -
    has_result[row]``.
    """

    __slots__ = ("base_index", "count", "strings", "id_of", "buf",
                 "opcode", "line", "function_id",
                 "op_start", "has_result",
                 "op_flags", "op_name_id", "op_address",
                 "np_opcode", "np_line", "np_function_id",
                 "np_op_start", "np_has_result", "np_op_name_id",
                 "_dyn_id", "_callee_id", "_rec_off",
                 "_np_dyn_id", "_np_callee_id", "_np_rec_off",
                 "_records", "_scope_rows")

    def __init__(self, base_index: int, strings: List[str],
                 id_of: Dict[str, int], buf) -> None:
        self.base_index = base_index
        self.strings = strings
        self.id_of = id_of
        self.buf = buf
        self.count = 0
        self._dyn_id: List[int] = []
        self.opcode: List[int] = []
        self.line: List[int] = []
        self.function_id: List[int] = []
        self._callee_id: List[int] = []
        self.op_start: List[int] = [0]
        self.has_result: List[int] = []
        self._rec_off: List[int] = []
        self.op_flags: List[int] = []
        self.op_name_id: List[int] = []
        self.op_address: List[Optional[int]] = []
        self.np_opcode = None
        self.np_line = None
        self.np_function_id = None
        # Mirrors the lockstep scan gets for free (``None`` after a
        # pure-Python scan): passes use them to pre-gather whole segments
        # of per-row header fields in a few vector ops.
        self.np_op_start = None
        self.np_has_result = None
        self.np_op_name_id = None
        # Columns the walk consults for only a handful of rows (event dyn
        # ids, scope-record materialization) park as numpy arrays until
        # someone asks for the Python list — the ~83k-element ``tolist``
        # per column is the single biggest avoidable decode cost.
        self._np_dyn_id = None
        self._np_callee_id = None
        self._np_rec_off = None
        self._records: Dict[int, TraceRecord] = {}
        self._scope_rows: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # Lazily materialized columns
    # ------------------------------------------------------------------ #
    @property
    def dyn_id(self) -> List[int]:
        col = self._dyn_id
        if self._np_dyn_id is not None:
            col.extend(self._np_dyn_id.tolist())
            self._np_dyn_id = None
        return col

    @property
    def callee_id(self) -> List[int]:
        col = self._callee_id
        if self._np_callee_id is not None:
            col.extend(self._np_callee_id.tolist())
            self._np_callee_id = None
        return col

    @property
    def rec_off(self) -> List[int]:
        col = self._rec_off
        if self._np_rec_off is not None:
            col.extend(self._np_rec_off.tolist())
            self._np_rec_off = None
        return col

    def dyn_id_col(self):
        """Row-indexable dyn_id column without forcing the Python list.

        May be a numpy array — wrap single elements in ``int()``.
        """
        pending = self._np_dyn_id
        return pending if pending is not None else self.dyn_id

    def _store_lazy(self, dyn, callee, rec) -> None:
        """Park freshly scanned arrays for the three lazy columns — or, if
        the block already holds rows (a prior scan appended), flush and
        extend eagerly so row numbering stays aligned."""
        if self._dyn_id or self._np_dyn_id is not None:
            self.dyn_id.extend(dyn.tolist())
            self.callee_id.extend(callee.tolist())
            self.rec_off.extend(rec.tolist())
        else:
            self._np_dyn_id = dyn
            self._np_callee_id = callee
            self._np_rec_off = rec

    # ------------------------------------------------------------------ #
    def record(self, row: int) -> TraceRecord:
        """Materialize (and cache) the full record at ``row``."""
        record = self._records.get(row)
        if record is None:
            rec_off = self._np_rec_off
            offset = (int(rec_off[row]) if rec_off is not None
                      else self._rec_off[row])
            record, _ = _decode_record(self.buf, offset, self.strings)
            self._records[row] = record
        return record

    def match_rows(self, start: int, stop: int, opcodes,
                   function_id: Optional[int] = None,
                   line: Optional[int] = None):
        """Ascending rows in ``[start, stop)`` whose opcode is one of
        ``opcodes`` — narrowed to one function id and/or source line when
        given — as a numpy array when the block has numpy mirrors, else a
        list.  The passes select their rows of a whole span this way."""
        if self.np_opcode is not None:
            ops = self.np_opcode[start:stop]
            mask = ops == opcodes[0]
            for op in opcodes[1:]:
                mask |= ops == op
            if function_id is not None:
                mask &= self.np_function_id[start:stop] == function_id
            if line is not None:
                mask &= self.np_line[start:stop] == line
            rows = _np.flatnonzero(mask)
            if start:
                rows += start
            return rows
        wanted = set(opcodes)
        opcode = self.opcode
        fids = self.function_id
        lines = self.line
        return [row for row in range(start, stop)
                if opcode[row] in wanted
                and (function_id is None or fids[row] == function_id)
                and (line is None or lines[row] == line)]

    def span_rows_matching(self, start: int, stop: int, *opcodes: int,
                           function_id: Optional[int] = None,
                           line: Optional[int] = None) -> List[int]:
        """:meth:`match_rows` as a list (for passes that sweep one segment
        at a time)."""
        rows = self.match_rows(start, stop, opcodes, function_id=function_id,
                               line=line)
        return rows if isinstance(rows, list) else rows.tolist()

    def loop_rows(self, function_id: int, start_line: int,
                  end_line: int) -> List[int]:
        """Rows matching the main-loop spec (function + line range)."""
        if self.np_function_id is not None:
            mask = ((self.np_function_id == function_id)
                    & (self.np_line >= start_line)
                    & (self.np_line <= end_line))
            return _np.flatnonzero(mask).tolist()
        return [row for row in range(self.count)
                if self.function_id[row] == function_id
                and start_line <= self.line[row] <= end_line]

    def _finish(self) -> "ColumnarBlock":
        """Seal the block: derive count and the numpy mirror columns."""
        self.count = len(self.opcode)
        if _np is not None and (self.np_opcode is None
                                or len(self.np_opcode) != self.count):
            # The lockstep scan pre-seeds the mirrors straight from its
            # header views; rebuild from the lists only when it didn't
            # (pure-Python scan, or a mixed-scan block).  The operand
            # mirrors have no cheap rebuild — drop any partial ones and
            # let consumers take their scalar path.
            self.np_opcode = _np.asarray(self.opcode, dtype=_np.int64)
            self.np_line = _np.asarray(self.line, dtype=_np.int64)
            self.np_function_id = _np.asarray(self.function_id,
                                              dtype=_np.int64)
            self.np_op_start = None
            self.np_has_result = None
            self.np_op_name_id = None
        return self


# --------------------------------------------------------------------------- #
# Pure-Python scan (fallback + partial blocks + big-int chunks)
# --------------------------------------------------------------------------- #
def _scan_python(block: ColumnarBlock, buf, position: int, count: int) -> int:
    """Append ``count`` records starting at byte ``position`` to ``block``.

    Produces columns identical to the lockstep scan — including for
    big-integer operands — and returns the byte position one past the last
    record.  Raises :class:`BinaryTraceError` on a truncated block (the
    caller hands it a complete byte span).
    """
    hdr = _RECORD_FIXED.unpack_from
    op_hdr = _OPERAND_FIXED.unpack_from
    sizes = _SIZE_BY_FLAGS
    dyn_ids = block.dyn_id
    opcodes = block.opcode
    lines = block.line
    function_ids = block.function_id
    callee_ids = block.callee_id
    op_starts = block.op_start
    has_results = block.has_result
    rec_offs = block.rec_off
    op_flags = block.op_flags
    op_name_ids = block.op_name_id
    op_addresses = block.op_address
    slot_total = op_starts[-1]
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
                op_flags.append(flags)
                op_name_ids.append(name_id)
                size = sizes[flags]
                if size == 0:
                    if (flags >> 4) != _VALUE_BIG:
                        raise BinaryTraceError(
                            f"unknown operand value tag {flags >> 4}")
                    (digit_count,) = _U32.unpack_from(
                        buf, position + _OP_FIXED_SIZE)
                    size = _OP_FIXED_SIZE + 4 + digit_count
                    if flags & 2:
                        size += 8
                if flags & 2:
                    (address,) = _U64.unpack_from(buf, position + size - 8)
                    op_addresses.append(address)
                else:
                    op_addresses.append(None)
                position += size
            if position > len(buf):
                raise struct.error("record block overruns the buffer")
            slot_total += operand_count + has_result
            op_starts.append(slot_total)
    except (IndexError, struct.error):
        raise BinaryTraceError(
            "truncated record block in columnar scan") from None
    return position


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
    Appends columns in stream
    order.  Raises :class:`_BigIntInChunk` when a big-integer operand is
    met — the caller re-scans the span with :func:`_scan_python`.

    Big-integer operands are *not* tested for in the hot loop: their
    size-LUT entry is 0, so a lane that meets one stops advancing and its
    final cursor misses the next block boundary the footer index promises —
    one vector comparison after the walk catches that (and any other
    corruption) and triggers the fallback.
    """
    arr = _np.frombuffer(buf, dtype=_np.uint8)
    lanes = len(block_starts)
    if len(buf) <= 0x7FFFFF00:  # offsets (and offset sums) fit in int32
        off_dtype = _np.int32
        size_lut = _NP_SIZE_LUT32
    else:  # pragma: no cover - >2 GiB chunk buffers
        off_dtype = _np.int64
        size_lut = _NP_SIZE_LUT
    cur = _np.asarray(block_starts, dtype=off_dtype)
    rec_off = _np.empty((stride, lanes), off_dtype)
    slot_counts = _np.empty((stride, lanes), _np.int64)
    # Operand offsets write straight into their stream-assembly cube slot
    # (grown in the rare record with more slots than the initial guess).
    cube = _np.empty((stride, 8, lanes), off_dtype)
    max_slots = 0
    for k in range(stride):
        rec_off[k] = cur
        slots = arr[cur + 40].astype(_np.int64)
        slots += arr[cur + 41]
        slot_counts[k] = slots
        op_cur = cur + _HDR_SIZE
        limit = int(slots.max()) if lanes else 0
        if limit > cube.shape[1]:
            grown = _np.empty((stride, limit, lanes), off_dtype)
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
    if not bool(_np.array_equal(cur, _np.asarray(expected_ends,
                                                 dtype=_np.int64))):
        raise _BigIntInChunk

    # Assemble stream order: record (lane b, slot k) sorts by (b, k).
    rec_off_stream = rec_off.T.ravel()
    slots_stream = slot_counts.T.ravel()
    total_slots = int(slots_stream.sum())
    if max_slots:
        valid = (_np.arange(max_slots)[None, :, None]
                 < slot_counts[:, None, :])
        flat_op_off = (cube[:, :max_slots, :].transpose(2, 0, 1)
                       [valid.transpose(2, 0, 1)])
    else:
        flat_op_off = _np.empty(0, off_dtype)

    # Bulk header gather: one fancy index, then per-field struct views.
    fresh = not block.opcode
    hdr = arr[rec_off_stream[:, None] + _NP_HDR_RANGE]
    recs = hdr.view(_NP_HDR_DTYPE).ravel()
    block.opcode.extend(recs["opcode"].tolist())
    block.line.extend(recs["line"].tolist())
    block.function_id.extend(recs["function_id"].tolist())
    block.has_result.extend(recs["has_result"].tolist())
    block._store_lazy(recs["dyn_id"], recs["callee_id"], rec_off_stream)
    base_slot = block.op_start[-1]
    op_start_np = _np.empty(len(rec_off_stream) + 1, _np.int64)
    op_start_np[0] = base_slot
    _np.cumsum(slots_stream, out=op_start_np[1:])
    if base_slot:
        op_start_np[1:] += base_slot
    block.op_start.extend(op_start_np[1:].tolist())
    if fresh:
        # Pre-seed the numpy mirrors from the header views — cheaper than
        # ``_finish`` rebuilding them from the freshly made lists.
        block.np_opcode = recs["opcode"].astype(_np.int64)
        block.np_line = recs["line"].astype(_np.int64)
        block.np_function_id = recs["function_id"].astype(_np.int64)
        block.np_op_start = op_start_np
        block.np_has_result = recs["has_result"]

    if total_slots:
        flags_u8 = arr[flat_op_off]
        block.op_flags.extend(flags_u8.tolist())
        op_name_np = (arr[flat_op_off[:, None] + _NP_OP_NAME_RANGE]
                      .view("<u4").ravel())
        block.op_name_id.extend(op_name_np.tolist())
        if fresh:
            block.np_op_name_id = op_name_np
        has_addr = (flags_u8 & 2) != 0
        addresses = _np.full(total_slots, None, dtype=object)
        if bool(has_addr.any()):
            addr_off = flat_op_off[has_addr] + size_lut[flags_u8[has_addr]] - 8
            addr_vals = (arr[addr_off[:, None] + _NP_ADDR_RANGE]
                         .view("<u8").ravel())
            addresses[has_addr] = addr_vals.tolist()
        block.op_address.extend(addresses.tolist())


# --------------------------------------------------------------------------- #
# Reader
# --------------------------------------------------------------------------- #
class TraceColumnarReader:
    """Stream a binary trace as :class:`ColumnarBlock` chunks.

    Exactly one of ``path`` and ``buffer`` is the byte source; ``buffer``
    is an already-open ``bytes`` / ``memoryview`` / ``mmap`` of the *whole*
    file (warm re-reads within one process skip the reopen), and a
    pre-read ``layout`` skips the footer parse.  :meth:`close` releases
    the owned file handle deterministically; the reader is a context
    manager.
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
        self.strings = layout.strings
        self.id_of: Dict[str, int] = {
            text: index for index, text in enumerate(layout.strings)}
        self._handle = None
        self._closed = False

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

    def _read_span(self, start: int, length: int) -> bytes:
        """``length`` bytes at absolute offset ``start`` (+1 guard byte
        when available — finished lockstep lanes peek one byte past their
        block)."""
        if self._buffer is not None:
            view = self._buffer
            return bytes(memoryview(view)[start:start + length])
        if self._closed:
            raise ValueError("columnar reader is closed")
        if self._handle is None:
            self._handle = open(self.path, "rb")
        self._handle.seek(start)
        data = self._handle.read(length)
        if len(data) < length:
            raise BinaryTraceError(
                f"truncated binary trace file {self.path!r}")
        return data

    # ------------------------------------------------------------------ #
    def _block_end(self, block_index: int) -> int:
        """Byte offset one past index block ``block_index``."""
        offsets = self.layout.block_offsets
        if block_index + 1 < len(offsets):
            return offsets[block_index + 1]
        return self.layout.records_end

    def _python_span(self, base_index: int, start_record: int,
                     count: int) -> ColumnarBlock:
        """Scan ``count`` records from ``start_record`` the slow way."""
        layout = self.layout
        offset, skip = layout.seek_position(start_record)
        covering = min((start_record + count - 1) // layout.index_stride
                       if layout.index_stride else 0,
                       len(layout.block_offsets) - 1)
        end = self._block_end(covering)
        buf = self._read_span(offset, end - offset)
        block = ColumnarBlock(base_index, self.strings, self.id_of, buf)
        position = 0
        if skip:
            scratch = ColumnarBlock(0, self.strings, self.id_of, buf)
            position = _scan_python(scratch, buf, 0, skip)
        _scan_python(block, buf, position, count)
        return block._finish()

    def iter_blocks(self, start_record: int = 0,
                    end_record: Optional[int] = None,
                    chunk_records: int = DEFAULT_CHUNK_RECORDS,
                    ) -> Iterator[ColumnarBlock]:
        """Yield the records in ``[start_record, end_record)`` as columns.

        Chunk boundaries are aligned to the block index so the interior of
        the range decodes via the lockstep scan; a leading/trailing partial
        index block (and any chunk containing a big-integer operand) falls
        back to the pure-Python scan, with identical columns either way.
        Memory stays bounded by ``chunk_records``.
        """
        layout = self.layout
        total = layout.record_count
        start = max(0, start_record)
        end = total if end_record is None else min(end_record, total)
        if start >= end:
            return
        stride = layout.index_stride or 1
        offsets = layout.block_offsets

        # Leading partial block: records up to the next index boundary.
        first_full = -(-start // stride)  # ceil
        if start % stride or first_full * stride > end:
            head_end = min(first_full * stride, end)
            yield self._python_span(start, start, head_end - start)
            start = head_end
            if start >= end:
                return

        # Full index blocks, decoded lockstep in chunks.
        last_full = min(end, total) // stride
        blocks_per_chunk = max(1, chunk_records // stride)
        block_index = start // stride
        while block_index < last_full:
            chunk_blocks = min(blocks_per_chunk, last_full - block_index)
            chunk_start = offsets[block_index]
            chunk_end = self._block_end(block_index + chunk_blocks - 1)
            guard = 1 if self._spans_past(chunk_end) else 0
            buf = self._read_span(chunk_start, chunk_end - chunk_start + guard)
            base = block_index * stride
            block = ColumnarBlock(base, self.strings, self.id_of, buf)
            starts = [offsets[b] - chunk_start
                      for b in range(block_index, block_index + chunk_blocks)]
            ends = starts[1:] + [chunk_end - chunk_start]
            if _np is None:
                _scan_python(block, buf, 0,
                             chunk_blocks * stride)
            else:
                try:
                    _scan_numpy(block, buf, starts, ends, stride)
                except (_BigIntInChunk, IndexError):
                    block = ColumnarBlock(base, self.strings, self.id_of, buf)
                    _scan_python(block, buf, 0, chunk_blocks * stride)
            yield block._finish()
            block_index += chunk_blocks

        # Trailing partial block.
        tail_start = last_full * stride
        if tail_start < end:
            yield self._python_span(tail_start, tail_start, end - tail_start)

    def _spans_past(self, offset: int) -> bool:
        """True when at least one byte exists past ``offset`` (the footer
        always follows the record region, so this is true for any chunk
        ending at or before ``records_end``)."""
        return offset <= self.layout.records_end
