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

One scan turns record bytes into columns, a **numpy lockstep scan**: the
block index gives the byte offset of every ``INDEX_STRIDE``-th record, so
a chunk of B index blocks is decoded *simultaneously* — one vector step
per record slot k advances all B lanes at once, and the operand walk
advances each lane by a flags-byte size lookup.  The trailing partial
index block is the last chunk's short last lane, which leaves the
lockstep once its records end.  A big-integer operand (variable length)
has no size in the lookup, so its lane stops advancing and misses the
end the block index gives it; such a chunk is scanned again by the same
function with big-integer sizing on, which reads each big integer's digit
count and parses its digits as the record decoder does, so the common
chunk pays nothing for it.

The scan then refuses every field the record decoder would refuse: records
that do not end exactly where the block index says their span ends, a
string id past the string table (a record's opcode-name, function,
basic-block or callee id, or a slot's index or name id), a has-result
byte above 1, an unknown value tag and big-integer digits that do not
parse.  Each is a :class:`~repro.trace.binio.BinaryTraceError` naming the
file and the record, so every record of a block the scan yields decodes
(:meth:`ColumnarBlock.record`).

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

from typing import Dict, Iterator, List, NoReturn, Optional

import numpy as np

from repro.trace.binio import (
    _OPERAND_FIXED,
    _OPERAND_TABLE,
    _RECORD_FIXED,
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

#: flags byte -> total encoded operand size (0 marks a value tag the
#: lookup cannot size: the variable-length big integer, or an unknown one).
_SIZE_BY_FLAGS = tuple(entry[1] if entry is not None else 0
                       for entry in _OPERAND_TABLE)

_HDR_SIZE = _RECORD_FIXED.size  # 42
_OP_FIXED_SIZE = _OPERAND_FIXED.size  # 13
#: the lowest flags byte whose value tag the size lookup cannot size
_FLAGS_BIG = _VALUE_BIG << 4

# int32 everywhere the values are byte offsets: offsets into one chunk
# buffer always fit, and halving the index-array width measurably cuts
# the gather traffic of the lockstep scan (int64 variants cover
# big-integer sizing and the implausible >2 GiB-buffer case).
_NP_SIZE_LUT = np.array(_SIZE_BY_FLAGS, dtype=np.int64)
_NP_SIZE_LUT32 = np.array(_SIZE_BY_FLAGS, dtype=np.int32)
#: the fixed record header reinterpreted in place — one bulk gather of
#: the 42 header bytes per record, then per-field strided views instead
#: of one copy per field.
_NP_HDR_DTYPE = np.dtype({
    "names": ["dyn_id", "opcode", "line", "opcode_name_id", "function_id",
              "bb_id", "callee_id", "has_result"],
    "formats": ["<i8", "<i4", "<i4", "<u4", "<u4", "<u4", "<u4", "u1"],
    "offsets": [0, 8, 12, 24, 28, 32, 36, 41],
    "itemsize": _HDR_SIZE,
})
#: the operand-head fields :meth:`ColumnarBlock.slot_field` reads: name
#: -> (byte offset in the slot, dtype)
_SLOT_FIELDS = {"index_id": (1, "<u4"), "bits": (5, "<i4")}


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

    Every column is a numpy array: ``opcode`` / ``line`` /
    ``function_id`` / ``op_start`` (``int64``),
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
        """Materialize (and cache) the full record at ``row`` (the scan
        refused every block with a record that does not decode)."""
        record = self._records.get(row)
        if record is None:
            record, _ = _decode_record(self.buf, int(self.rec_off[row]),
                                       self.strings)
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
# The lockstep scan
# --------------------------------------------------------------------------- #
def _refuse(block: ColumnarBlock, row: int, what: str) -> NoReturn:
    raise BinaryTraceError(
        f"{block.name!r}: record {block.base_index + row} {what}")


def _scan(block: ColumnarBlock, starts: List[int], end: int, stride: int,
          count: int, big: bool = False) -> bool:
    """Fill ``block`` with the ``count`` records of its chunk, or return
    False for the caller to scan it again with ``big`` on.

    ``starts`` are the byte offsets (in ``block.buf``) of the chunk's
    index blocks, its lanes, and each lane ends where the next starts,
    the last at ``end``.  Every lane holds ``stride`` records but the
    last, which may hold fewer.  ``block.buf`` extends at least one byte
    past ``end``: finished lanes park their cursor on the next block's
    first byte.

    A big integer is *not* tested for in the hot loop: its size-lookup
    entry is 0, so its lane stops advancing and misses its end.  Only
    with ``big`` does the loop size it, and only then is a lane that
    misses its end refused.  Every other field the record decoder would
    refuse is refused either way (:func:`_check`), naming the file and
    the record.
    """
    buf = block.buf
    if count * _HDR_SIZE > end:  # more records than their bytes can hold
        _refuse(block, 0, "and the records after it overrun their span in "
                          "the block index")
    arr = np.frombuffer(buf, dtype=np.uint8)
    lanes = len(starts)
    short = count - (lanes - 1) * stride  # the last lane's records
    steps = stride if lanes > 1 else count
    if big or len(buf) > 0x7FFFFF00:  # a digit count can reach past 2 GiB
        off_dtype, size_lut = np.int64, _NP_SIZE_LUT
    else:  # offsets (and offset sums) fit in int32
        off_dtype, size_lut = np.int32, _NP_SIZE_LUT32
    cur = np.asarray(starts, dtype=off_dtype)
    final = np.empty(lanes, np.int64)
    rec_off = np.empty((steps, lanes), off_dtype)
    slot_counts = np.zeros((steps, lanes), np.int64)
    # Operand offsets write straight into their stream-assembly cube slot
    # (grown in the rare record with more slots than the initial guess).
    cube = np.empty((steps, 8, lanes), off_dtype)
    # The live lanes' rows of rec_off and slot_counts (all but the short
    # lane once it has ended).
    width, rows, counts = lanes, rec_off, slot_counts
    max_slots = 0
    try:
        for k in range(steps):
            if k == short:  # the short last lane has ended
                width -= 1
                final[width] = cur[width]
                cur = cur[:width]
                rows, counts = rec_off[:, :width], slot_counts[:, :width]
            rows[k] = cur
            slots = arr[cur + 40].astype(np.int64)
            slots += arr[cur + 41]
            counts[k] = slots
            op_cur = cur + _HDR_SIZE
            limit = int(slots.max())
            if limit > cube.shape[1]:
                grown = np.empty((steps, limit, lanes), off_dtype)
                grown[:, :cube.shape[1], :] = cube
                cube = grown
            if limit > max_slots:
                max_slots = limit
            row_cube = cube[k, :, :width]
            for j in range(limit):
                row_cube[j] = op_cur
                flags = arr[op_cur]
                sizes = size_lut[flags]
                live = slots > j
                sizes *= live  # freeze finished (and unsized) lanes
                if big:
                    _size_big_integers(block, flags, sizes, op_cur, live,
                                       stride, k)
                op_cur += sizes
            cur = op_cur
    except IndexError:
        if not big:
            return False
        _refuse(block, 0, "and the records after it overrun their span in "
                          "the block index")
    final[:width] = cur
    ends = np.array(starts[1:] + [end], dtype=np.int64)
    if not bool(np.array_equal(final, ends)):
        if not big:
            return False
        lane = int(np.flatnonzero(final != ends)[0])
        missing = int(ends[lane] - final[lane])
        _refuse(block, lane * stride,
                f"and the records after it end {abs(missing)} bytes "
                f"{'short of' if missing > 0 else 'past'} their span in the "
                f"block index (the footer's record count or block index is "
                f"wrong)")

    # Assemble stream order: record (lane b, step k) sorts by (b, k), and
    # the short lane's missing records sort last.
    rec_off_stream = rec_off.T.ravel()[:count]
    if max_slots:
        valid = (np.arange(max_slots)[None, :, None]
                 < slot_counts[:, None, :])
        flat_op_off = (cube[:, :max_slots, :].transpose(2, 0, 1)
                       [valid.transpose(2, 0, 1)])
    else:
        flat_op_off = np.empty(0, off_dtype)
    flags_u8 = arr[flat_op_off]
    if not big and flags_u8.size and int(flags_u8.max()) >= _FLAGS_BIG:
        return False  # a frozen lane met its end by chance

    # Bulk header gather: one fancy index, then per-field struct views.
    recs = _at_every_byte(buf, _NP_HDR_DTYPE)[rec_off_stream]
    block.count = count
    block.dyn_id = recs["dyn_id"]
    block.callee_id = recs["callee_id"]
    block.rec_off = rec_off_stream
    block.opcode = recs["opcode"].astype(np.int64)
    block.line = recs["line"].astype(np.int64)
    block.function_id = recs["function_id"].astype(np.int64)
    block.has_result = recs["has_result"]
    block.op_start = np.empty(count + 1, np.int64)
    block.op_start[0] = 0
    np.cumsum(slot_counts.T.ravel()[:count], out=block.op_start[1:])

    block.op_off = flat_op_off
    block.op_flags = flags_u8
    block.op_name_id = _at_every_byte(buf, "<u4")[flat_op_off + 9]
    has_addr = (flags_u8 & 2) != 0
    block.op_address = np.zeros(len(flat_op_off), dtype=np.uint64)
    if bool(has_addr.any()):
        at = flat_op_off[has_addr]
        sizes = size_lut[flags_u8[has_addr]]
        if big:  # a big integer's address follows its digits
            bigs = sizes == 0
            sizes[bigs] = (_OP_FIXED_SIZE + 4 + 8
                           + _at_every_byte(buf, "<u4")[at[bigs]
                                                        + _OP_FIXED_SIZE])
        block.op_address[has_addr] = _at_every_byte(buf, "<u8")[at + sizes
                                                                 - 8]
    _check(block, recs)
    return True


def _size_big_integers(block: ColumnarBlock, flags, sizes, at, live,
                       stride: int, k: int) -> None:
    """Size each live lane's operand at ``at`` that the size lookup left
    at 0 in ``sizes``: a big integer, whose digits must parse as the
    record decoder parses them.  Any other value tag is refused, naming
    the lane's ``k``-th record."""
    buf = block.buf
    for lane in np.flatnonzero(live & (sizes == 0)).tolist():
        tag = int(flags[lane]) >> 4
        if tag != _VALUE_BIG:
            _refuse(block, lane * stride + k,
                    f"has unknown operand value tag {tag}")
        position = int(at[lane]) + _OP_FIXED_SIZE
        digits = int.from_bytes(buf[position:position + 4], "little")
        text = bytes(buf[position + 4:position + 4 + digits])
        try:
            int(text)
        except ValueError:
            _refuse(block, lane * stride + k,
                    f"has big-integer digits {text[:40]!r} that do not parse")
        sizes[lane] = (_OP_FIXED_SIZE + 4 + digits
                       + (8 if flags[lane] & 2 else 0))


def _check(block: ColumnarBlock, header) -> None:
    """Refuse ``block`` when a record's string id reaches past the string
    table or its has-result byte is above 1 (one vector max per column),
    naming the file and the first such record; ``header`` is the records'
    header structs."""
    size = len(block.strings)
    index_ids = _at_every_byte(block.buf, "<u4")[block.op_off + 1]
    for what, ids in (("opcode-name", header["opcode_name_id"]),
                      ("function", block.function_id),
                      ("basic-block", header["bb_id"]),
                      ("callee", block.callee_id),
                      ("operand-index", index_ids),
                      ("operand-name", block.op_name_id)):
        if ids.size and int(ids.max()) >= size:
            at = int(np.flatnonzero(ids >= size)[0])
            row = (int(np.searchsorted(block.op_start, at, "right")) - 1
                   if what.startswith("operand") else at)
            _refuse(block, row, f"has {what} id {int(ids[at])}, past the "
                                f"{size}-entry string table")
    if block.count and int(block.has_result.max()) > 1:
        row = int(np.flatnonzero(block.has_result > 1)[0])
        _refuse(block, row, f"has a has-result byte of "
                            f"{int(block.has_result[row])}, not 0 or 1")


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

        Chunks hold whole index blocks, the last of them the trailing
        partial one, and decode via the lockstep scan.  Memory stays
        bounded by ``chunk_records``.

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
        blocks_per_chunk = max(1, chunk_records // stride)
        for first in range(0, len(offsets), blocks_per_chunk):
            stop = min(first + blocks_per_chunk, len(offsets))
            chunk_start = offsets[first]
            chunk_end = (offsets[stop] if stop < len(offsets)
                         else layout.records_end)
            # One guard byte past the chunk (the footer always follows
            # the record region): finished lanes park their cursor there.
            buf = self._read_span(chunk_start, chunk_end - chunk_start, 1)
            starts = [offset - chunk_start for offset in offsets[first:stop]]
            count = min(stop * stride, layout.record_count) - first * stride
            block = ColumnarBlock(name, first * stride, self.strings,
                                  self.id_of, buf)
            if not _scan(block, starts, chunk_end - chunk_start, stride,
                         count):
                _scan(block, starts, chunk_end - chunk_start, stride, count,
                      big=True)
            yield block
