"""Line-oriented text encoding of dynamic traces, and the format front door.

The encoding is comma-separated, one line per entity, and mirrors the
information content of LLVM-Tracer's output (paper Fig. 1/6):

.. code-block:: text

    #,autocheck-trace,1,<module_name>
    g,<name>,<hex address>,<size bytes>,<element bits>,<is_array>
    0,<dyn id>,<opcode>,<opcode name>,<function>,<line>,<column>,<bb label>,<bb id>,<callee>
    op,<operand id>,<bits>,<is reg>,<name>,<value>,<hex address or ->
    res,<bits>,<is reg>,<name>,<value>,<hex address or ->

Every instruction block starts with a ``0,`` line (exactly as the paper notes
for LLVM-Tracer: "The first line of every operation block always starts with
0"), so a block boundary can be found without understanding record
internals.

Because the separator is a plain comma with no quoting, names containing
``,`` / ``\\n`` / ``\\r`` cannot be represented; the writer *rejects* them at
write time (:class:`TraceFormatError`) instead of silently emitting a trace
that no longer parses — traces that need arbitrary identifiers should use
the binary format (:mod:`repro.trace.binio`).

This module also hosts the front door from a trace file's bytes to a
:class:`~repro.trace.records.Trace`: :func:`trace_from_bytes` takes the
whole file's bytes of either encoding and dispatches on the binary magic,
and :func:`read_trace_file` reads a file once and hands it its bytes.
Either way the ``Trace`` holds version-2 bytes with their layout: binary
bytes have their footer parsed once, and text is encoded by a writer that
hands over the layout of what it wrote.
"""

from __future__ import annotations

import io
import itertools
import os
import struct
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Union

from repro.trace.binio import BINARY_MAGIC, encode_trace
from repro.trace.records import (
    GlobalSymbol,
    RESULT_INDEX,
    Trace,
    TraceOperand,
    TraceRecord,
)

FORMAT_VERSION = 1
HEADER_TAG = "#"
GLOBAL_TAG = "g"
RECORD_TAG = "0"
OPERAND_TAG = "op"
RESULT_TAG = "res"


class TraceFormatError(ValueError):
    """Raised when a trace file does not follow the expected encoding."""


#: The binary encoding's ranges of a record header's numbers, an operand's
#: bits and address and a global's address, size and element bits: a text
#: line whose numbers fall outside them is malformed.
_HEADER_RANGES = struct.Struct("<qiiii")
_OPERAND_RANGES = struct.Struct("<iQ")
_GLOBAL_RANGES = struct.Struct("<QQI")
#: The binary encoding stores a name's length in a u16 (only a line of
#: more than a quarter as many characters can hold a longer field) and a
#: record's operand count in a u8.
_MAX_FIELD_BYTES = 0xFFFF
_MAX_OPERANDS = 0xFF


# --------------------------------------------------------------------------- #
# Encoding helpers
# --------------------------------------------------------------------------- #
def _check_field(text: str, what: str) -> str:
    """Reject names the comma-separated format cannot represent.

    Emitting them anyway would silently corrupt the trace (the extra commas
    shift every later field); rejecting at write time turns that into an
    immediate, diagnosable error.  The binary format has no such limits.
    """
    if "," in text or "\n" in text or "\r" in text:
        raise TraceFormatError(
            f"{what} {text!r} contains a comma or newline, which the text "
            f"trace format cannot escape; write the trace in the binary "
            f"format instead")
    return text

def _encode_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _decode_value(text: str) -> Union[int, float]:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _encode_address(address: Optional[int]) -> str:
    return "-" if address is None else hex(address)


def _decode_address(text: str) -> Optional[int]:
    if text == "-" or text == "":
        return None
    return int(text, 16)


def _operand_line(tag: str, operand: TraceOperand) -> str:
    fields = [
        tag,
        _check_field(operand.index, "operand index"),
        str(operand.bits),
        str(int(operand.is_register)),
        _check_field(operand.name, "operand name"),
        _encode_value(operand.value),
        _encode_address(operand.address),
    ]
    if tag == RESULT_TAG:
        fields.pop(1)  # results don't repeat their index (it is always "r")
    return ",".join(fields)


def record_to_lines(record: TraceRecord) -> List[str]:
    """Encode one record as its text lines (header + operands + result)."""
    header = ",".join([
        RECORD_TAG,
        str(record.dyn_id),
        str(record.opcode),
        _check_field(record.opcode_name, "opcode name"),
        _check_field(record.function, "function name"),
        str(record.line),
        str(record.column),
        str(record.bb_label),
        _check_field(record.bb_id, "basic block id"),
        _check_field(record.callee, "callee name"),
    ])
    lines = [header]
    for operand in record.operands:
        lines.append(_operand_line(OPERAND_TAG, operand))
    if record.result is not None:
        lines.append(_operand_line(RESULT_TAG, record.result))
    return lines


def _parse_operand(parts: Sequence[str]) -> TraceOperand:
    # parts: op,<index>,<bits>,<is reg>,<name>,<value>,<addr>
    if len(parts) != 7:
        raise TraceFormatError(
            f"operand line has {len(parts)} fields, expected 7")
    operand = TraceOperand(
        index=parts[1],
        bits=int(parts[2]),
        is_register=bool(int(parts[3])),
        name=parts[4],
        value=_decode_value(parts[5]),
        address=_decode_address(parts[6]),
    )
    _OPERAND_RANGES.pack(operand.bits, operand.address or 0)
    return operand


def _parse_result(parts: Sequence[str]) -> TraceOperand:
    # parts: res,<bits>,<is reg>,<name>,<value>,<addr>
    if len(parts) != 6:
        raise TraceFormatError(
            f"result line has {len(parts)} fields, expected 6")
    return _parse_operand([OPERAND_TAG, RESULT_INDEX, *parts[1:]])


def _parse_header(parts: Sequence[str]) -> TraceRecord:
    # parts: 0,<dyn id>,<opcode>,<opcode name>,<function>,<line>,<column>,
    #        <bb label>,<bb id>[,<callee>]
    if len(parts) not in (9, 10):
        raise TraceFormatError(
            f"record header has {len(parts)} fields, expected 9 or 10")
    record = TraceRecord(
        dyn_id=int(parts[1]),
        opcode=int(parts[2]),
        opcode_name=parts[3],
        function=parts[4],
        line=int(parts[5]),
        column=int(parts[6]),
        bb_label=int(parts[7]),
        bb_id=parts[8],
        callee=parts[9] if len(parts) > 9 else "",
    )
    _HEADER_RANGES.pack(record.dyn_id, record.opcode, record.line,
                        record.column, record.bb_label)
    return record


def _parse_global(parts: Sequence[str]) -> GlobalSymbol:
    # parts: g,<name>,<hex address>,<size bytes>,<element bits>,<is_array>
    if len(parts) != 6:
        raise TraceFormatError(
            f"globals line has {len(parts)} fields, expected 6")
    symbol = GlobalSymbol(
        name=parts[1],
        address=int(parts[2], 16),
        size_bytes=int(parts[3]),
        element_bits=int(parts[4]),
        is_array=bool(int(parts[5])),
    )
    _GLOBAL_RANGES.pack(symbol.address, symbol.size_bytes,
                        symbol.element_bits)
    return symbol


def _check_field_lengths(line: str, parts: Sequence[str]) -> None:
    if len(line) > _MAX_FIELD_BYTES // 4 and any(
            len(part.encode()) > _MAX_FIELD_BYTES for part in parts):
        raise TraceFormatError(
            f"a field is longer than {_MAX_FIELD_BYTES} bytes")


@dataclass
class TextPreamble:
    """The module name and globals a text trace declares before its first
    record."""

    module_name: str = "module"
    globals: List[GlobalSymbol] = field(default_factory=list)


def iter_parsed_records(lines: Iterable[str], name: str = "<lines>",
                        preamble: Optional[TextPreamble] = None,
                        ) -> Iterator[TraceRecord]:
    """Incrementally parse text lines into complete records.

    A record is yielded only once it is complete, i.e. when the next ``0,``
    block-start line (or the end of the input) is seen.  The header and
    globals lines before the first record are parsed into ``preamble``
    (when given), so callers do not need to care whether their slice of
    the file holds them.  A malformed line raises
    :class:`TraceFormatError` naming ``name`` and the line's 1-based
    number.
    """
    if preamble is None:
        preamble = TextPreamble()
    current: Optional[TraceRecord] = None
    for number, raw in enumerate(lines, 1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(",")
        tag = parts[0]
        if tag == RECORD_TAG and current is not None:
            yield current
        try:
            _check_field_lengths(line, parts)
            if tag == RECORD_TAG:
                current = _parse_header(parts)
            elif tag == OPERAND_TAG or tag == RESULT_TAG:
                if current is None:
                    raise TraceFormatError("operand line before any record")
                if tag == OPERAND_TAG:
                    if len(current.operands) == _MAX_OPERANDS:
                        raise TraceFormatError(
                            f"a record has more than {_MAX_OPERANDS} operands")
                    current.operands.append(_parse_operand(parts))
                else:
                    current.result = _parse_result(parts)
            elif tag == GLOBAL_TAG:
                if current is not None:
                    raise TraceFormatError(
                        "globals line after the first record")
                preamble.globals.append(_parse_global(parts))
            elif tag == HEADER_TAG:
                if current is None and len(parts) >= 4:
                    preamble.module_name = parts[3]
            else:
                raise TraceFormatError(f"unrecognised trace line tag {tag!r}")
        except (ValueError, struct.error) as exc:
            raise _line_error(name, number, line, exc) from None
    if current is not None:
        yield current


def _line_error(name: str, number: int, line: str,
                exc: Exception) -> TraceFormatError:
    """The error of a malformed line: ``name:number: ...``, one line."""
    shown = line if len(line) <= 80 else line[:80] + "..."
    return TraceFormatError(
        f"{name}:{number}: malformed trace line {shown!r}: {exc}")


def parse_record_lines(lines: Iterable[str]) -> List[TraceRecord]:
    """Parse a sequence of text lines (no preamble) into records."""
    return list(iter_parsed_records(lines))


# --------------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------------- #
class TraceTextWriter:
    """Stream a trace to a text file as it is generated."""

    def __init__(self, path: str, module_name: str = "module") -> None:
        self.path = path
        self.module_name = _check_field(module_name, "module name")
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8",
                                           newline="\n")
        self._fh.write(f"{HEADER_TAG},autocheck-trace,{FORMAT_VERSION},{module_name}\n")
        self._record_count = 0

    def write_global(self, symbol: GlobalSymbol) -> None:
        assert self._fh is not None
        self._fh.write(",".join([
            GLOBAL_TAG,
            _check_field(symbol.name, "global name"),
            hex(symbol.address),
            str(symbol.size_bytes),
            str(symbol.element_bits),
            str(int(symbol.is_array)),
        ]) + "\n")

    def write_record(self, record: TraceRecord) -> None:
        assert self._fh is not None
        self._fh.write("\n".join(record_to_lines(record)) + "\n")
        self._record_count += 1

    @property
    def record_count(self) -> int:
        return self._record_count

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceTextWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace_file(trace: Trace, path: str) -> int:
    """Write a trace to ``path``; return the file size in bytes."""
    with TraceTextWriter(path, module_name=trace.module_name) as writer:
        for symbol in trace.globals:
            writer.write_global(symbol)
        for record in trace:
            writer.write_record(record)
    return os.path.getsize(path)


# --------------------------------------------------------------------------- #
# Reader: the front door from a trace file's bytes
# --------------------------------------------------------------------------- #
def trace_from_bytes(data: bytes, name: str) -> Trace:
    """The trace a whole trace file's bytes encode, of either encoding.

    Bytes that start with the binary magic are kept as they are, over
    the one parse of their footer (:meth:`Trace.from_binary`).  Any other
    bytes are UTF-8 text, parsed in one pass over their lines (header,
    globals and records) and encoded once, streaming; the trace keeps the
    encoder's layout of its bytes, so nothing parses them again.
    ``name`` is the file the bytes came from: errors name it, and it is
    the trace's :attr:`~Trace.source_path`.

    Raises:
        TraceFormatError: on a malformed text line, naming ``name`` and
            the line's 1-based number, or on bytes that are neither a
            binary trace nor UTF-8 text.
        repro.trace.binio.BinaryTraceError: on binary bytes that do not
            decode (the message names ``name``).
    """
    if data[:len(BINARY_MAGIC)] == BINARY_MAGIC:
        return Trace.from_binary(data, name)
    preamble = TextPreamble()
    records = iter_parsed_records(
        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), name, preamble)
    try:
        # A record is complete only at the next record's header line, past
        # every preamble line: the preamble is whole once the first record
        # is, so the encoder can take the module name and globals then.
        first = next(records, None)
        encoded, layout = encode_trace(
            preamble.module_name, preamble.globals,
            () if first is None else itertools.chain((first,), records))
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{name}: neither a binary trace nor UTF-8 text: {exc}") from None
    return Trace.from_encoded(encoded, layout, name)


def read_trace_file(path: str) -> Trace:
    """Read a trace file of either encoding as a :class:`Trace` over its
    bytes: the file is read once and handed to :func:`trace_from_bytes`,
    named ``path``."""
    with open(path, "rb") as handle:
        return trace_from_bytes(handle.read(), path)
