"""``repro.trace`` — dynamic instruction execution trace data model and I/O.

This package plays the role of LLVM-Tracer's output format:

* :mod:`repro.trace.records` — the in-memory representation of one dynamic
  instruction record (source location, function, basic block, opcode, dynamic
  instruction id, operands with sizes/values/register-or-variable names and
  memory addresses) and of the global-variable preamble;
* :mod:`repro.trace.textio` — the line-oriented text encoding of those
  records (field-for-field equivalent to the LLVM-Tracer excerpts in paper
  Fig. 1 and Fig. 6) plus the one front door from a trace file's bytes of
  either encoding to a :class:`Trace` (:func:`trace_from_bytes`, and
  :func:`read_trace_file` for a path);
* :mod:`repro.trace.binio` — the compact block-indexed binary encoding:
  struct-packed records, an interned string table, a block-offset index
  footer and, since format version 2, a streaming content digest computed
  at write time — what the artifact store (:mod:`repro.store`) keys
  analysis results on.  A :class:`Trace` holds these bytes with their
  footer's layout, which the writer hands over or one parse reads, so
  its readers (:func:`decode_records`, the walk and
  :func:`check_content_digest`) never parse the footer again;
* :mod:`repro.trace.columnar` — the decoder the analysis walks: whole runs
  of binary record blocks become parallel column arrays.

Choosing an encoding: the text format is greppable and diff-friendly but
slow to parse and unable to represent names containing commas or newlines;
the binary format is the production path — smaller files, several times
faster decoding and the only encoding the analysis walks; an in-memory
:class:`Trace` holds it too (a text file is encoded once as it is read).
The front door sniffs the format, so callers never need to know which one
they were handed.
"""

from repro.trace.records import (
    GlobalSymbol,
    Trace,
    TraceOperand,
    TraceRecord,
    RESULT_INDEX,
)
from repro.trace.textio import (
    TraceFormatError,
    TraceTextWriter,
    parse_record_lines,
    read_trace_file,
    record_to_lines,
    trace_from_bytes,
    write_trace_file,
)
from repro.trace.binio import (
    BINARY_VERSION,
    SUPPORTED_VERSIONS,
    BinaryTraceError,
    TraceBinaryWriter,
    check_content_digest,
    decode_records,
    encode_trace,
    write_trace_file_binary,
)

__all__ = [
    "GlobalSymbol",
    "Trace",
    "TraceOperand",
    "TraceRecord",
    "RESULT_INDEX",
    "TraceFormatError",
    "TraceTextWriter",
    "parse_record_lines",
    "read_trace_file",
    "record_to_lines",
    "trace_from_bytes",
    "write_trace_file",
    "BINARY_VERSION",
    "SUPPORTED_VERSIONS",
    "BinaryTraceError",
    "TraceBinaryWriter",
    "check_content_digest",
    "decode_records",
    "encode_trace",
    "write_trace_file_binary",
]
