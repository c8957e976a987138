"""``repro.trace`` — dynamic instruction execution trace data model and I/O.

This package plays the role of LLVM-Tracer's output format:

* :mod:`repro.trace.records` — the in-memory representation of one dynamic
  instruction record (source location, function, basic block, opcode, dynamic
  instruction id, operands with sizes/values/register-or-variable names and
  memory addresses) and of the global-variable preamble;
* :mod:`repro.trace.textio` — the line-oriented text encoding of those
  records (field-for-field equivalent to the LLVM-Tracer excerpts in paper
  Fig. 1 and Fig. 6) plus the format-sniffing front doors
  (:func:`read_trace_file`, :func:`read_preamble`,
  :func:`iter_trace_records`) that accept either encoding;
* :mod:`repro.trace.binio` — the compact block-indexed binary encoding:
  struct-packed records, an interned string table, a block-offset index
  footer and, since format version 2, a streaming content digest computed
  at write time — what the artifact store (:mod:`repro.store`) keys
  analysis results on;
* :mod:`repro.trace.columnar` — the decoder the analysis walks: whole runs
  of binary record blocks become parallel column arrays;
* :mod:`repro.trace.partition` — block-boundary-preserving partitioning of a
  trace file into sub-streams parsed concurrently into an in-memory trace,
  reproducing the OpenMP pre-processing optimization of paper Sec. V-A
  (byte-exact for both encodings).

Choosing an encoding: the text format is greppable and diff-friendly but
slow to parse and unable to represent names containing commas or newlines;
the binary format is the production path — smaller files, several times
faster decoding and the only encoding the analysis walks (other inputs are
encoded into memory first).  All readers sniff the format, so callers never
need to know which one they were handed.
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
    TraceTextReader,
    TraceTextWriter,
    iter_trace_records,
    parse_record_lines,
    read_preamble,
    read_trace_file,
    record_to_lines,
    sniff_trace_format,
    write_trace_file,
)
from repro.trace.binio import (
    BINARY_VERSION,
    SUPPORTED_VERSIONS,
    BinaryTraceError,
    TraceBinaryReader,
    TraceBinaryWriter,
    encode_trace,
    is_binary_trace_file,
    iter_trace_file_binary,
    partition_offsets_binary,
    read_trace_file_binary,
    read_trace_file_binary_parallel,
    verify_content_digest,
    write_trace_file_binary,
)
from repro.trace.partition import (
    TracePartition,
    partition_offsets,
    read_trace_file_parallel,
)

__all__ = [
    "GlobalSymbol",
    "Trace",
    "TraceOperand",
    "TraceRecord",
    "RESULT_INDEX",
    "TraceFormatError",
    "TraceTextReader",
    "TraceTextWriter",
    "iter_trace_records",
    "parse_record_lines",
    "read_preamble",
    "read_trace_file",
    "record_to_lines",
    "sniff_trace_format",
    "write_trace_file",
    "BINARY_VERSION",
    "SUPPORTED_VERSIONS",
    "BinaryTraceError",
    "TraceBinaryReader",
    "TraceBinaryWriter",
    "encode_trace",
    "is_binary_trace_file",
    "iter_trace_file_binary",
    "partition_offsets_binary",
    "read_trace_file_binary",
    "read_trace_file_binary_parallel",
    "verify_content_digest",
    "write_trace_file_binary",
    "TracePartition",
    "partition_offsets",
    "read_trace_file_parallel",
]
