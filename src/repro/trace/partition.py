"""Parallel, block-boundary-preserving trace-file reading.

This reproduces the paper's pre-processing optimization (Sec. V-A): the
master partitions the input file stream into sub-file-streams *without
breaking individual instruction blocks* and worker threads/processes parse
the sub-streams concurrently.  The paper uses 48 OpenMP threads; here the
worker pool is either a thread pool (default, low overhead) or a
:class:`concurrent.futures.ProcessPoolExecutor` for genuinely parallel
parsing of very large traces.

Two on-disk encodings are supported and sniffed automatically:

* the line-oriented **text** format (:mod:`repro.trace.textio`) — partition
  boundaries are found by scanning forward for the next ``0,`` block-start
  line.  All offsets are *byte* offsets and all handles are opened in
  **binary** mode: seeking through a text-mode handle with byte offsets
  derived from ``os.path.getsize`` misaligns partitions as soon as the trace
  contains a multi-byte (non-ASCII) identifier or ``\\r\\n`` line endings.
  Each aligned chunk is whole lines by construction, so it is decoded as
  UTF-8 per chunk before parsing.
* the block-indexed **binary** format (:mod:`repro.trace.binio`) — partition
  boundaries come straight from the block-offset index in the footer, so no
  scanning is needed at all.

The result is an in-memory :class:`~repro.trace.records.Trace`: analysing it
takes the in-memory encode into the one columnar walk, like any other
in-memory trace.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

from repro.trace.binio import is_binary_trace_file, read_trace_file_binary_parallel
from repro.trace.records import Trace, TraceRecord
from repro.trace.textio import parse_record_lines, read_preamble

#: Every instruction block starts with a line whose first field is ``0``.
RECORD_PREFIX = b"0,"


@dataclass(frozen=True)
class TracePartition:
    """A byte range of the trace file containing only whole instruction blocks."""

    index: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


def _align_to_block_start(handle, offset: int, file_size: int) -> int:
    """Advance ``offset`` to the beginning of the next instruction block.

    Instruction blocks always start with a line whose first field is ``0``
    (the same property the paper relies on for LLVM-Tracer output), so the
    next block boundary is the next line starting with ``0,``.  ``handle``
    must be opened in binary mode so that ``tell()`` returns exact byte
    offsets regardless of the characters in the trace.
    """
    if offset <= 0:
        return 0
    if offset >= file_size:
        return file_size
    handle.seek(offset)
    handle.readline()  # skip the (possibly partial) current line
    while True:
        position = handle.tell()
        line = handle.readline()
        if not line:
            return file_size
        if line.startswith(RECORD_PREFIX):
            return position


def partition_offsets(path: str, num_partitions: int) -> List[TracePartition]:
    """Split a text trace file into ``num_partitions`` block-aligned byte ranges.

    Always returns exactly ``num_partitions`` partitions tiling the file in
    order; partitions may be empty (an empty file yields all-empty
    partitions, and a trace with fewer instruction blocks than partitions
    leaves the surplus partitions empty) so callers need no special-case
    guards.

    Args:
        path: text trace file to partition.
        num_partitions: how many byte ranges to produce (>= 1).

    Returns:
        ``num_partitions`` :class:`TracePartition` objects whose internal
        boundaries each fall on an instruction-block start.

    Raises:
        ValueError: when ``num_partitions < 1``.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    file_size = os.path.getsize(path)
    if file_size == 0:
        return [TracePartition(index=part, start=0, end=0)
                for part in range(num_partitions)]

    boundaries = [0]
    with open(path, "rb") as handle:
        for index in range(1, num_partitions):
            target = (file_size * index) // num_partitions
            aligned = _align_to_block_start(handle, target, file_size)
            boundaries.append(aligned)
    boundaries.append(file_size)

    partitions: List[TracePartition] = []
    for index in range(num_partitions):
        start = boundaries[index]
        end = boundaries[index + 1]
        if end < start:
            end = start
        partitions.append(TracePartition(index=index, start=start, end=end))
    return partitions


def _parse_partition(path: str, start: int, end: int) -> List[TraceRecord]:
    """Worker: parse the byte range ``[start, end)`` of ``path``.

    The range is read in binary mode — partition offsets are byte offsets —
    and decoded per chunk; block alignment guarantees the chunk contains
    whole lines, so no multi-byte character is ever split.
    """
    if end <= start:
        return []
    with open(path, "rb") as handle:
        handle.seek(start)
        data = handle.read(end - start)
    return parse_record_lines(data.decode("utf-8").splitlines())


def read_trace_file_parallel(path: str, num_workers: int = 4,
                             use_processes: bool = False) -> Trace:
    """Read a trace file by parsing block-aligned partitions concurrently.

    Sniffs the on-disk format: block-indexed binary traces are dispatched to
    :func:`repro.trace.binio.read_trace_file_binary_parallel`.  The result is
    identical (record for record) to the serial
    :func:`repro.trace.textio.read_trace_file`; the property-based tests
    assert this equivalence.

    Args:
        path: trace file in either encoding.
        num_workers: partition/worker count (values < 1 behave like 1).
        use_processes: parse with a process pool instead of the default
            thread pool (worth it only for very large traces).

    Returns:
        The fully materialized :class:`Trace`, records in file order.
    """
    if is_binary_trace_file(path):
        return read_trace_file_binary_parallel(path, num_workers=num_workers,
                                               use_processes=use_processes)
    module_name, globals_ = read_preamble(path)
    partitions = partition_offsets(path, max(1, num_workers))

    if len(partitions) == 1 or num_workers <= 1:
        records = _parse_partition(path, partitions[0].start, partitions[-1].end)
        return Trace(module_name=module_name, globals=globals_, records=records)

    executor_cls = ProcessPoolExecutor if use_processes else ThreadPoolExecutor
    chunks: List[Optional[List[TraceRecord]]] = [None] * len(partitions)
    with executor_cls(max_workers=num_workers) as executor:
        futures = {
            executor.submit(_parse_partition, path, part.start, part.end): part.index
            for part in partitions
        }
        for future, index in futures.items():
            chunks[index] = future.result()

    records: List[TraceRecord] = []
    for chunk in chunks:
        if chunk:
            records.extend(chunk)
    records.sort(key=lambda record: record.dyn_id)
    return Trace(module_name=module_name, globals=globals_, records=records)
