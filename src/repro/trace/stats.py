"""Trace characterization statistics.

The paper motivates several of its findings with trace structure ("more than
95% instructions for initialization and logging and only less than 5% for the
main computation loop" in CoMD, Sec. VI-C).  This module computes those
characterizations from any trace: per-opcode and per-function record counts,
and the before/inside/after split around a main-loop specification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import MainLoopSpec
from repro.core.errors import AnalysisError
from repro.trace.records import Trace
from repro.util.formatting import render_table


@dataclass
class TraceStatistics:
    """Aggregate statistics of one dynamic trace."""

    record_count: int = 0
    global_count: int = 0
    opcode_histogram: Dict[str, int] = field(default_factory=dict)
    function_histogram: Dict[str, int] = field(default_factory=dict)
    memory_access_count: int = 0
    arithmetic_count: int = 0
    call_count: int = 0
    before_count: Optional[int] = None
    inside_count: Optional[int] = None
    after_count: Optional[int] = None

    @property
    def main_loop_fraction(self) -> Optional[float]:
        if self.inside_count is None or self.record_count == 0:
            return None
        return self.inside_count / self.record_count

    def top_opcodes(self, limit: int = 10) -> List[tuple]:
        return Counter(self.opcode_histogram).most_common(limit)

    def summary(self) -> str:
        lines = [
            f"records: {self.record_count} (globals preamble: {self.global_count})",
            f"memory accesses: {self.memory_access_count}, "
            f"arithmetic: {self.arithmetic_count}, calls: {self.call_count}",
        ]
        if self.inside_count is not None:
            lines.append(
                f"before/inside/after main loop: {self.before_count} / "
                f"{self.inside_count} / {self.after_count} "
                f"({(self.main_loop_fraction or 0) * 100:.1f}% inside)")
        rows = [(name, count) for name, count in self.top_opcodes()]
        lines.append(render_table(("opcode", "records"), rows))
        return "\n".join(lines)


def compute_trace_statistics(trace: Trace,
                             main_loop: Optional[MainLoopSpec] = None,
                             ) -> TraceStatistics:
    """Compute aggregate statistics for ``trace``.

    When ``main_loop`` is given the trace is additionally split around the
    loop's dynamic extent — from the first to the last record of the loop
    function on a loop line — so the "how much of the trace is the main
    loop" characterization (paper Sec. VI-C) can be reported.

    Raises:
        AnalysisError: when ``main_loop`` is given and no record falls
            inside it.
    """
    stats = TraceStatistics(record_count=len(trace.records),
                            global_count=len(trace.globals))
    opcode_counts: Counter = Counter()
    function_counts: Counter = Counter()
    for record in trace.records:
        opcode_counts[record.opcode_name] += 1
        function_counts[record.function] += 1
        if record.is_load or record.is_store:
            stats.memory_access_count += 1
        if record.is_arithmetic:
            stats.arithmetic_count += 1
        if record.is_call:
            stats.call_count += 1
    stats.opcode_histogram = dict(opcode_counts)
    stats.function_histogram = dict(function_counts)

    if main_loop is not None:
        loop_rows = [index for index, record in enumerate(trace.records)
                     if record.function == main_loop.function
                     and main_loop.contains_line(record.line)]
        if not loop_rows:
            raise AnalysisError(
                f"no trace record falls inside the main computation loop "
                f"range {main_loop.mclr} of function {main_loop.function!r}")
        stats.before_count = loop_rows[0]
        stats.inside_count = loop_rows[-1] - loop_rows[0] + 1
        stats.after_count = len(trace.records) - loop_rows[-1] - 1
    return stats
