"""BLCR-style whole-process checkpoint cost model (paper Table IV baseline).

Berkeley Lab Checkpoint/Restart saves the entire process image: code, heap,
stack and globals.  AutoCheck-selected checkpoints only hold the few critical
variables, which is where the multiple-orders-of-magnitude storage saving of
Table IV comes from.

On the interpreter the equivalent of the process image is: all module
globals + the peak stack footprint + a fixed process overhead standing in for
the text/heap/runtime segments a real BLCR dump contains (configurable;
defaults to 8 MiB, a deliberately conservative stand-in for a small
statically linked MPI binary — documented in DESIGN.md/EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tracer.interpreter import ExecutionResult
from repro.tracer.memory import Memory
from repro.util.formatting import format_bytes

#: Fixed stand-in for the code/heap/runtime part of a real process image.
DEFAULT_PROCESS_OVERHEAD_BYTES = 8 * 1024 * 1024


@dataclass
class BLCRModel:
    """Estimate the size of a whole-process (system-level) checkpoint."""

    process_overhead_bytes: int = DEFAULT_PROCESS_OVERHEAD_BYTES

    def checkpoint_bytes(self, memory: Memory) -> int:
        return (memory.total_global_bytes + memory.peak_stack_bytes
                + self.process_overhead_bytes)

    def checkpoint_bytes_from_result(self, result: ExecutionResult) -> int:
        if result.memory is None:
            raise ValueError("execution result carries no memory statistics")
        return self.checkpoint_bytes(result.memory)


@dataclass
class StorageComparison:
    """One row of the Table IV comparison."""

    benchmark: str
    blcr_bytes: int
    autocheck_bytes: int

    @property
    def ratio(self) -> float:
        if self.autocheck_bytes == 0:
            return float("inf")
        return self.blcr_bytes / self.autocheck_bytes

    def summary(self) -> str:
        return (f"{self.benchmark}: BLCR {format_bytes(self.blcr_bytes)} vs "
                f"AutoCheck {format_bytes(self.autocheck_bytes)} "
                f"({self.ratio:.1f}x smaller)")


def compare_storage_cost(benchmark: str, result: ExecutionResult,
                         autocheck_bytes: int,
                         model: Optional[BLCRModel] = None) -> StorageComparison:
    """Build a Table IV style row for one benchmark run."""
    model = model or BLCRModel()
    return StorageComparison(
        benchmark=benchmark,
        blcr_bytes=model.checkpoint_bytes_from_result(result),
        autocheck_bytes=autocheck_bytes,
    )
