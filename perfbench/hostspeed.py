"""CPU time normalised to the host's speed at the moment it was spent.

The benchmark runs on a shared VM whose speed drifts by tens of percent
within seconds: other tenants share its cores and caches.  On the 2-vCPU
Xeon VM (2.1 GHz) where the bounds were fixed, a fixed pure-Python loop
took between 0.023 and 0.036 CPU seconds within one 40 s run, and whole
fleet passes of ``reanalyze`` took between 3.4 and 5.4 CPU seconds.  The
process CPU clock follows that drift, so raw CPU throughput spread by more
than the benchmark's bounds from run to run.

:class:`HostMeter` brackets every timed section with a fixed reference
chunk of work that does not touch the program, and scales the section's
CPU time by ``REFERENCE_NOMINAL_S`` over the mean CPU time of the chunks
just before and just after it.  A slowdown of the whole host stretches the
section and its chunks alike and cancels; a change to the program moves
only the section.  In those fleet passes the ratio of pass time to
reference time stayed within 9.2-9.7 while the raw time ranged over 56%.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from typing import Iterator, Optional

#: Dictionary updates and list appends per reference chunk, then one sort.
REFERENCE_STEPS = 20_000
#: CPU seconds of one reference chunk on that VM when it is quiet.  The
#: constant only sets the scale of normalised seconds; it must never
#: change once a baseline exists, or every normalised figure moves.
REFERENCE_NOMINAL_S = 0.020


def reference_chunk() -> int:
    """A fixed mix of the interpreter work the program does: hashing,
    dictionary updates, tuple allocation, list growth and a sort."""
    table = {}
    items = []
    value = 12345
    for step in range(REFERENCE_STEPS):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        key = value & 0x3FFF
        table[key] = table.get(key, 0) + step
        items.append((key, step))
    items.sort()
    return len(table) + items[-1][1]


def _reference_cpu() -> float:
    # With the collector on, a full collection could land inside the
    # chunk and scan the program's whole heap, so the chunk's time would
    # depend on the program's state.
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        reference_chunk()
        return time.process_time() - started
    finally:
        if collecting:
            gc.enable()


@dataclass
class Timing:
    """Wall, process-CPU and normalised CPU seconds of timed sections."""

    wall: float = 0.0
    cpu: float = 0.0
    norm: float = 0.0

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.wall + other.wall, self.cpu + other.cpu,
                      self.norm + other.norm)


class HostMeter:
    """Times sections on the wall and CPU clocks and normalises the CPU
    time by reference chunks run right before and right after each one.

    Consecutive sections share the chunk between them, so a run of
    sections pays one chunk (about 20 ms) per section.  The chunks run
    outside the timed interval.  Sections must not overlap: a chunk has to
    run while nothing else in the process does.
    """

    def __init__(self) -> None:
        self._last_reference: Optional[float] = None

    @contextlib.contextmanager
    def timed(self) -> Iterator[Timing]:
        """Time the ``with`` body; the yielded :class:`Timing` is filled
        in when the body ends."""
        before = self._last_reference
        if before is None:
            before = _reference_cpu()
        timing = Timing()
        wall = time.perf_counter()
        cpu = time.process_time()
        yield timing
        timing.cpu = time.process_time() - cpu
        timing.wall = time.perf_counter() - wall
        after = _reference_cpu()
        self._last_reference = after
        timing.norm = timing.cpu * REFERENCE_NOMINAL_S / ((before + after)
                                                         / 2.0)
