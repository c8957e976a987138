"""Concrete memory model for the tracing interpreter.

Two segments are modelled:

* a **global segment** starting at ``0x1000_0000`` holding module globals —
  these addresses are stable for the whole execution and are published in the
  trace's globals preamble;
* a **stack segment** starting at ``0x7f00_0000_0000`` growing upwards, with
  one contiguous span per ``Alloca``.  Frames release their span on return,
  so locals of different calls may legitimately reuse addresses — never
  overlapping live globals or the main function's frame, which is what makes
  the paper's address-matching disambiguation (Challenge 2) sound.

The memory also keeps the statistics needed by the Table IV storage study:
total global footprint and peak stack footprint (the BLCR-style
whole-process checkpoint size is derived from them).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List

from repro.tracer.values import RuntimeValue


class MemoryError_(Exception):
    """Raised on invalid memory operations (e.g. division of segments)."""


GLOBAL_BASE = 0x1000_0000
STACK_BASE = 0x7F00_0000_0000
_ALIGNMENT = 8


def _align(value: int, alignment: int = _ALIGNMENT) -> int:
    return (value + alignment - 1) // alignment * alignment


# Slotted and not frozen, as :class:`~repro.tracer.values.PointerValue`
# is: every Alloca builds one.  It compares and hashes by value, which
# holds because nothing assigns to its fields after it is built.
@dataclass(slots=True, unsafe_hash=True)
class Allocation:
    """Metadata describing one allocated variable."""

    name: str
    address: int
    size_bytes: int
    element_bits: int
    count: int
    is_array: bool
    segment: str  # "global" | "stack"
    function: str = ""

    @property
    def element_bytes(self) -> int:
        return self.element_bits // 8

    @property
    def end_address(self) -> int:
        return self.address + self.size_bytes

    def element_addresses(self) -> List[int]:
        step = self.element_bytes
        if step == 0:  # elements narrower than a byte share one address
            return [self.address] * self.count
        return list(range(self.address, self.address + self.count * step,
                          step))


class Memory:
    """Byte-addressed (element-granular) memory with allocation tracking."""

    def __init__(self) -> None:
        #: element values by address (the interpreter's compiled steps read
        #: and write it directly)
        self.cells: Dict[int, RuntimeValue] = {}
        self._global_cursor = GLOBAL_BASE
        self._stack_pointer = STACK_BASE
        self._peak_stack = STACK_BASE
        self.global_allocations: List[Allocation] = []
        self.stack_allocations: List[Allocation] = []

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def allocate_global(self, name: str, element_bits: int, count: int,
                        is_array: bool) -> Allocation:
        size = _align(count * (element_bits // 8))
        allocation = Allocation(name=name, address=self._global_cursor,
                                size_bytes=size, element_bits=element_bits,
                                count=count, is_array=is_array,
                                segment="global")
        self._global_cursor += size
        self.global_allocations.append(allocation)
        return allocation

    def allocate_stack(self, name: str, element_bits: int, count: int,
                       is_array: bool, function: str) -> Allocation:
        size = _align(count * (element_bits // 8))
        allocation = Allocation(name=name, address=self._stack_pointer,
                                size_bytes=size, element_bits=element_bits,
                                count=count, is_array=is_array,
                                segment="stack", function=function)
        self._stack_pointer += size
        self._peak_stack = max(self._peak_stack, self._stack_pointer)
        self.stack_allocations.append(allocation)
        return allocation

    def stack_mark(self) -> int:
        """Return the current stack pointer (to be restored on frame exit)."""
        return self._stack_pointer

    def stack_release(self, mark: int) -> None:
        if mark > self._stack_pointer:
            raise MemoryError_("cannot release the stack upwards")
        self._stack_pointer = mark

    # ------------------------------------------------------------------ #
    # Loads and stores
    # ------------------------------------------------------------------ #
    def load(self, address: int, default: RuntimeValue = 0) -> RuntimeValue:
        return self.cells.get(address, default)

    def store(self, address: int, value: RuntimeValue) -> None:
        self.cells[address] = value

    # A checkpoint reads and writes whole variables: one pass over the
    # cell dict per block, in ``element_addresses()`` order.  Elements
    # narrower than a byte share one address, so each reads that address's
    # value, and the last value written to it wins, as with one store per
    # element.
    def read_block(self, allocation: Allocation,
                   default: RuntimeValue = 0) -> List[RuntimeValue]:
        return list(map(self.cells.get, allocation.element_addresses(),
                        repeat(default, allocation.count)))

    def write_block(self, allocation: Allocation,
                    values: List[RuntimeValue]) -> None:
        addresses = allocation.element_addresses()
        if len(values) != len(addresses):
            raise MemoryError_(
                f"block size mismatch for {allocation.name!r}: "
                f"{len(values)} values for {len(addresses)} elements")
        self.cells.update(zip(addresses, values))

    # ------------------------------------------------------------------ #
    # Statistics (Table IV)
    # ------------------------------------------------------------------ #
    @property
    def total_global_bytes(self) -> int:
        return sum(alloc.size_bytes for alloc in self.global_allocations)

    @property
    def peak_stack_bytes(self) -> int:
        return self._peak_stack - STACK_BASE

    @property
    def process_image_bytes(self) -> int:
        """Size of the whole simulated process image (globals + peak stack)."""
        return self.total_global_bytes + self.peak_stack_bytes

    # ------------------------------------------------------------------ #
    # A new machine over the same cell store
    # ------------------------------------------------------------------ #
    def renew(self) -> "Memory":
        """An empty memory that takes over this one's ``cells`` dict.

        An interpreter that runs its module again keeps its compiled
        steps, and they read and write that dict, so the next run's memory
        must be the same dict, emptied.  This memory keeps a copy of its
        cells, and its allocations and statistics stay as they were.
        """
        fresh = Memory()
        fresh.cells, self.cells = self.cells, dict(self.cells)
        fresh.cells.clear()
        return fresh

