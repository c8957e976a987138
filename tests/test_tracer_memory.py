"""Unit tests for the memory model and runtime values."""

import pytest

from repro.tracer.memory import GLOBAL_BASE, Memory, MemoryError_, STACK_BASE
from repro.tracer.values import PointerValue, as_number


class TestPointerValue:
    def test_with_symbol_preserves_address(self):
        ptr = PointerValue(address=2000, symbol="a")
        renamed = ptr.with_symbol("p")
        assert renamed.address == 2000
        assert renamed.symbol == "p"

    def test_as_number_of_pointer_is_address(self):
        ptr = PointerValue(address=0xABC, symbol="x")
        assert as_number(ptr) == 0xABC

    def test_as_number_of_scalar(self):
        assert as_number(3.5) == 3.5
        assert as_number(7) == 7


class TestMemoryAllocation:
    def test_global_allocations_are_contiguous_and_aligned(self):
        memory = Memory()
        first = memory.allocate_global("a", 32, 3, True)     # 12 -> 16 bytes
        second = memory.allocate_global("b", 64, 1, False)
        assert first.address == GLOBAL_BASE
        assert first.size_bytes == 16
        assert second.address == first.address + 16

    def test_stack_allocations_above_stack_base(self):
        memory = Memory()
        alloc = memory.allocate_stack("x", 32, 1, False, "main")
        assert alloc.address >= STACK_BASE
        assert alloc.segment == "stack"
        assert alloc.function == "main"

    def test_stack_mark_and_release_reuses_addresses(self):
        memory = Memory()
        mark = memory.stack_mark()
        first = memory.allocate_stack("tmp", 64, 4, True, "callee")
        memory.stack_release(mark)
        second = memory.allocate_stack("other", 64, 4, True, "callee2")
        assert second.address == first.address

    def test_stack_release_upwards_rejected(self):
        memory = Memory()
        mark = memory.stack_mark()
        with pytest.raises(MemoryError_):
            memory.stack_release(mark + 64)

    def test_peak_stack_tracks_high_water_mark(self):
        memory = Memory()
        mark = memory.stack_mark()
        memory.allocate_stack("big", 64, 100, True, "f")
        peak_after_alloc = memory.peak_stack_bytes
        memory.stack_release(mark)
        assert memory.peak_stack_bytes == peak_after_alloc
        assert peak_after_alloc >= 800

    def test_allocation_metadata(self):
        memory = Memory()
        alloc = memory.allocate_global("u", 64, 10, True)
        assert alloc.element_bytes == 8
        assert alloc.end_address == alloc.address + alloc.size_bytes
        assert alloc.element_addresses() == [alloc.address + 8 * index
                                             for index in range(10)]


class TestLoadsAndStores:
    def test_default_value_for_untouched_address(self):
        memory = Memory()
        assert memory.load(12345) == 0
        assert memory.load(12345, default=0.0) == 0.0

    def test_store_then_load(self):
        memory = Memory()
        memory.store(500, 2.75)
        assert memory.load(500) == 2.75

    def test_read_write_block_roundtrip(self):
        """A block reads and writes what one load or store per element
        does, in ``element_addresses()`` order: a float array, an int
        array, a scalar, and elements narrower than a byte, which share
        one address (the last value written wins)."""
        blocks = [("v", 64, 4, True, [1.0, 2.0, 3.0, 4.0]),
                  ("keys", 32, 5, True, [7, -2, 0, 2 ** 40, 3]),
                  ("n", 64, 1, False, [42]),
                  ("flags", 1, 3, True, [1, 0, 5])]
        memory = Memory()
        for name, bits, count, is_array, values in blocks:
            alloc = memory.allocate_global(name, bits, count, is_array)
            assert memory.read_block(alloc) == [0] * count
            assert memory.read_block(alloc, default=0.5) == [0.5] * count
            memory.write_block(alloc, values)
            reference = Memory()
            for address, value in zip(alloc.element_addresses(), values):
                reference.store(address, value)
            expected = [reference.load(address)
                        for address in alloc.element_addresses()]
            assert memory.read_block(alloc) == expected
        assert memory.read_block(memory.global_allocations[0]) == \
            [1.0, 2.0, 3.0, 4.0]
        assert memory.read_block(memory.global_allocations[1]) == \
            [7, -2, 0, 2 ** 40, 3]
        assert memory.read_block(memory.global_allocations[2]) == [42]
        assert memory.read_block(memory.global_allocations[3]) == [5, 5, 5]

    def test_write_block_size_mismatch(self):
        memory = Memory()
        alloc = memory.allocate_global("v", 64, 4, True)
        with pytest.raises(MemoryError_):
            memory.write_block(alloc, [1.0, 2.0])

    def test_statistics(self):
        memory = Memory()
        memory.allocate_global("a", 64, 10, True)
        memory.allocate_stack("b", 32, 2, True, "main")
        assert memory.total_global_bytes == 80
        assert memory.peak_stack_bytes == 8
        assert memory.process_image_bytes == 88
