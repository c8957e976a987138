"""Unit tests for the address-interval variable map."""

from conftest import make_alloca_record

from repro.core.varmap import VariableInfo, VariableMap, build_variable_map
from repro.trace.records import GlobalSymbol


def info(name, base, size=32, elem_bits=64, is_array=True, is_global=False,
         function="main"):
    return VariableInfo(name=name, base_address=base, size_bytes=size,
                        element_bits=elem_bits, is_array=is_array,
                        is_global=is_global, function=function)


class TestVariableInfo:
    def test_extent_properties(self):
        v = info("u", 0x1000, size=80, elem_bits=64)
        assert v.end_address == 0x1050
        assert v.element_bytes == 8
        assert v.element_count == 10

    def test_contains_and_offset(self):
        v = info("u", 0x1000, size=80, elem_bits=64)
        assert v.contains(0x1000)
        assert v.contains(0x1048)
        assert not v.contains(0x1050)
        assert v.element_offset(0x1010) == 2

    def test_key_is_unique_per_allocation(self):
        a = info("x", 0x1000)
        b = info("x", 0x2000)
        assert a.key != b.key


class TestVariableMap:
    def test_resolve_exact_and_interior_addresses(self):
        varmap = VariableMap()
        v = varmap.add(info("u", 0x1000, size=80, elem_bits=64))
        assert varmap.resolve(0x1000) is v
        assert varmap.resolve(0x1000 + 3 * 8) is v
        assert varmap.resolve(0x2000) is None
        assert varmap.resolve(None) is None

    def test_latest_registration_shadows_older(self):
        varmap = VariableMap()
        varmap.add(info("old", 0x1000, size=32))
        newer = varmap.add(info("new", 0x1000, size=32))
        assert varmap.resolve(0x1000) is newer

    def test_by_name_and_latest(self):
        varmap = VariableMap()
        first = varmap.add(info("i", 0x1000, size=4, elem_bits=32, is_array=False))
        second = varmap.add(info("i", 0x2000, size=4, elem_bits=32, is_array=False))
        assert varmap.by_name("i") == [first, second]
        assert varmap.latest_by_name("i") is second
        assert varmap.latest_by_name("missing") is None

    def test_globals_listing_and_iteration(self):
        varmap = VariableMap()
        varmap.add_global_symbol(GlobalSymbol("g", 0x100, 8, 64, False))
        varmap.add(info("local", 0x9000))
        assert [v.name for v in varmap.globals()] == ["g"]
        assert len(varmap) == 2
        assert {v.name for v in varmap} == {"g", "local"}


class TestIntervalStoreShadowing:
    def test_stale_shadow_loses_even_on_its_element_boundary(self):
        """Regression for the dict-first ``resolve``: an i32-array boundary
        address inside a newer i64 allocation must attribute to the newer
        (live) allocation, not the stale one whose element grid it sits on.

        The old implementation consulted the per-element-address dict before
        the last-registered-wins scan; ``0x1004`` stayed indexed to the dead
        i32 array (the i64 array only re-indexed 0x1000/0x1008/...), so the
        stale allocation won — exactly the stack-address-reuse
        misattribution of the paper's Challenge 2.
        """
        varmap = VariableMap()
        varmap.add(info("stale", 0x1000, size=16, elem_bits=32))
        fresh = varmap.add(info("fresh", 0x1000, size=16, elem_bits=64))
        assert varmap.resolve(0x1004).name == "fresh"
        assert varmap.resolve(0x1004) is fresh
        assert varmap.resolve(0x1000) is fresh
        assert varmap.resolve(0x100C) is fresh

    def test_partial_overlap_splits_old_interval(self):
        varmap = VariableMap()
        old = varmap.add(info("old", 0x1000, size=0x40, elem_bits=64))
        new = varmap.add(info("new", 0x1010, size=0x10, elem_bits=32))
        # left remainder, shadowed middle, right remainder
        assert varmap.resolve(0x1008) is old
        assert varmap.resolve(0x1010) is new
        assert varmap.resolve(0x101C) is new
        assert varmap.resolve(0x1020) is old
        assert varmap.resolve(0x103F) is old
        assert varmap.resolve(0x1040) is None
        # offsets stay relative to each owner's base
        assert varmap.resolve(0x1020).element_offset(0x1020) == 4
        assert varmap.resolve(0x1014).element_offset(0x1014) == 1

    def test_new_allocation_spanning_several_old_ones(self):
        varmap = VariableMap()
        varmap.add(info("a", 0x1000, size=0x10))
        varmap.add(info("b", 0x1010, size=0x10))
        varmap.add(info("c", 0x1020, size=0x10))
        wide = varmap.add(info("wide", 0x1008, size=0x20))
        assert varmap.resolve(0x1000).name == "a"
        for address in (0x1008, 0x1010, 0x1018, 0x1020, 0x1027):
            assert varmap.resolve(address) is wide
        assert varmap.resolve(0x1028).name == "c"
        # history keeps every registration even when fully shadowed
        assert [v.name for v in varmap] == ["a", "b", "c", "wide"]

    def test_resolve_interior_byte_addresses(self):
        varmap = VariableMap()
        v = varmap.add(info("u", 0x1000, size=80, elem_bits=64))
        for address in range(0x1000, 0x1050):
            assert varmap.resolve(address) is v
        assert varmap.resolve(0xFFF) is None
        assert varmap.resolve(0x1050) is None

    def test_index_entry_count_is_o_intervals(self):
        varmap = VariableMap()
        varmap.add(info("huge", 0x10000, size=8 * 1_000_000, elem_bits=64))
        assert varmap.index_entry_count == 1
        varmap.add(info("tiny", 0x20000 + 8 * 1_000_000, size=8))
        assert varmap.index_entry_count == 2

    def test_live_intervals_are_sorted_and_disjoint(self):
        varmap = VariableMap()
        varmap.add(info("a", 0x1000, size=0x20))
        varmap.add(info("b", 0x1010, size=0x20))
        varmap.add(info("c", 0x1008, size=0x08))
        segments = varmap.live_intervals()
        for (start, end, _owner) in segments:
            assert start < end
        for (_, end_a, _), (start_b, _, _) in zip(segments, segments[1:]):
            assert end_a <= start_b


class TestScopes:
    def test_exit_scope_retires_callee_allocas(self):
        varmap = VariableMap()
        keeper = varmap.add(info("keeper", 0x2000, size=0x10))
        varmap.enter_scope("foo")
        varmap.add(info("scratch", 0x3000, size=0x10, function="foo"))
        assert varmap.resolve(0x3008).name == "scratch"
        varmap.exit_scope("foo")
        assert varmap.resolve(0x3008) is None
        assert varmap.resolve(0x2000) is keeper
        # retirement only affects address resolution, not the history
        assert varmap.latest_by_name("scratch") is not None

    def test_recursive_scopes_retire_innermost_first(self):
        varmap = VariableMap()
        varmap.enter_scope("rec")
        outer = varmap.add(info("local", 0x3000, size=8, function="rec"))
        varmap.enter_scope("rec")
        inner = varmap.add(info("local", 0x4000, size=8, function="rec"))
        assert varmap.resolve(0x4000) is inner
        varmap.exit_scope("rec")
        assert varmap.resolve(0x4000) is None
        assert varmap.resolve(0x3000) is outer
        varmap.exit_scope("rec")
        assert varmap.resolve(0x3000) is None
        assert varmap.open_scope_count == 0

    def test_exit_unknown_function_is_noop(self):
        varmap = VariableMap()
        varmap.enter_scope("foo")
        varmap.add(info("x", 0x3000, size=8, function="foo"))
        varmap.exit_scope("main")
        assert varmap.resolve(0x3000) is not None
        assert varmap.open_scope_count == 1

    def test_globals_never_scoped(self):
        varmap = VariableMap()
        varmap.enter_scope("foo")
        varmap.add_global_symbol(GlobalSymbol("g", 0x100, 8, 64, False))
        varmap.exit_scope("foo")
        assert varmap.resolve(0x100).name == "g"

    def test_retired_allocation_cannot_shadow_later_ones(self):
        varmap = VariableMap()
        varmap.enter_scope("first")
        varmap.add(info("dead", 0x7000, size=0x20, elem_bits=32,
                        function="first"))
        varmap.exit_scope("first")
        varmap.enter_scope("second")
        live = varmap.add(info("live", 0x7000, size=0x10, elem_bits=64,
                               function="second"))
        # 0x7014 was the dead i32 array's element 5; it is past the live
        # allocation's end, and the dead frame must not absorb it.
        assert varmap.resolve(0x7008) is live
        assert varmap.resolve(0x7014) is None


class TestShadowRestore:
    """Retiring a registration restores the ranges it had shadowed."""

    def test_retire_restores_shadowed_range_to_live_owner(self):
        varmap = VariableMap()
        arr = varmap.add(info("arr", 0x1000, size=0x10, elem_bits=32))
        varmap.enter_scope("g")
        tmp = varmap.add(info("tmp", 0x1008, size=4, function="g"))
        assert varmap.resolve(0x1008) is tmp
        varmap.exit_scope("g")
        # the interior hole left by tmp's eviction must be healed
        assert varmap.resolve(0x1008) is arr
        assert varmap.resolve(0x1000) is arr
        assert varmap.resolve(0x100f) is arr
        assert arr.element_offset(0x1008) == 2

    def test_full_eviction_is_restored(self):
        varmap = VariableMap()
        under = varmap.add(info("under", 0x1000, size=8))
        varmap.enter_scope("g")
        varmap.add(info("over", 0x0ff8, size=0x20, function="g"))
        assert varmap.resolve(0x1004).name == "over"
        varmap.exit_scope("g")
        assert varmap.resolve(0x1000) is under
        assert varmap.resolve(0x1007) is under
        assert varmap.resolve(0x0ff8) is None   # over's own extent is gone
        assert varmap.resolve(0x1008) is None

    def test_nested_shadows_unwind_in_scope_order(self):
        varmap = VariableMap()
        base = varmap.add(info("base", 0x1000, size=0x10))
        varmap.enter_scope("outer")
        mid = varmap.add(info("mid", 0x1004, size=8, function="outer"))
        varmap.enter_scope("inner")
        top = varmap.add(info("top", 0x1006, size=2, function="inner"))
        assert varmap.resolve(0x1006) is top
        varmap.exit_scope("inner")
        assert varmap.resolve(0x1006) is mid
        varmap.exit_scope("outer")
        assert varmap.resolve(0x1006) is base
        assert varmap.resolve(0x1004) is base

    def test_restore_skips_retired_owners(self):
        varmap = VariableMap()
        varmap.enter_scope("first")
        varmap.add(info("dead", 0x1000, size=8, function="first"))
        varmap.exit_scope("first")
        varmap.enter_scope("second")
        varmap.add(info("live", 0x1000, size=8, function="second"))
        varmap.exit_scope("second")
        # `live` shadowed nothing live (dead was already retired), and dead
        # frames must not be resurrected
        assert varmap.resolve(0x1000) is None

    def test_restore_leaves_still_live_shadowers_untouched(self):
        varmap = VariableMap()
        base = varmap.add(info("base", 0x1000, size=0x10))
        varmap.enter_scope("outer")
        varmap.add(info("mid", 0x1000, size=0x10, function="outer"))
        varmap.enter_scope("inner")
        top = varmap.add(info("top", 0x1008, size=4, function="inner"))
        # close the *outer* scope while inner is still open (unbalanced on
        # purpose): exit_scope retires inner first, then outer, so both
        # restores run and base gets its full range back
        varmap.exit_scope("outer")
        assert varmap.resolve(0x1004) is base
        assert varmap.resolve(0x1008) is base
        assert varmap.resolve(0x1008) is not top


class TestSubByteElements:
    def test_i1_alloca_gets_whole_byte_interval(self):
        """Regression: ``count * (element_bits // 8)`` gave i1 booleans a
        zero-byte, unresolvable interval; ceil division gives one byte."""
        varmap = VariableMap()
        registered = varmap.add_alloca_record(
            make_alloca_record("flag", 0x5000, count=1, bits=1))
        assert registered.size_bytes == 1
        assert varmap.resolve(0x5000) is registered
        assert varmap.resolve(0x5001) is None

    def test_i1_array_sizes_by_element_bytes(self):
        varmap = VariableMap()
        registered = varmap.add_alloca_record(
            make_alloca_record("flags", 0x5000, count=8, bits=1))
        assert registered.size_bytes == 8
        assert registered.element_count == 8
        assert varmap.resolve(0x5003) is registered
        assert registered.element_offset(0x5003) == 3

    def test_whole_byte_sizes_unchanged(self):
        varmap = VariableMap()
        registered = varmap.add_alloca_record(
            make_alloca_record("v", 0x5000, count=10, bits=32))
        assert registered.size_bytes == 40
        assert registered.element_bytes == 4


class TestBuildFromTrace:
    def test_globals_and_main_allocas_indexed(self, example_trace):
        varmap = build_variable_map(example_trace.globals, example_trace.records,
                                    function="main")
        # the example has no globals but main allocates a, b, sum, s, r, i, it, m
        names = {v.name for v in varmap}
        assert {"a", "b", "sum", "s", "r", "it"} <= names
        a_info = varmap.latest_by_name("a")
        assert a_info.is_array and a_info.size_bytes == 40  # int a[10]

    def test_function_filter_excludes_callee_locals(self, example_trace):
        only_main = build_variable_map(example_trace.globals, example_trace.records,
                                       function="main")
        everything = build_variable_map(example_trace.globals, example_trace.records,
                                        function=None)
        # foo's parameter allocas (p, q) and its loop variable i appear only
        # in the unfiltered map.
        assert only_main.latest_by_name("p") is None
        assert everything.latest_by_name("p") is not None
        assert len(everything) > len(only_main)

    def test_alloca_record_sizes(self, example_trace):
        varmap = build_variable_map(example_trace.globals, example_trace.records,
                                    function="main")
        sum_info = varmap.latest_by_name("sum")
        assert sum_info.size_bytes == 4
        assert not sum_info.is_array

    def test_resolve_element_address_of_array(self, example_trace):
        varmap = build_variable_map(example_trace.globals, example_trace.records,
                                    function="main")
        a_info = varmap.latest_by_name("a")
        third_element = a_info.base_address + 2 * a_info.element_bytes
        assert varmap.resolve(third_element) is a_info
        assert a_info.element_offset(third_element) == 2

    def test_scoped_build_retires_returned_activations(self, example_trace):
        scoped = build_variable_map(example_trace.globals, example_trace.records,
                                    function=None, scoped=True)
        unscoped = build_variable_map(example_trace.globals,
                                      example_trace.records, function=None)
        # foo has returned by the end of the trace: its parameter slots are
        # in the history but retired from address resolution.
        p_info = scoped.latest_by_name("p")
        assert p_info is not None
        assert scoped.resolve(p_info.base_address) is None
        assert unscoped.resolve(p_info.base_address) is not None
        # main never returns within the trace: its allocas stay live.
        a_info = scoped.latest_by_name("a")
        assert scoped.resolve(a_info.base_address) is a_info
