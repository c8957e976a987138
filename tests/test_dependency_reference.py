"""The dependency pass against its per-row reference.

:class:`~repro.core.dependency.DependencyPass` computes each span's DDG
effects in vector ops and walks only the rows that read mid-span state one
at a time; :class:`reference_dependency.ReferenceDependencyPass` is the row
loop it replaced, which walks every data row in stream order.  Each test
walks both passes over the same columnar blocks and requires equal results:
the complete DDG's nodes in order (key, kind and label), its edge set, the
reg-var map (in insertion order), the parameter bindings and the inspected
record count.  The traces are:

* every bundled app at the default chunking, and ``example``, ``ep``,
  ``cg`` and ``amg`` read in small chunks and walked in tiny spans;
* the recursion, unbound-parameter, address-reuse, shadow and nested-loop
  traces of the other suites;
* hand-built traces for the per-row path: forwarding rows that read a
  register or fall back to their address, memory rows without an owner
  read through a binding or a local name, Stores of a named non-register
  value, rows with three operands, a block without operand slots, node
  keys named by two codes (two (function, register) pairs that spell one
  key, and a string table that repeats its strings), and reads past many
  owner-less writes to their register, whose scans must stay linear.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import FLEET_NAMES, make_alloca_record, make_operand
from conftest import make_record as record
from reference_dependency import ReferenceDependencyPass

import test_core_dependency as core_dependency
import test_engine_fused as fused
from repro.core import engine as engine_module
from repro.core.config import MainLoopSpec
from repro.core.dependency import DependencyPass
from repro.core.engine import AnalysisEngine
from repro.core.varmap import VariableMap
from repro.ir.opcodes import Opcode
from repro.trace.binio import encode_trace
from repro.trace.columnar import TraceColumnarReader
from repro.trace.records import Trace, TraceRecord
from test_address_reuse import SPEC as REUSE_SPEC
from test_address_reuse import reuse_trace  # noqa: F401  (fixture)

shadow_trace = fused.shadow_trace


def mem(index, name, address=None, bits=32):
    return make_operand(index, name, address=address, bits=bits)


def reg(index, name, address=None, bits=32):
    return make_operand(index, name, address=address, bits=bits,
                        is_register=True)


def _walk(pass_type, blocks, spec, globals_=()):
    varmap = VariableMap()
    dependency = pass_type(varmap)
    engine = AnalysisEngine(spec, [dependency], variable_map=varmap)
    engine.add_globals(globals_)
    engine.run_columnar(blocks)
    return dependency.result()


def _assert_equal_walks(blocks, spec, globals_=()):
    """Walk both passes over ``blocks`` (a list, or a callable giving a
    fresh iterable) and compare their results; return the new pass's."""
    fresh = blocks if callable(blocks) else (lambda: blocks)
    got = _walk(DependencyPass, fresh(), spec, globals_)
    want = _walk(ReferenceDependencyPass, fresh(), spec, globals_)
    assert ([(node.key, node.kind, node.label)
             for node in got.complete_ddg.nodes()]
            == [(node.key, node.kind, node.label)
                for node in want.complete_ddg.nodes()])
    assert set(got.complete_ddg.edges()) == set(want.complete_ddg.edges())
    assert list(got.reg_var_map.items()) == list(want.reg_var_map.items())
    assert (list(got.param_bindings.items())
            == list(want.param_bindings.items()))
    assert got.inspected_records == want.inspected_records
    return got


def _trace_blocks(trace, chunk_records=65536):
    buffer, _ = encode_trace(trace.module_name, trace.globals, trace.records)
    return list(TraceColumnarReader(buffer=buffer).iter_blocks(
        chunk_records=chunk_records))


def _file_walk(entry, chunk_records=None):
    """Both passes over a fleet app's trace file, compared."""
    def blocks():
        reader = TraceColumnarReader(entry.trace_path)
        if chunk_records is None:
            return reader.iter_blocks()
        return reader.iter_blocks(chunk_records=chunk_records)
    globals_ = TraceColumnarReader(entry.trace_path).layout.globals
    return _assert_equal_walks(blocks, entry.spec, globals_)


# --------------------------------------------------------------------------- #
# The fleet
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", FLEET_NAMES)
def test_equals_the_reference_on_the_fleet(fleet, name):
    result = _file_walk(fleet.apps[name])
    assert result.complete_ddg.node_count and result.reg_var_map


@pytest.mark.parametrize("name,records", [("example", 256), ("ep", 1024),
                                          ("cg", 1024), ("amg", 1024)])
def test_equals_the_reference_in_small_chunks(fleet, name, records):
    _file_walk(fleet.apps[name], chunk_records=records)


@pytest.mark.parametrize("name,rows", [("example", 7), ("ep", 61),
                                       ("cg", 61), ("amg", 61)])
def test_equals_the_reference_in_tiny_spans(fleet, monkeypatch, name, rows):
    """Spans end mid-segment every few rows, so a per-row read meets bulk
    writes from many spans and segments."""
    monkeypatch.setattr(engine_module, "_SPAN_ROWS", rows)
    _file_walk(fleet.apps[name])


# --------------------------------------------------------------------------- #
# The other suites' traces
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("case", [
    core_dependency.TestRecursiveParamBindings,
    core_dependency.TestUnboundParameterDoesNotLeak])
@pytest.mark.parametrize("rows", [2048, 3])
def test_equals_the_reference_on_binding_traces(monkeypatch, case, rows):
    monkeypatch.setattr(engine_module, "_SPAN_ROWS", rows)
    _assert_equal_walks(_trace_blocks(case()._trace()), case.SPEC)


@pytest.mark.parametrize("rows", [2048, 3])
def test_equals_the_reference_on_the_reuse_trace(monkeypatch, reuse_trace,
                                                 rows):
    monkeypatch.setattr(engine_module, "_SPAN_ROWS", rows)
    _assert_equal_walks(_trace_blocks(reuse_trace), REUSE_SPEC)


def test_equals_the_reference_on_the_shadow_trace(shadow_trace):
    _assert_equal_walks(_trace_blocks(shadow_trace), fused.SHADOW_SPEC)


def test_equals_the_reference_on_the_nested_loop_trace():
    case = fused.TestNestedLoopFunction()
    _assert_equal_walks(_trace_blocks(case._trace()), case.SPEC)


# --------------------------------------------------------------------------- #
# Hand-built traces for the per-row path
# --------------------------------------------------------------------------- #
A, B, C = 0x1000, 0x2000, 0x3000
SLOT = 0x7000
SPEC = MainLoopSpec(function="main", start_line=10, end_line=20)


def _per_row_trace():
    """A loop whose rows reach every per-row rule."""
    add, gep, cast = Opcode.ADD, Opcode.GETELEMENTPTR, Opcode.BITCAST
    records = [
        make_alloca_record("a", A, count=4, function="main", dyn_id=1,
                           line=2),
        make_alloca_record("b", B, function="main", dyn_id=2, line=3),
        make_alloca_record("c", C, function="main", dyn_id=3, line=4),
        record(4, Opcode.STORE, "main", 5,
               operands=[mem("1", ""), mem("2", "a", A)]),
        # the loop: a GEP into a, a cast of its result (reads the GEP's
        # reg-var write in the same span), a cast whose register nothing
        # names but whose address does (c), and one with neither
        record(5, Opcode.LOAD, "main", 10, operands=[mem("1", "b", B)],
               result=reg("r", "1")),
        record(6, gep, "main", 11,
               operands=[mem("1", "a", A), reg("2", "1")],
               result=reg("r", "p")),
        record(7, cast, "main", 11, operands=[reg("1", "p", A)],
               result=reg("r", "q")),
        record(8, cast, "main", 12, operands=[reg("1", "z", C)],
               result=reg("r", "y")),
        record(9, cast, "main", 12, operands=[reg("1", "w")],
               result=reg("r", "v")),
        # a call binding its parameter through the cast register
        record(10, Opcode.CALL, "main", 13,
               operands=[reg("1", "q", A), mem("p1", "p")], callee="use"),
        make_alloca_record("pslot", SLOT, function="use", dyn_id=11,
                           line=30),
        # the spill: a Store of the named non-register parameter value
        record(12, Opcode.STORE, "use", 30,
               operands=[mem("1", "p"), mem("2", "pslot", SLOT)]),
        # owner-less memory rows: through the binding, through a local
        # name, and through nothing
        record(13, Opcode.LOAD, "use", 31, operands=[mem("1", "p")],
               result=reg("r", "1")),
        record(14, Opcode.LOAD, "use", 31, operands=[mem("1", "zz")],
               result=reg("r", "2")),
        record(15, Opcode.LOAD, "use", 31, operands=[mem("1", "")],
               result=reg("r", "3")),
        record(16, Opcode.STORE, "use", 32,
               operands=[reg("1", "1"), mem("2", "p")]),
        record(17, gep, "use", 32, operands=[mem("1", "p"), reg("2", "2")],
               result=reg("r", "4")),
        record(18, Opcode.RET, "use", 33),
        # rows with three operands
        record(19, add, "main", 14,
               operands=[reg("1", "1"), reg("2", "q"), reg("3", "y")],
               result=reg("r", "t")),
        record(20, gep, "main", 15,
               operands=[mem("1", "a", A), reg("2", "1"), reg("3", "t")],
               result=reg("r", "u")),
        record(21, cast, "main", 15,
               operands=[reg("1", "u"), reg("2", "q")], result=reg("r", "s")),
        record(36, cast, "main", 15,
               operands=[reg("1", "u"), reg("2", "q"), reg("3", "w", C)],
               result=reg("r", "s3")),
        # a call before any write to its argument register in this span
        record(22, Opcode.CALL, "main", 16,
               operands=[reg("1", "s"), mem("p1", "p")], callee="use"),
        make_alloca_record("pslot", SLOT, function="use", dyn_id=23,
                           line=30),
        record(24, Opcode.STORE, "use", 30,
               operands=[mem("1", "p"), mem("2", "pslot", SLOT)]),
        record(25, Opcode.RET, "use", 33),
        # a register written by a bulk row and then by a row whose owner
        # did not resolve and which writes nothing: a read sees the bulk
        # write
        record(26, Opcode.LOAD, "main", 17, operands=[mem("1", "b", B)],
               result=reg("r", "k")),
        record(27, Opcode.LOAD, "main", 17, operands=[mem("1", "")],
               result=reg("r", "k")),
        record(28, cast, "main", 17, operands=[reg("1", "k")],
               result=reg("r", "m")),
        # a register written by a per-row row, then by a bulk row, then by
        # a per-row row again: each read sees the last write before it
        record(29, cast, "main", 18, operands=[reg("1", "q")],
               result=reg("r", "x")),
        record(30, cast, "main", 18, operands=[reg("1", "x")],
               result=reg("r", "x1")),
        record(31, Opcode.LOAD, "main", 18, operands=[mem("1", "c", C)],
               result=reg("r", "x")),
        record(32, cast, "main", 18, operands=[reg("1", "x")],
               result=reg("r", "x2")),
        record(33, cast, "main", 19, operands=[reg("1", "k")],
               result=reg("r", "x")),
        record(34, cast, "main", 19, operands=[reg("1", "x")],
               result=reg("r", "x3")),
        record(35, Opcode.STORE, "main", 20,
               operands=[reg("1", "q"), mem("2", "b", B)]),
    ]
    return Trace(module_name="per_row", records=records)


@pytest.mark.parametrize("rows", [2048, 5, 1])
def test_equals_the_reference_on_the_per_row_rules(monkeypatch, rows):
    monkeypatch.setattr(engine_module, "_SPAN_ROWS", rows)
    result = _assert_equal_walks(_trace_blocks(_per_row_trace()), SPEC)
    a_key, c_key = f"a@{A:#x}", f"c@{C:#x}"
    # the rules the trace is for did run: the call read ``q`` as the cast
    # wrote it from the GEP's write (the last Store wrote it again)
    assert result.reg_var_map[("main", "q")] == f"b@{B:#x}"
    assert result.reg_var_map[("main", "y")] == c_key
    assert result.reg_var_map[("main", "s3")] == c_key  # its third operand
    assert result.reg_var_map[("main", "m")] == f"b@{B:#x}"
    assert [result.reg_var_map[("main", name)]
            for name in ("x1", "x2", "x3")] == [a_key, c_key, f"b@{B:#x}"]
    assert ("main", "v") not in result.reg_var_map
    assert result.param_bindings[("use", "p")] == a_key
    assert result.reg_var_map[("use", "1")] == a_key
    assert result.complete_ddg.has_node("use:zz")
    assert a_key in result.complete_ddg.parents_of(f"pslot@{SLOT:#x}")


def _owner_less_trace(pairs):
    """Loads without an owner, a binding or a name write ``%k`` (and so
    write nothing), each followed by a cast that reads ``%k``."""
    records = [
        make_alloca_record("b", B, function="main", dyn_id=1, line=2),
        record(2, Opcode.STORE, "main", 3,
               operands=[mem("1", ""), mem("2", "b", B)]),
        record(3, Opcode.LOAD, "main", 10, operands=[mem("1", "b", B)],
               result=reg("r", "k")),
    ]
    for pair in range(pairs):
        dyn_id = 4 + 2 * pair
        records.append(record(dyn_id, Opcode.LOAD, "main", 11,
                              operands=[mem("1", "")],
                              result=reg("r", "k")))
        records.append(record(dyn_id + 1, Opcode.BITCAST, "main", 12,
                              operands=[reg("1", "k")],
                              result=reg("r", "m")))
    return Trace(module_name="owner_less", records=records)


@pytest.mark.parametrize("pairs", [100, 900])
def test_owner_less_writes_are_passed_once(monkeypatch, pairs):
    """A read skips an owner-less row's write to its register: once it
    has, no later read passes it again, so the scans of the span's bulk
    writes stay linear in its rows (every read would otherwise pass every
    owner-less write before it)."""
    scans = []

    class Counted(list):
        def index(self, *args):
            scans.append(1)
            return super().index(*args)

    listed = DependencyPass._list_bulk_writes

    def counted(span):
        listed(span)
        span.bulk_keys = Counted(span.bulk_keys)

    monkeypatch.setattr(DependencyPass, "_list_bulk_writes",
                        staticmethod(counted))
    result = _assert_equal_walks(_trace_blocks(_owner_less_trace(pairs)),
                                 SPEC)
    # every cast read the Load before them, which had an owner
    assert result.reg_var_map[("main", "m")] == f"b@{B:#x}"
    assert pairs <= len(scans) <= 3 * pairs


def _two_spellings_trace():
    """Registers ``f:%a%b`` and ``f%a:%b`` share the key ``f%a%b``."""
    records = [
        make_alloca_record("x", A, function="f", dyn_id=1, line=2),
        record(2, Opcode.STORE, "f", 3,
               operands=[mem("1", ""), mem("2", "x", A)]),
        record(3, Opcode.LOAD, "f", 10, operands=[mem("1", "x", A)],
               result=reg("r", "a%b")),
        record(4, Opcode.LOAD, "f%a", 11, operands=[mem("1", "x", A)],
               result=reg("r", "b")),
        record(5, Opcode.ADD, "f", 12,
               operands=[reg("1", "a%b"), reg("2", "a%b")],
               result=reg("r", "c")),
        record(6, Opcode.ADD, "f%a", 12,
               operands=[reg("1", "b"), reg("2", "c")],
               result=reg("r", "d")),
        record(7, Opcode.STORE, "f", 20,
               operands=[reg("1", "c"), mem("2", "x", A)]),
    ]
    return Trace(module_name="spellings", records=records)


def test_two_spellings_of_one_key_give_one_node():
    spec = MainLoopSpec(function="f", start_line=10, end_line=20)
    result = _assert_equal_walks(_trace_blocks(_two_spellings_trace()), spec)
    keys = [node.key for node in result.complete_ddg.nodes()]
    assert keys.count("f%a%b") == 1


def _repeat_strings(blocks):
    """Give every operand name a second id in the string table, as a
    crafted trace may, and move every other operand slot to it."""
    strings = blocks[0].strings
    used = sorted(set().union(*(np.unique(block.op_name_id).tolist()
                                for block in blocks)))
    remap = np.arange(len(strings), dtype=np.uint32)
    for old in used:
        remap[old] = len(strings)
        strings.append(strings[old])
    id_of = blocks[0].id_of
    id_of.clear()
    id_of.update((text, index) for index, text in enumerate(strings))
    for block in blocks:
        names = block.op_name_id
        odd = np.arange(len(names)) % 2 == 1
        block.op_name_id = np.where(odd, remap[names], names).astype(
            np.uint32)
    return blocks


@pytest.mark.parametrize("rows", [2048, 61])
def test_repeated_strings_name_one_register(monkeypatch, example_trace,
                                            example_spec, rows):
    monkeypatch.setattr(engine_module, "_SPAN_ROWS", rows)
    # one walk's blocks share their string table: give each walk its own
    _assert_equal_walks(
        lambda: _repeat_strings(_trace_blocks(example_trace, 256)),
        example_spec, example_trace.globals)


def test_slotless_block():
    """Records with no operand and no result leave a block's operand
    columns empty; the bulk path must not index them."""
    kinds = (Opcode.LOAD, Opcode.STORE, Opcode.ADD, Opcode.GETELEMENTPTR)
    records = [TraceRecord(dyn_id=index + 1, opcode=int(kinds[index % 4]),
                           opcode_name="Op", function="main", line=5,
                           column=0, bb_label=0, bb_id="0:0")
               for index in range(300)]
    blocks = _trace_blocks(Trace("slotless", records=records), 256)
    assert [block.count for block in blocks] == [256, 44]
    result = _assert_equal_walks(blocks, MainLoopSpec("main", 1, 10))
    assert result.inspected_records == 300
