"""The engine's access tables: one owner per memory access.

Each walked span gets an :class:`~repro.core.engine.AccessTable` listing
its ``Load`` / ``Store`` / ``GetElementPtr`` rows with their pointer
addresses; the engine resolves every address once, through one memo, into
the owner id (:attr:`~repro.core.varmap.VariableMap.registrations` index)
that owns it when the row executes.  These tests hold the owner column
against :meth:`~repro.core.varmap.VariableMap.resolve` evaluated at each
row, in segment order, on the temporal-attribution traces, on ``example``
and on ``ep``, including rows without an address and the top address of
the 64-bit space.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import make_alloca_record, make_operand, make_record as record

import test_engine_fused as fused
from repro.core import AutoCheck, AutoCheckConfig, MainLoopSpec
from repro.core.engine import (
    KIND_GEP,
    KIND_LOAD,
    KIND_STORE,
    AnalysisEngine,
    AnalysisPass,
    SpanSelection,
)
from repro.core.rwdeps import AccessKind
from repro.core.varmap import VariableMap
from repro.ir.opcodes import Opcode
from repro.trace.binio import encode_trace
from repro.trace.columnar import TraceColumnarReader
from repro.trace.records import Trace

shadow_trace = fused.shadow_trace

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_GEP = int(Opcode.GETELEMENTPTR)


class _OwnerCheck(AnalysisPass):
    """Resolves each memory access itself, in its segment, through the
    block's operand columns, and collects the access tables' owners."""

    def __init__(self, varmap):
        self.varmap = varmap
        self.expected = []
        self.tables = []

    def select_span(self, table, region):
        memory = np.isin(table.kinds, (KIND_LOAD, KIND_STORE, KIND_GEP))
        return SpanSelection(np.flatnonzero(memory) + table.lo)

    def consume_selected(self, table, region, selected):
        block = table.block
        for row in selected:
            assert block.opcode[row] in (_LOAD, _STORE, _GEP)
            pointer = 1 if block.opcode[row] == _STORE else 0
            first = int(block.op_start[row])
            count = (int(block.op_start[row + 1]) - first
                     - int(block.has_result[row]))
            slot = first + pointer
            address = (int(block.op_address[slot])
                       if count > pointer and block.op_flags[slot] & 2
                       else None)
            self.expected.append((int(block.dyn_id[row]),
                                  self.varmap.resolve(address)))

    def close_span(self, table, region):
        registrations = self.varmap.registrations
        self.tables.extend(
            (int(table.block.dyn_id[row]),
             registrations[owner] if owner >= 0 else None)
            for row, owner in zip(table.rows.tolist(),
                                  table.owner_ids().tolist()))


def _check_owners(trace, spec, chunk_records=65536):
    buffer, _ = encode_trace(trace.module_name, trace.globals, trace.records)
    varmap = VariableMap()
    check = _OwnerCheck(varmap)
    engine = AnalysisEngine(spec, [check], variable_map=varmap)
    engine.add_globals(trace.globals)
    engine.run_columnar(TraceColumnarReader(buffer=buffer).iter_blocks(
        chunk_records=chunk_records))
    assert len(check.tables) == len(check.expected)
    for (got_dyn, got), (want_dyn, want) in zip(check.tables,
                                                 check.expected):
        assert got_dyn == want_dyn
        assert got is want, (got_dyn, got, want)
    return check.tables


def _trace_of(name):
    from repro.apps import get_app
    from repro.codegen.lowering import compile_source
    from repro.tracer.driver import run_and_trace

    app = get_app(name)
    source = app.source()
    trace, _ = run_and_trace(compile_source(source, module_name=name))
    return trace, app.main_loop(source)


@pytest.mark.parametrize("name", ["example", "ep"])
def test_owners_equal_resolve_at_each_row_on_apps(name):
    trace, spec = _trace_of(name)
    owners = _check_owners(trace, spec, chunk_records=1024)
    assert any(owner is not None for _, owner in owners)


def test_owners_on_the_shadow_trace(shadow_trace):
    owners = dict(_check_owners(shadow_trace, fused.SHADOW_SPEC))
    # the loop read of arr[2] executes before the callee's shadowing Alloca
    assert owners[3].name == "arr"


def test_owners_on_the_retire_and_restore_trace():
    ARR = fused.ARR
    records = [
        make_alloca_record("arr", ARR, count=4, bits=32, function="main",
                           dyn_id=1, line=2),
        record(2, Opcode.STORE, "main", 3,
               operands=[make_operand("1", "", value=1),
                         make_operand("2", "arr", address=ARR)]),
        record(3, Opcode.CALL, "main", 5,
               operands=[make_operand("p1", "n")], callee="g"),
        make_alloca_record("tmp", ARR + 8, count=1, bits=32, function="g",
                           dyn_id=4, line=30),
        record(5, Opcode.LOAD, "g", 31,
               operands=[make_operand("1", "tmp", address=ARR + 8)],
               result=make_operand("r", "1", is_register=True)),
        record(6, Opcode.RET, "g", 32),
        record(7, Opcode.LOAD, "main", 6,
               operands=[make_operand("1", "arr", address=ARR + 8)],
               result=make_operand("r", "2", is_register=True)),
        record(8, Opcode.STORE, "main", 7,
               operands=[make_operand("1", "2", is_register=True),
                         make_operand("2", "arr", address=ARR)]),
    ]
    owners = dict(_check_owners(Trace("restore", records=records),
                                fused.SHADOW_SPEC))
    assert owners[5].name == "tmp"       # shadowed while g runs
    assert owners[7].name == "arr"       # restored once g returned


def test_owners_on_the_nested_loop_trace():
    case = fused.TestNestedLoopFunction()
    _check_owners(case._trace(), case.SPEC)


TOP = 2 ** 64 - 16      # an i32[4] whose last byte is the top address


def _edge_trace():
    return Trace("edges", records=[
        make_alloca_record("top", TOP, count=4, bits=32, function="main",
                           dyn_id=1, line=2),
        record(2, Opcode.STORE, "main", 3,
               operands=[make_operand("1", "", value=1),
                         make_operand("2", "top", address=TOP)]),
        # a Load whose pointer operand carries no address
        record(3, Opcode.LOAD, "main", 5,
               operands=[make_operand("1", "top")],
               result=make_operand("r", "1", is_register=True)),
        # a Load with no operand at all
        record(4, Opcode.LOAD, "main", 5,
               result=make_operand("r", "2", is_register=True)),
        # the last byte of the address space
        record(5, Opcode.LOAD, "main", 6,
               operands=[make_operand("1", "top", address=2 ** 64 - 1)],
               result=make_operand("r", "3", is_register=True)),
        record(6, Opcode.STORE, "main", 7,
               operands=[make_operand("1", "3", is_register=True),
                         make_operand("2", "top", address=TOP + 4)]),
    ])


def test_absent_and_top_addresses():
    spec = MainLoopSpec("main", 5, 7)
    owners = dict(_check_owners(_edge_trace(), spec))
    assert owners[3] is None and owners[4] is None
    assert owners[5].name == "top"
    report = AutoCheck(AutoCheckConfig(main_loop=spec),
                       trace=_edge_trace()).run()
    events = report.rw_sequence.events_for(f"top@{TOP:#x}")
    assert [(e.dyn_id, e.kind, e.element_offset) for e in events] == [
        (5, AccessKind.READ, 3), (6, AccessKind.WRITE, 1)]
