"""Stack-address-reuse shadowing: accesses attribute to the *live* allocation.

Successive calls re-use stack addresses with different layouts (paper
Challenge 2, Sec. V-C).  These tests build a trace where ``helper1`` allocates
an i32 array and returns, then ``helper2`` re-uses the same stack base for an
i64 array and touches a byte that sits on the *dead* array's element grid but
in the *live* array's interior.

The old dict-first ``resolve()`` consulted the per-element-address index
before the last-registered-wins interval scan, so that byte resolved to the
dead i32 array — these tests fail against it and pass with the bisect-indexed
interval store (plus scope retirement on ``Ret``).
"""

from __future__ import annotations

import pytest
from conftest import make_alloca_record, make_operand, make_record as record

from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.pipeline import AutoCheck
from repro.ir.opcodes import Opcode
from repro.trace.binio import TraceBinaryReader
from repro.trace.records import Trace, TraceOperand


def mem(index, name, address, bits=32, value=0):
    return make_operand(index, name, address=address, bits=bits, value=value)


def reg(index, name, bits=32, value=0, address=None):
    return make_operand(index, name, address=address, bits=bits, value=value,
                        is_register=True)


def alloca(dyn_id, function, line, name, address, count, bits):
    return make_alloca_record(name, address, count=count, bits=bits,
                              function=function, dyn_id=dyn_id, line=line)


SPEC = MainLoopSpec(function="main", start_line=10, end_line=20)


def _dependency(trace):
    """The dependency pass state after the walk ``AutoCheck.run`` uses."""
    return AutoCheck(AutoCheckConfig(main_loop=SPEC),
                     trace=trace).walk().dependency.result()

ACC = 0x1000          # main's accumulator
FRAME = 0x7F00        # stack base reused by helper1 and helper2


@pytest.fixture()
def reuse_trace():
    """main's loop calls helper1 (i32 scratch[4] @FRAME, returns), then main
    probes a dead-frame address, then helper2 (i64 window[2] @FRAME) reads
    the byte FRAME+4: an element boundary of the dead scratch, interior of
    the live window."""
    records = [
        # before the loop: alloca + touch main's accumulator
        alloca(1, "main", 2, "acc", ACC, count=1, bits=32),
        record(2, Opcode.STORE, "main", 3,
               operands=[TraceOperand(index="1", bits=32, value=0,
                                      is_register=False, name=""),
                         mem("2", "acc", ACC)]),
        # loop extent starts: read acc on a loop line of main
        record(3, Opcode.LOAD, "main", 10, operands=[mem("1", "acc", ACC)],
               result=reg("r", "1")),
        # helper1: i32 scratch[4] at FRAME (element grid FRAME+0/4/8/12)
        record(4, Opcode.CALL, "main", 11,
               operands=[mem("p1", "n", None)], callee="helper1"),
        alloca(5, "helper1", 30, "scratch", FRAME, count=4, bits=32),
        record(6, Opcode.STORE, "helper1", 31,
               operands=[TraceOperand(index="1", bits=32, value=7,
                                      is_register=False, name=""),
                         mem("2", "scratch", FRAME + 4)]),
        record(7, Opcode.RET, "helper1", 32),
        # main probes FRAME+12 between the calls: the frame is dead, the
        # access must NOT be absorbed by helper1's retired scratch
        record(8, Opcode.LOAD, "main", 12,
               operands=[mem("1", "q", FRAME + 12)], result=reg("r", "9")),
        # helper2: i64 window[2] at the same base (element grid FRAME+0/8)
        record(9, Opcode.CALL, "main", 13,
               operands=[mem("p1", "n", None)], callee="helper2"),
        alloca(10, "helper2", 40, "window", FRAME, count=2, bits=64),
        # THE probe: FRAME+4 — stale scratch element #1, live window interior
        record(11, Opcode.LOAD, "helper2", 41,
               operands=[mem("1", "ptr", FRAME + 4, bits=64)],
               result=reg("r", "5", bits=64)),
        record(12, Opcode.RET, "helper2", 42),
        # loop extent ends: write acc on a loop line of main
        record(13, Opcode.STORE, "main", 20,
               operands=[reg("1", "1"), mem("2", "acc", ACC)]),
        # after the loop: read acc (keeps the region split non-trivial)
        record(14, Opcode.LOAD, "main", 25, operands=[mem("1", "acc", ACC)],
               result=reg("r", "7")),
    ]
    return Trace(module_name="reuse", records=records)


class TestAddressReuseShadowing:
    def test_access_attributes_to_live_allocation(self, reuse_trace):
        dependency = _dependency(reuse_trace)
        ddg = dependency.complete_ddg

        window_key = f"window@{FRAME:#x}"
        scratch_key = f"scratch@{FRAME:#x}"
        load_reg = "helper2%5"
        assert ddg.has_node(window_key)
        # the load in helper2 depends on the live window, and on nothing else
        assert ddg.parents_of(load_reg) == {window_key}
        # the dead scratch never feeds anything after its frame exits
        if ddg.has_node(scratch_key):
            assert load_reg not in ddg.children_of(scratch_key)

    def test_dead_frame_does_not_absorb_interleaved_accesses(self, reuse_trace):
        """Between helper1's return and helper2's call the frame is dead:
        main's probe of FRAME+12 must fall back to a named local node, not
        resolve into helper1's retired scratch."""
        dependency = _dependency(reuse_trace)
        ddg = dependency.complete_ddg
        assert ddg.parents_of("main%9") == {"main:q"}

    def test_zero_parameter_callee_frame_is_retired(self):
        """A user function with no parameters emits a Call record with no
        ``p`` operands — indistinguishable from a builtin at the Call itself.
        Its traced body (the next record executes in the callee) must still
        open a scope, so its frame is retired on Ret like any other."""
        records = [
            alloca(1, "main", 2, "acc", ACC, count=1, bits=32),
            record(2, Opcode.STORE, "main", 3,
                   operands=[TraceOperand(index="1", bits=32, value=0,
                                          is_register=False, name=""),
                             mem("2", "acc", ACC)]),
            record(3, Opcode.LOAD, "main", 10,
                   operands=[mem("1", "acc", ACC)], result=reg("r", "1")),
            # zero-parameter traced call: no operands at all
            record(4, Opcode.CALL, "main", 11, callee="init"),
            alloca(5, "init", 30, "tmp", FRAME, count=4, bits=32),
            record(6, Opcode.RET, "init", 31),
            # main probes the dead frame: must not resolve to tmp
            record(7, Opcode.LOAD, "main", 12,
                   operands=[mem("1", "q", FRAME + 4)], result=reg("r", "9")),
            record(8, Opcode.STORE, "main", 20,
                   operands=[reg("1", "1"), mem("2", "acc", ACC)]),
        ]
        trace = Trace(module_name="zeroparam", records=records)
        dependency = _dependency(trace)
        assert dependency.complete_ddg.parents_of("main%9") == {"main:q"}
        assert dependency.variable_map.resolve(FRAME) is None
        assert dependency.variable_map.resolve(FRAME + 4) is None
        assert dependency.variable_map.open_scope_count == 0

    def test_builtin_call_opens_no_scope(self):
        """A builtin Call (no traced body follows) must not leave a dangling
        open scope that would swallow the caller's later allocations."""
        records = [
            alloca(1, "main", 2, "acc", ACC, count=1, bits=32),
            record(2, Opcode.STORE, "main", 3,
                   operands=[TraceOperand(index="1", bits=32, value=0,
                                          is_register=False, name=""),
                             mem("2", "acc", ACC)]),
            record(3, Opcode.LOAD, "main", 10,
                   operands=[mem("1", "acc", ACC)], result=reg("r", "1")),
            record(4, Opcode.CALL, "main", 11,
                   operands=[reg("1", "1")], result=reg("r", "2"),
                   callee="sqrt"),
            # next record stays in main: sqrt's call opened nothing
            record(5, Opcode.STORE, "main", 20,
                   operands=[reg("1", "2"), mem("2", "acc", ACC)]),
        ]
        trace = Trace(module_name="builtin", records=records)
        dependency = _dependency(trace)
        assert dependency.variable_map.open_scope_count == 0
        assert dependency.variable_map.resolve(ACC).name == "acc"

    def test_final_map_retires_both_frames(self, reuse_trace):
        dependency = _dependency(reuse_trace)
        varmap = dependency.variable_map
        # both helper frames have returned: the reused base resolves to
        # nothing, while main's accumulator is still live
        assert varmap.resolve(FRAME) is None
        assert varmap.resolve(FRAME + 4) is None
        assert varmap.resolve(ACC).name == "acc"
        # history still knows both allocations (reporting view)
        assert varmap.latest_by_name("scratch") is not None
        assert varmap.latest_by_name("window") is not None


class TestBigarrayPipelineEquivalence:
    """The million-element synthetic app: the binary file streamed from
    disk and the same trace held in memory agree, through the interval
    store."""

    def test_streaming_report_identical(self, fleet):
        entry = fleet.apps["bigarray"]
        config = AutoCheckConfig(main_loop=entry.spec)
        streaming = AutoCheck(config, trace_path=entry.trace_path).run()
        materialized = AutoCheck(
            config, trace=TraceBinaryReader(entry.trace_path).read()).run()
        assert streaming.mli_variable_names == materialized.mli_variable_names
        assert [(v.name, v.dependency) for v in streaming.critical_variables] \
            == [(v.name, v.dependency) for v in materialized.critical_variables]
        assert streaming.dependency_string() == materialized.dependency_string()

    def test_expected_classification(self, fleet):
        entry = fleet.apps["bigarray"]
        report = AutoCheck(AutoCheckConfig(main_loop=entry.spec),
                           trace_path=entry.trace_path).run()
        got = {v.name: v.dependency.value for v in report.critical_variables}
        assert got == entry.app.expected_critical
