"""Scope rows: only scope changes split a span, and plain Calls are data rows.

The engine splits a span only where the live map's scopes change: a
``Call`` that binds parameters or whose callee's body follows (or that
ends its span), a ``Ret``, an unknown opcode, and an ``Alloca`` whose
extent holds an operand address of an earlier row of the span.  Every
other ``Alloca`` registers from the block's columns at the start of its
segment, and every other ``Call`` is a ``KIND_ARITHMETIC`` row.  These
tests pin:

* **what is left to dispatch and decode** — spies on
  ``AnalysisEngine._dispatch_segment`` and ``ColumnarBlock.record``: ep
  walks in at most 40 segments (10,092 when every Alloca, Call and Ret
  split its span), and a fleet pass decodes at most a few hundred records
  (18,539);
* **that the split changes no result** — hand-built traces walked at the
  default span size and in one-row spans.  A one-row span holds each
  scope row alone, so it walks them one record at a time: an Alloca
  registers at its own row, and a Call ends its span and stays a scope
  record.  Both walks must give the same report, dependency result and
  registrations.  ``test_dependency_reference.py`` cannot catch a
  misclassified row, since both of its passes see the same kinds;
* **canonical string ids** — a trace that names ``main``, or a callee,
  by two string ids walks to example's golden report;
* **the slot columns** — ``ColumnarBlock.slot_field`` and ``int_values``
  read each operand slot as the record decoder does, under both scans.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from conftest import FLEET_NAMES, make_alloca_record, make_operand
from conftest import make_record as record

from repro.core import AutoCheck, AutoCheckConfig, MainLoopSpec
from repro.core import engine as engine_module
from repro.ir.opcodes import Opcode
from repro.store.serialize import canonical_report_json
from repro.trace import binio
from repro.trace.columnar import ColumnarBlock, TraceColumnarReader
from repro.trace.records import Trace

from test_golden_reports import GOLDEN

SPEC = MainLoopSpec(function="main", start_line=10, end_line=20)
STACK = 0x7F0000000000


def mem(index, name, address=None, bits=32):
    return make_operand(index, name, address=address, bits=bits)


def reg(index, name, address=None, bits=32):
    return make_operand(index, name, address=address, bits=bits,
                        is_register=True)


@pytest.fixture()
def spies(monkeypatch):
    """Count segment dispatches and record decodes."""
    counts = {"segments": 0, "decodes": 0}
    dispatch = engine_module.AnalysisEngine._dispatch_segment
    decode = ColumnarBlock.record

    def counted_dispatch(self, *args):
        counts["segments"] += 1
        return dispatch(self, *args)

    def counted_decode(self, row):
        counts["decodes"] += 1
        return decode(self, row)

    monkeypatch.setattr(engine_module.AnalysisEngine, "_dispatch_segment",
                        counted_dispatch)
    monkeypatch.setattr(ColumnarBlock, "record", counted_decode)
    return counts


def _sha(report) -> str:
    return hashlib.sha256(canonical_report_json(report).encode()).hexdigest()


def _run(entry):
    config = AutoCheckConfig(main_loop=entry.spec, **entry.options)
    return AutoCheck(config, trace_path=entry.trace_path,
                     module=entry.module).run()


# --------------------------------------------------------------------------- #
# What is left to dispatch and decode
# --------------------------------------------------------------------------- #
def test_ep_walks_in_few_segments(fleet, spies):
    report = _run(fleet.apps["ep"])
    assert _sha(report) == GOLDEN["ep"]["report_sha256"]
    assert 0 < spies["segments"] <= 40


def test_a_fleet_pass_decodes_few_records(fleet, spies):
    for name in FLEET_NAMES:
        _run(fleet.apps[name])
    assert 0 < spies["decodes"] <= 300


# --------------------------------------------------------------------------- #
# One-row spans walk alike
# --------------------------------------------------------------------------- #
def _shadowing_alloca():
    """A Load at X, an Alloca over X, a Load at X: the Alloca must split
    its span, or the first Load would already see it."""
    x = STACK + 4
    return [
        make_alloca_record("arr", STACK, count=4, dyn_id=1, line=2),
        record(2, Opcode.STORE, "main", 3,
               operands=[mem("1", ""), mem("2", "arr", x)]),
        record(3, Opcode.LOAD, "main", 10, operands=[mem("1", "arr", x)],
               result=reg("r", "1")),
        make_alloca_record("shadow", x, dyn_id=4, line=11),
        record(5, Opcode.LOAD, "main", 12, operands=[mem("1", "shadow", x)],
               result=reg("r", "2")),
        record(6, Opcode.STORE, "main", 20,
               operands=[reg("1", "1"), mem("2", "arr", STACK)]),
    ]


def _descending_allocas():
    """Allocas at descending addresses, with an access between them that
    a later Alloca's extent holds (that one splits) and others that none
    holds."""
    records = [make_alloca_record("g", STACK + 0x100, dyn_id=1, line=2),
               record(2, Opcode.STORE, "main", 3,
                      operands=[mem("1", ""), mem("2", "g", STACK + 0x100)])]
    for k in range(6):
        base = STACK + 0x80 - 0x10 * k
        dyn = 3 + 3 * k
        records += [
            record(dyn, Opcode.LOAD, "main", 10,
                   operands=[mem("1", "g", STACK + 0x100)],
                   result=reg("r", f"a{k}")),
            # at k == 3 the Store touches where the Alloca after it lies
            record(dyn + 1, Opcode.STORE, "main", 11,
                   operands=[reg("1", f"a{k}"),
                             mem("2", "?", base - (0x10 if k == 3 else 0))]),
            make_alloca_record(f"v{k + 1}", base - 0x10, count=2,
                               dyn_id=dyn + 2, line=12),
        ]
    records.append(record(30, Opcode.STORE, "main", 20,
                          operands=[reg("1", "a5"),
                                    mem("2", "v6", STACK + 0x20)]))
    return records


def _zero_parameter_call():
    """A zero-parameter user Call whose body follows: its activation must
    open, so the callee's Alloca retires at its Ret and a later access to
    that address finds no owner."""
    slot = STACK + 0x40
    return [
        make_alloca_record("a", STACK, dyn_id=1, line=2),
        record(2, Opcode.STORE, "main", 3,
               operands=[mem("1", ""), mem("2", "a", STACK)]),
        record(3, Opcode.CALL, "main", 10, callee="zero"),
        make_alloca_record("t", slot, function="zero", dyn_id=4, line=30),
        record(5, Opcode.STORE, "zero", 31,
               operands=[mem("1", ""), mem("2", "t", slot)]),
        record(6, Opcode.RET, "zero", 32),
        record(7, Opcode.LOAD, "main", 11, operands=[mem("1", "", slot)],
               result=reg("r", "1")),
        record(8, Opcode.STORE, "main", 20,
               operands=[mem("1", ""), mem("2", "a", STACK)]),
    ]


def _parameters_without_body():
    """A Call that binds a parameter but whose body does not follow: it
    stays a scope record, so its binding is recorded."""
    return [
        make_alloca_record("a", STACK, dyn_id=1, line=2),
        record(2, Opcode.STORE, "main", 3,
               operands=[mem("1", ""), mem("2", "a", STACK)]),
        record(3, Opcode.LOAD, "main", 10, operands=[mem("1", "a", STACK)],
               result=reg("r", "1")),
        record(4, Opcode.CALL, "main", 11,
               operands=[reg("1", "1"), mem("p1", "p")], callee="ext"),
        record(5, Opcode.STORE, "main", 20,
               operands=[reg("1", "1"), mem("2", "a", STACK)]),
    ]


def _builtin_calls():
    """A builtin Call with three register arguments (the per-row path
    takes the third) and one with no result."""
    return [
        make_alloca_record("a", STACK, dyn_id=1, line=2),
        record(2, Opcode.STORE, "main", 3,
               operands=[mem("1", ""), mem("2", "a", STACK)]),
        record(3, Opcode.LOAD, "main", 10, operands=[mem("1", "a", STACK)],
               result=reg("r", "1")),
        record(4, Opcode.FADD, "main", 10,
               operands=[reg("1", "1"), reg("2", "1")], result=reg("r", "2")),
        record(5, Opcode.CALL, "main", 11,
               operands=[reg("1", "1"), reg("2", "2"), reg("3", "1")],
               result=reg("r", "3"), callee="fma"),
        record(6, Opcode.CALL, "main", 12, operands=[reg("1", "3")],
               callee="sink"),
        record(7, Opcode.STORE, "main", 20,
               operands=[reg("1", "3"), mem("2", "a", STACK)]),
    ]


def _up_to_a_block_end():
    """Records that fill the first block but for its last row (the
    reader scans two whole index blocks as one block, and the rest as
    another)."""
    records = [make_alloca_record("a", STACK, dyn_id=1, line=2),
               record(2, Opcode.STORE, "main", 3,
                      operands=[mem("1", ""), mem("2", "a", STACK)])]
    while len(records) < 2 * binio.INDEX_STRIDE - 1:
        dyn = len(records) + 1
        records.append(record(dyn, Opcode.LOAD, "main", 10,
                              operands=[mem("1", "a", STACK)],
                              result=reg("r", "1")))
    return records


def _builtin_call_ending_a_block():
    """A builtin Call as the last row of the first block: its next row is
    in the next block, so it ends its span and stays a scope record."""
    records = _up_to_a_block_end()
    records.append(record(len(records) + 1, Opcode.CALL, "main", 11,
                          operands=[reg("1", "1")], result=reg("r", "2"),
                          callee="sqrt"))
    records.append(record(len(records) + 1, Opcode.STORE, "main", 20,
                          operands=[reg("1", "2"), mem("2", "a", STACK)]))
    return records


def _user_call_ending_a_block():
    """A zero-parameter user Call as the last row of the first block,
    whose body follows in the next block: the block alone cannot show
    that, so the Call stays a scope record and its activation opens."""
    slot = STACK + 0x40
    records = _up_to_a_block_end()
    dyn = len(records) + 1
    records += [
        record(dyn, Opcode.CALL, "main", 11, callee="zero"),
        make_alloca_record("t", slot, function="zero", dyn_id=dyn + 1,
                           line=30),
        record(dyn + 2, Opcode.STORE, "zero", 31,
               operands=[mem("1", ""), mem("2", "t", slot)]),
        record(dyn + 3, Opcode.RET, "zero", 32),
        record(dyn + 4, Opcode.LOAD, "main", 12,
               operands=[mem("1", "", slot)], result=reg("r", "2")),
        record(dyn + 5, Opcode.STORE, "main", 20,
               operands=[mem("1", ""), mem("2", "a", STACK)]),
    ]
    return records


def _odd_counts():
    """Allocas whose count is a float, a big integer and an int64 too
    large to register from columns: each is decoded at its row."""
    high = STACK + 0x10000
    return [
        make_alloca_record("a", STACK, dyn_id=1, line=2),
        record(2, Opcode.STORE, "main", 3,
               operands=[mem("1", ""), mem("2", "a", STACK)]),
        record(3, Opcode.LOAD, "main", 10, operands=[mem("1", "a", STACK)],
               result=reg("r", "1")),
        make_alloca_record("f", STACK + 0x100, count=3.0, dyn_id=4, line=11),
        record(5, Opcode.STORE, "main", 11,
               operands=[reg("1", "1"), mem("2", "f", STACK + 0x104)]),
        make_alloca_record("w", high + 0x100, count=2 ** 33, dyn_id=6,
                           line=12),
        make_alloca_record("big", high, count=2 ** 70, dyn_id=7, line=13),
        record(8, Opcode.STORE, "main", 14,
               operands=[reg("1", "1"), mem("2", "big", high + 0x200)]),
        record(9, Opcode.STORE, "main", 20,
               operands=[reg("1", "1"), mem("2", "a", STACK)]),
    ]


TRACES = {
    "shadowing_alloca": _shadowing_alloca,
    "descending_allocas": _descending_allocas,
    "zero_parameter_call": _zero_parameter_call,
    "parameters_without_body": _parameters_without_body,
    "builtin_calls": _builtin_calls,
    "builtin_call_ending_a_block": _builtin_call_ending_a_block,
    "user_call_ending_a_block": _user_call_ending_a_block,
    "odd_counts": _odd_counts,
}


def _outcome(records):
    """Everything a walk of ``records`` (a list, or a :class:`Trace`)
    leaves behind: the report, the dependency result and every
    registration, with the live map's final segments."""
    trace = (records if isinstance(records, Trace)
             else Trace(module_name="scope_rows", records=records))
    config = AutoCheckConfig(main_loop=SPEC)
    report = canonical_report_json(AutoCheck(config, trace=trace).run())
    walk = AutoCheck(config, trace=trace).walk()
    dependency = walk.dependency.result()
    return {
        "report": report,
        "bindings": list(dependency.param_bindings.items()),
        "reg_var": list(dependency.reg_var_map.items()),
        "inspected": dependency.inspected_records,
        "registrations": [(info.name, info.base_address, info.size_bytes,
                           info.element_bits, info.function, info.decl_line)
                          for info in walk.varmap],
        "live": [(start, end, info.key) for start, end, info
                 in walk.varmap.live_intervals()],
    }


@pytest.mark.parametrize("name", sorted(TRACES))
def test_one_row_spans_walk_alike(monkeypatch, spies, name):
    records = TRACES[name]()
    default = _outcome(records)
    walked = dict(spies)
    monkeypatch.setattr(engine_module, "_SPAN_ROWS", 1)
    one_row = _outcome(records)
    assert default == one_row
    # the default spans walked the scope rows in fewer segments
    assert walked["segments"] < spies["segments"] - walked["segments"]


def test_an_alloca_over_an_earlier_access_splits():
    outcome = _outcome(_shadowing_alloca())
    reg_var = dict(outcome["reg_var"])
    assert reg_var[("main", "1")] == f"arr@{STACK:#x}"
    assert reg_var[("main", "2")] == f"shadow@{STACK + 4:#x}"


def test_descending_allocas_register_in_row_order(spies):
    outcome = _outcome(_descending_allocas())
    assert [name for name, *_ in outcome["registrations"]] == [
        "g", "v1", "v2", "v3", "v4", "v5", "v6"]
    assert spies["decodes"] == 0


def test_zero_parameter_callee_retires(spies):
    outcome = _outcome(_zero_parameter_call())
    assert ("main", "1") not in dict(outcome["reg_var"])
    assert all(key != f"t@{STACK + 0x40:#x}" for _, _, key in outcome["live"])


def test_a_callee_whose_body_opens_the_next_block_retires():
    outcome = _outcome(_user_call_ending_a_block())
    assert ("main", "2") not in dict(outcome["reg_var"])
    assert all(key != f"t@{STACK + 0x40:#x}" for _, _, key in outcome["live"])


def test_a_binding_call_without_body_records_its_binding():
    outcome = _outcome(_parameters_without_body())
    assert dict(outcome["bindings"]) == {("ext", "p"): f"a@{STACK:#x}"}


def test_builtin_calls_take_the_bulk_path(spies):
    trace = Trace(module_name="builtins", records=_builtin_calls())
    walk = AutoCheck(AutoCheckConfig(main_loop=SPEC), trace=trace).walk()
    ddg = walk.dependency.result().complete_ddg
    assert ddg.parents_of("main%3") == {"main%1", "main%2"}
    assert ddg.has_node("main%3")
    # neither Call was decoded: both joined the data rows
    assert spies["decodes"] == 0


def test_odd_counts_are_decoded(spies):
    outcome = _outcome(_odd_counts())
    sizes = {name: size for name, _, size, *_ in outcome["registrations"]}
    assert sizes["f"] == 12
    assert sizes["w"] == 4 * 2 ** 33
    assert sizes["big"] == 4 * 2 ** 70


# --------------------------------------------------------------------------- #
# Canonical string ids
# --------------------------------------------------------------------------- #
def _with_a_second_id(trace, text, field, chosen, copies=1):
    """``trace``'s bytes with ``text`` given a second string id, which the
    header field at byte ``field`` of the records ``chosen(records)``
    lists (by index) now holds.  With ``copies`` 2 the table names
    ``text`` once more after it, so the id ``id_of`` gives ``text`` is
    neither the chosen records' nor the others'."""
    data, _ = trace.encoded()
    layout = trace.layout
    positions = []
    position = layout.records_start
    while position < layout.records_end:
        positions.append(position)
        _, position = binio._decode_record(data, position, layout.strings)
    patched = bytearray(data)
    second = len(layout.strings).to_bytes(4, "little")
    for index in chosen(trace.records):
        patched[positions[index] + field:positions[index] + field + 4] = \
            second
    return Trace.from_encoded(bytes(patched), dataclasses.replace(
        layout, strings=[*layout.strings, *[text] * copies]))


#: byte offsets of a record header's function and callee ids
_FUNCTION_ID, _CALLEE_ID = 28, 36


def _golden_walk(trace, spec, module):
    report = AutoCheck(AutoCheckConfig(main_loop=spec), trace=trace,
                       module=module).run()
    return _sha(report) == GOLDEN["example"]["report_sha256"]


def test_main_named_by_two_ids_gives_the_golden_report(
        example_trace, example_spec, example_module):
    def every_other_main_row(records):
        return [index for index, record_ in enumerate(records)
                if record_.function == "main"][1::2]

    crafted = _with_a_second_id(example_trace, "main", _FUNCTION_ID,
                                every_other_main_row)
    assert _golden_walk(crafted, example_spec, example_module)


def _calls_to(callee):
    def chosen(records):
        return [index for index, record_ in enumerate(records)
                if record_.callee == callee]
    return chosen


def test_a_callee_named_by_two_ids_gives_the_golden_report(
        example_trace, example_spec, example_module):
    crafted = _with_a_second_id(example_trace, "foo", _CALLEE_ID,
                                _calls_to("foo"))
    assert _golden_walk(crafted, example_spec, example_module)


def test_a_zero_parameter_callee_named_by_two_ids_still_activates():
    """The Call names its callee by another id than its body's rows, and
    neither is the one ``id_of`` gives: its body still follows, so its
    activation opens and the callee's Alloca retires."""
    trace = Trace(module_name="scope_rows", records=_zero_parameter_call())
    crafted = _with_a_second_id(trace, "zero", _CALLEE_ID, _calls_to("zero"),
                                copies=2)
    assert _outcome(crafted) == _outcome(trace)


# --------------------------------------------------------------------------- #
# The slot columns
# --------------------------------------------------------------------------- #
def _slot_columns_match(blocks, records):
    for block in blocks:
        slots = np.arange(int(block.op_start[-1]))
        index = block.slot_field("index_id", slots).tolist()
        bits = block.slot_field("bits", slots).tolist()
        values, plain = block.int_values(slots)
        values, plain = values.tolist(), plain.tolist()
        for row in range(block.count):
            decoded = records[block.base_index + row]
            operands = [*decoded.operands]
            if decoded.result is not None:
                operands.append(decoded.result)
            for offset, operand in enumerate(operands):
                slot = int(block.op_start[row]) + offset
                assert block.strings[index[slot]] == operand.index
                assert bits[slot] == operand.bits
                is_int = (isinstance(operand.value, int)
                          and -2 ** 63 <= operand.value < 2 ** 63)
                assert plain[slot] == is_int
                if is_int:
                    assert values[slot] == operand.value


def test_slot_fields_read_as_the_decoder(example_trace):
    blocks = list(TraceColumnarReader(
        buffer=example_trace.encoded()[0]).iter_blocks())
    assert len(blocks) == 2  # a lockstep-scanned chunk and a Python tail
    _slot_columns_match(blocks, example_trace.records)


def test_slot_fields_read_big_integer_chunks():
    records = _odd_counts() * 30
    buffer, _ = binio.encode_trace("odd", [], records)
    blocks = list(TraceColumnarReader(buffer=buffer).iter_blocks(
        chunk_records=128))
    _slot_columns_match(blocks, records)
