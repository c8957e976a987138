"""The compiled tracer: whole-file trace pins, the writer's packers, and the
interpreter's behaviour at the edges of its step runs.

The interpreter runs each basic block as a list of prebuilt step closures,
and the writer packs each record with one precompiled ``struct.Struct``
per value-flag signature.  The pins below were measured on the interpreter
that dispatched every instruction through an ``isinstance`` chain and
encoded every operand slot on its own.  The fleet pins hash whole files:
the footer digest leaves the string table out, so only a whole-file hash
catches a change in the order strings are interned.
"""

from __future__ import annotations

import gc
import hashlib
import io
import weakref

import pytest
from conftest import FLEET_NAMES

from repro.analysis import find_loops
from repro.apps import get_app
from repro.codegen.lowering import compile_source
from repro.ir.builder import IRBuilder
from repro.ir.module import Function, Module
from repro.ir.opcodes import Opcode
from repro.ir.types import I32, PointerType
from repro.ir.values import GlobalVariable, Register
from repro.trace.binio import INDEX_STRIDE, TraceBinaryWriter, encode_trace
from repro.trace.records import Trace, TraceOperand, TraceRecord
from repro.tracer import (
    FaultInjector,
    Interpreter,
    InterpreterError,
    compile_and_run,
    run_and_trace,
)
from repro.tracer.interpreter import InMemoryTraceSink

#: SHA-256 of each fleet app's whole binary trace (``trace_to_file``,
#: default seed), footer string table included.  Re-pinned when the writer's
#: index stride went from 256 to 64 records: the block index is longer,
#: and the record bytes, content digests and record counts are unchanged.
FLEET_TRACE_SHA256 = {
    "example": "f6a36e23477b06b52472db5b515d5e6adc14638283844a60ae43862321444b49",
    "himeno": "7688abccabc11b0264b9a6c52e1ea08dd1392635171b792d816f68979a71ac59",
    "hpccg": "204b921d088f00461cfa6e9ea2ae106feba78c41a2ac81b6de1fd53c541c7437",
    "cg": "28b4c300641350bec93aa96d97a5ffe9a7b8e5cc1f52c7fa579b2b440bb88f67",
    "mg": "0e3b43e32bd8a081ac438380fb14fbf1c66a19d628098993c4ba3f29737591b4",
    "ft": "d63eb7f8f87997a6b8b2ec9112ee2fea5a504cdc9749006dbde80c4dd9de3aed",
    "sp": "178c82fff9ad989d76eae951a253048efe565eb91424264fde983231cbc1acb6",
    "ep": "d2120354b229dbd8e0af49dcd6c27556c5c4355b442e56ab76499fe61304b6dd",
    "is": "8c6d257cb9d175901469151c4ab9f5a2d27991ea1aea96ffee1df811d0530bb9",
    "bt": "2ec13afb31017946ba12dc95b289be5f53b14a5d5f00ae4f401dd61e9881685b",
    "lu": "0a855682f2d25c593ed03d0fe58ec4bd423dafe832fc3744f05a8f3f380447d5",
    "comd": "4c032a1dba0f8165275ecbdbf62ea636bce4af4bc0e2773755a800c509c5e838",
    "miniamr": "55b8438c651af2ee0501cb9687d292f84bfcb977312b0dd4bc417a0d491492e6",
    "amg": "690dfea7ee037bd1c99044fa975977f1741f97095be588f4b6f59803cdb07de9",
    "hacc": "8eee4e9457c3dfd0ffe2e40e8b46b7414679c7a88b5d009008f5ded87ca060f3",
    "bigarray": "67897c58dd9722be95e71584222c9c7f06df1f23778010870eeb96859ec032e2",
}


def test_pins_cover_the_fleet():
    assert sorted(FLEET_TRACE_SHA256) == sorted(FLEET_NAMES)


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_trace_file_is_whole_file_identical(fleet, name):
    with open(fleet.apps[name].trace_path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == FLEET_TRACE_SHA256[name]


# --------------------------------------------------------------------------- #
# The writer's packers against write_record
# --------------------------------------------------------------------------- #
#: One template per value layout: (operand slots, result slot, fields,
#: pointer symbol).  A slot's name ``None`` takes the symbol.
LAYOUTS = {
    "int": ([("1", 32, True, "7"), ("2", 32, False, "")],
            ("r", 32, True, "8"), (5, None, -3, None, 2, None), ""),
    "float": ([("1", 64, True, "7"), ("2", 64, False, "")],
              ("r", 64, True, "8"), (2.5, None, 0.5, None, 3.0, None), ""),
    "bool": ([("1", 32, True, "7"), ("2", 32, True, "9")],
             ("r", 32, True, "8"), (True, None, False, None, 1, None), ""),
    "address": ([("1", 64, False, None)], ("r", 64, True, "8"),
                (2.5, 0x7F00_0000_0010, 2.5, None), "grid"),
    "int64 overflow": ([("1", 64, True, "7"), ("2", 64, False, "")],
                       ("r", 64, True, "8"),
                       (2 ** 70, None, -(2 ** 64), None, 2 ** 63, None), ""),
}


def _template(writer, operands, result, symbol):
    return writer.template(13, "Mul", "kernel", 12, 3, 4, "11:4", "",
                           operands, result, symbol)


def _record(dyn_id, operands, result, fields, symbol):
    slots = [*operands, result]
    built = [TraceOperand(index=index, bits=bits, value=fields[2 * position],
                          is_register=is_register,
                          name=symbol if name is None else name,
                          address=fields[2 * position + 1])
             for position, (index, bits, is_register, name)
             in enumerate(slots)]
    return TraceRecord(dyn_id, 13, "Mul", "kernel", 12, 3, 4, "11:4",
                       built[:-1], built[-1], "")


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_packed_record_equals_write_record(layout):
    operands, result, fields, symbol = LAYOUTS[layout]
    packed = InMemoryTraceSink(module_name="m")
    template = _template(packed, operands, result, symbol)
    present = [item for item in fields if item is not None]
    emit = packed.emitter(template, fields, symbol)
    emit(41, *present)
    assert packed.emitter(template, fields, symbol) is emit
    emit(42, *present)
    written = InMemoryTraceSink(module_name="m")
    for dyn_id in (41, 42):
        written.write_record(_record(dyn_id, operands, result, fields,
                                     symbol))
    assert packed.getvalue() == written.getvalue()


def test_traced_bytes_equal_the_encoding_of_their_records():
    """A traced file is what ``write_record`` writes for the records it
    decodes to, string table included, also when a Load's pointer symbol
    is a string no earlier record named (here a global loaded first)."""
    module = Module(name="m")
    scale = GlobalVariable(type=PointerType(I32), name="scale",
                           value_type=I32, initializer=5)
    module.add_global(scale)
    function = Function(name="main", return_type=I32)
    module.add_function(function)
    builder = IRBuilder(module, function)
    builder.set_block(builder.new_block("entry"))
    builder.ret(builder.load(scale, I32, line=2), line=3)
    sink = InMemoryTraceSink(module_name="m")
    assert Interpreter(module, trace_sink=sink).run().return_value == 5
    data = sink.getvalue()
    trace = Trace.from_binary(data)
    assert encode_trace("m", trace.globals, trace.records)[0] == data


#: A straight-line entry block of 97 instructions (more than one index
#: stride), then a loop whose body calls a user function.
STRIDE_PROGRAM = """\
int f(int n) { int s = 0; for (int i = 0; i < n; ++i) { s = s + i; } return s; }
int main() {
  int a = 1;
""" + "".join(f"  a = a + {k};\n" for k in range(30)) + """\
  int t = 0;
  for (int k = 0; k < 20; ++k) { t = t + f(k); }
  print(a, t);
  return 0;
}
"""


def test_blocks_start_every_stride_records():
    """Emitters only append, and at each block entry the interpreter has
    the writer write out every whole block still pending: the traced
    bytes, block index included, are what ``write_record`` writes for
    the records they decode to, across a block longer than a stride and
    across calls.  An open writer's ``record_count`` counts the records
    still pending."""
    module = compile_source(STRIDE_PROGRAM, module_name="stride")
    entry = module.function("main").entry
    assert len(entry.instructions) > INDEX_STRIDE
    buffer = io.BytesIO()
    writer = TraceBinaryWriter(None, module_name="stride", fileobj=buffer)
    interpreter = Interpreter(module, trace_sink=writer)
    entries = []
    for function in module.functions.values():
        for block in function.blocks:
            interpreter.register_block_hook(
                function.name, block.name,
                lambda context: entries.append(
                    (writer.record_count, context.interpreter.steps,
                     buffer.tell())))
    result = interpreter.run()
    assert result.output == compile_and_run(STRIDE_PROGRAM).output
    assert writer.record_count == result.steps > 4 * INDEX_STRIDE
    writer.close()
    data = buffer.getvalue()
    layout = writer.layout
    assert len(layout.block_offsets) == -(-result.steps // INDEX_STRIDE)
    block_ends = [*layout.block_offsets, layout.records_end]
    assert all(records == steps for records, steps, _ in entries)
    assert any(records % INDEX_STRIDE for records, _, _ in entries)
    assert all(written == block_ends[records // INDEX_STRIDE]
               for records, _, written in entries)
    trace = Trace.from_binary(data)
    assert encode_trace("stride", trace.globals, trace.records)[0] == data


def test_record_count_includes_pending_records():
    operands, result, fields, symbol = LAYOUTS["int"]
    writer = InMemoryTraceSink(module_name="m")
    emit = writer.emitter(_template(writer, operands, result, symbol),
                          fields, symbol)
    present = [item for item in fields if item is not None]
    for dyn_id in range(INDEX_STRIDE + 6):
        emit(dyn_id, *present)
        assert writer.record_count == dyn_id + 1
    writer.write_blocks()
    assert writer.record_count == INDEX_STRIDE + 6
    writer.close()
    assert writer.record_count == INDEX_STRIDE + 6
    assert writer.layout.record_count == INDEX_STRIDE + 6
    assert len(writer.layout.block_offsets) == 2


def test_emitter_is_cached_per_signature_and_symbol():
    operands, result, fields, symbol = LAYOUTS["address"]
    writer = InMemoryTraceSink(module_name="m")
    template = _template(writer, operands, result, symbol)
    first = writer.emitter(template, fields, symbol)
    assert writer.emitter(template, (1.5, 64, 1.5, None), symbol) is first
    assert writer.emitter(template, (1, 64, 1, None), symbol) is not first
    assert writer.emitter(template, fields, "other") is not first


# --------------------------------------------------------------------------- #
# Errors keep their text
# --------------------------------------------------------------------------- #
def _module(build):
    module = Module(name="m")
    function = Function(name="main", return_type=I32)
    module.add_function(function)
    builder = IRBuilder(module, function)
    builder.set_block(builder.new_block("entry"))
    build(builder)
    builder.ret(builder.const_int(0))
    return module


ERRORS = {
    "load": (lambda b: b.load(b.const_int(3), I32, line=4),
             "load through a non-pointer value at line 4"),
    "store": (lambda b: b.store(b.const_int(1), b.const_int(8), line=6),
              "store through a non-pointer value at line 6"),
    "gep": (lambda b: b.gep(b.const_int(8), b.const_int(1), I32, line=7),
            "getelementptr on non-pointer at line 7"),
    "unset register": (
        lambda b: b.binary(Opcode.ADD, Register(type=I32, rid=42),
                           b.const_int(1), I32, line=3),
        "use of unset register %42 in main"),
    "division by zero": (
        lambda b: b.binary(Opcode.SDIV, b.const_int(1), b.const_int(0), I32,
                           line=9),
        "division by zero at line 9"),
}


@pytest.mark.parametrize("traced", [False, True], ids=["execute", "traced"])
@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_messages_keep_their_text(case, traced):
    build, message = ERRORS[case]
    module = _module(build)
    with pytest.raises(InterpreterError) as excinfo:
        if traced:
            run_and_trace(module)
        else:
            Interpreter(module).run()
    assert str(excinfo.value) == message


CALLING_PROGRAM = """\
int f(int n) { int s = 0; for (int i = 0; i < n; ++i) { s = s + i; } return s; }
int main() { int t = 0; for (int k = 0; k < 50; ++k) { t = t + f(k); } print(t); return 0; }
"""
#: instructions ``CALLING_PROGRAM`` executes
CALLING_STEPS = 17236


def test_step_budget_is_exact():
    """The budget admits exactly ``max_steps`` instructions, across the
    step runs a user call splits a block into."""
    assert compile_and_run(CALLING_PROGRAM).steps == CALLING_STEPS
    assert compile_and_run(CALLING_PROGRAM,
                           max_steps=CALLING_STEPS).steps == CALLING_STEPS
    with pytest.raises(InterpreterError) as excinfo:
        compile_and_run(CALLING_PROGRAM, max_steps=CALLING_STEPS - 1)
    assert str(excinfo.value) == (
        f"instruction budget of {CALLING_STEPS - 1} exceeded "
        f"(possible infinite loop in 'main')")
    with pytest.raises(InterpreterError, match=r"loop in 'f'\)$"):
        compile_and_run(CALLING_PROGRAM, max_steps=100)


# --------------------------------------------------------------------------- #
# Block hooks
# --------------------------------------------------------------------------- #
#: Every block entry of ``ep`` as (function, block, entry count, steps so
#: far): the number of entries, the run's steps and the SHA-256 of the
#: lines ``"<function> <block> <count> <steps>"`` joined by newlines.
EP_HOOK_CALLS = 3355
EP_STEPS = 63348
EP_HOOK_SHA256 = \
    "0c31089fbcb8d3b13a7765ba64212ff6ba0ac02b6fac6431612e4f4ea0b32bd9"
#: steps of ``ep`` when its main loop's body fails at its third entry
EP_FAILED_STEPS = 20897


@pytest.fixture(scope="module")
def ep_module():
    return compile_source(get_app("ep").source(), module_name="ep")


def test_block_hooks_see_the_same_entries(ep_module):
    interpreter = Interpreter(ep_module)
    seen = []
    for function in ep_module.functions.values():
        for block in function.blocks:
            interpreter.register_block_hook(
                function.name, block.name,
                lambda context: seen.append(
                    f"{context.function_name} {context.block_name} "
                    f"{context.entry_count} {context.interpreter.steps}"))
    result = interpreter.run()
    assert len(seen) == EP_HOOK_CALLS
    assert result.steps == EP_STEPS
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() \
        == EP_HOOK_SHA256


def test_simulated_failure_from_a_hook_stops_the_run(ep_module):
    app = get_app("ep")
    spec = app.main_loop(app.source())
    loops = find_loops(ep_module.function(spec.function)).loops
    header = next(loop.header for loop in loops
                  if loop.header.first_line == spec.start_line)
    body = header.terminator.targets[0].name
    interpreter = Interpreter(ep_module)
    interpreter.register_block_hook(
        spec.function, body,
        FaultInjector(function=spec.function, block=body, fail_at_entry=3))
    result = interpreter.run()
    assert result.failed
    assert result.failure.iteration == 3
    assert result.steps == EP_FAILED_STEPS
    assert interpreter.block_entry_count(spec.function, body) == 3


def test_compiled_steps_do_not_outlive_the_run(ep_module):
    """The steps refer to their interpreter; ``run`` drops them, so the
    interpreter is freed by reference counting alone."""
    interpreter = Interpreter(ep_module, trace_sink=InMemoryTraceSink("ep"))
    interpreter.run()
    reference = weakref.ref(interpreter)
    gc.disable()
    try:
        del interpreter
        assert reference() is None
    finally:
        gc.enable()
