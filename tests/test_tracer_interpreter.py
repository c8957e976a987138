"""Unit tests for the tracing interpreter (execution + trace emission)."""

import pytest

from repro.codegen import compile_source
from repro.ir.opcodes import Opcode
from repro.tracer import (
    FaultInjector,
    Interpreter,
    InterpreterError,
    SimulatedFailure,
    compile_and_run,
    run_and_trace,
)


SMALL_PROGRAM = """\
double scale;

double triple(double v) {
    return v * 3.0;
}

int main() {
    scale = 2.0;
    double data[4];
    for (int i = 0; i < 4; ++i) {
        data[i] = i * scale;
    }
    double total = 0.0;
    for (int i = 0; i < 4; ++i) {
        total = total + triple(data[i]);
    }
    print("total", total);
    return 0;
}
"""


@pytest.fixture(scope="module")
def small_trace():
    trace, result = run_and_trace(SMALL_PROGRAM, module_name="small")
    assert not result.failed
    return trace, result


class TestExecutionBasics:
    def test_program_output(self, small_trace):
        _, result = small_trace
        assert result.output == ["total 36"]

    def test_untraced_run_matches_traced_output(self, small_trace):
        _, traced = small_trace
        untraced = compile_and_run(SMALL_PROGRAM)
        assert untraced.output == traced.output

    def test_steps_counted(self, small_trace):
        trace, result = small_trace
        assert result.steps == len(trace.records)

    def test_memory_attached_to_result(self, small_trace):
        _, result = small_trace
        assert result.memory is not None
        assert result.memory.total_global_bytes >= 8

    def test_missing_entry_function(self):
        module = compile_source("int main() { return 0; }")
        interpreter = Interpreter(module)
        with pytest.raises(InterpreterError):
            interpreter.run(entry="does_not_exist")

    def test_max_steps_guard(self):
        source = "int main() { while (1) { int x = 1; } return 0; }"
        module = compile_source(source)
        interpreter = Interpreter(module, max_steps=500)
        with pytest.raises(InterpreterError, match="budget"):
            interpreter.run()

    def test_division_by_zero_reported_with_line(self):
        source = "int main() {\n int z = 0;\n int y = 4 / z;\n return 0;\n}"
        with pytest.raises(InterpreterError, match="line 3"):
            compile_and_run(source)

    def test_determinism_across_runs(self):
        first = compile_and_run(SMALL_PROGRAM, seed=9)
        second = compile_and_run(SMALL_PROGRAM, seed=9)
        assert first.output == second.output


class TestTraceEmission:
    def test_globals_preamble_present(self, small_trace):
        trace, _ = small_trace
        names = [symbol.name for symbol in trace.globals]
        assert names == ["scale"]
        assert trace.globals[0].size_bytes == 8

    def test_dynamic_ids_strictly_increasing(self, small_trace):
        trace, _ = small_trace
        ids = [record.dyn_id for record in trace.records]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_functions_seen_in_trace(self, small_trace):
        trace, _ = small_trace
        assert {record.function for record in trace} == {"main", "triple"}

    def test_load_records_carry_variable_name_and_address(self, small_trace):
        trace, _ = small_trace
        loads = [r for r in trace.records if r.is_load]
        named = [r for r in loads if r.memory_operand().name == "scale"]
        assert named
        operand = named[0].memory_operand()
        assert operand.address == trace.globals[0].address
        assert not operand.is_register
        assert named[0].result.is_register

    def test_store_records_have_value_and_pointer_operands(self, small_trace):
        trace, _ = small_trace
        stores = [r for r in trace.records if r.is_store]
        assert stores
        for record in stores:
            assert len(record.operands) == 2
            assert record.operands[1].address is not None

    def test_alloca_records_have_count_and_address(self, small_trace):
        trace, _ = small_trace
        allocas = [r for r in trace.records if r.is_alloca]
        data_allocas = [r for r in allocas if r.result.name == "data"]
        assert data_allocas
        count_operand = data_allocas[0].operands[0]
        assert count_operand.name == "count" and count_operand.value == 4

    def test_gep_records_reference_base_symbol(self, small_trace):
        trace, _ = small_trace
        geps = [r for r in trace.records if r.is_gep]
        assert geps
        assert any(r.memory_operand().name == "data" for r in geps)

    def test_call_record_for_user_function_lists_parameters(self, small_trace):
        trace, _ = small_trace
        calls = [r for r in trace.records
                 if r.is_call and r.callee == "triple"]
        assert calls
        params = calls[0].parameter_operands()
        assert [p.name for p in params] == ["v"]

    def test_print_call_record_present(self, small_trace):
        trace, _ = small_trace
        assert any(r.is_call and r.callee == "print" for r in trace.records)

    def test_arithmetic_records_have_register_result(self, small_trace):
        trace, _ = small_trace
        arith = [r for r in trace.records if r.is_arithmetic]
        assert arith
        for record in arith[:20]:
            assert record.result is not None
            assert record.result.is_register

    def test_branch_records_have_line_numbers(self, small_trace):
        trace, _ = small_trace
        branches = [r for r in trace.records if r.opcode == int(Opcode.BR)]
        assert branches
        assert all(r.line > 0 for r in branches)

    def test_parameter_access_reported_under_callee_name(self, small_trace):
        """Inside triple(), loads of the parameter show the name `v` (the
        paper's Fig. 1 behaviour) while the address belongs to the caller's
        frame value."""
        trace, _ = small_trace
        loads_in_triple = [r for r in trace.records
                           if r.is_load and r.function == "triple"]
        assert any(r.memory_operand().name == "v" for r in loads_in_triple)

    def test_no_sink_means_no_records_but_same_result(self):
        module = compile_source(SMALL_PROGRAM)
        interpreter = Interpreter(module, trace_sink=None)
        result = interpreter.run()
        assert result.output == ["total 36"]


class TestHooksAndFaults:
    def test_block_hook_invoked_per_entry(self):
        module = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 5; ++i) { s = s + i; } "
            "print(s); return 0; }")
        interpreter = Interpreter(module)
        seen = []
        # Find the loop body block via the loop analysis.
        from repro.analysis import find_loops

        info = find_loops(module.function("main"))
        header = info.loops[0].header.name
        interpreter.register_block_hook("main", header,
                                        lambda ctx: seen.append(ctx.entry_count))
        interpreter.run()
        # for i in 0..4: header evaluated 6 times (5 iterations + exit check)
        assert seen == [1, 2, 3, 4, 5, 6]
        assert interpreter.block_entry_count("main", header) == 6

    def test_fault_injection_aborts_run(self):
        module = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 8; ++i) { s = s + i; "
            "print(s); } return 0; }")
        from repro.analysis import find_loops

        info = find_loops(module.function("main"))
        body = info.loops[0].header.terminator.targets[0].name
        interpreter = Interpreter(module)
        interpreter.register_block_hook(
            "main", body, FaultInjector(function="main", block=body, fail_at_entry=3))
        result = interpreter.run()
        assert result.failed
        assert isinstance(result.failure, SimulatedFailure)
        assert len(result.output) == 2  # only the first two iterations printed

    def test_resolve_variable_finds_globals(self, small_trace):
        module = compile_source(SMALL_PROGRAM)
        interpreter = Interpreter(module)
        interpreter.run()
        allocation = interpreter.resolve_variable("scale")
        assert allocation is not None
        assert allocation.segment == "global"
