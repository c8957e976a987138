"""``repro.tracer`` — the dynamic execution substrate (LLVM-Tracer substitute).

The paper instruments benchmarks with LLVM-Tracer and executes them natively
to obtain a *dynamic instruction execution trace*.  Here the same artefact is
produced by directly interpreting the LLVM-like IR:

* :mod:`repro.tracer.memory` — a concrete memory model (global segment,
  per-frame stack allocations, element-granular addresses) so every trace
  operand can carry a real memory address;
* :mod:`repro.tracer.interpreter` — executes a compiled module, writing one
  v2 binary trace record per executed instruction through per-instruction
  emit templates, with block-entry hooks used by checkpoint instrumentation
  and fault injection;
* :mod:`repro.tracer.runtime` — deterministic builtins (``sqrt``, ``pow``,
  ``rand``, ``clock``, ``print``);
* :mod:`repro.tracer.faults` — fail-stop fault injection (the equivalent of
  the paper's ``raise(SIGTERM)`` inside the main loop);
* :mod:`repro.tracer.driver` — convenience entry points tying front end,
  code generator, interpreter and trace emission together.
"""

from repro.tracer.values import PointerValue, RuntimeValue
from repro.tracer.memory import Allocation, Memory, MemoryError_
from repro.tracer.faults import FaultInjector, SimulatedFailure
from repro.tracer.interpreter import (
    ExecutionResult,
    HookContext,
    Interpreter,
    InterpreterError,
)
from repro.tracer.driver import (
    compile_and_run,
    run_and_trace,
    trace_to_file,
)

__all__ = [
    "PointerValue",
    "RuntimeValue",
    "Allocation",
    "Memory",
    "MemoryError_",
    "FaultInjector",
    "SimulatedFailure",
    "ExecutionResult",
    "HookContext",
    "Interpreter",
    "InterpreterError",
    "compile_and_run",
    "run_and_trace",
    "trace_to_file",
]
