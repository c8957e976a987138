"""High-level entry points tying the front end, code generator and tracer.

These are the convenience functions the examples, tests and the experiment
harnesses call:

* :func:`compile_and_run` — run a mini-C source without tracing (fast),
  returning the program output;
* :func:`run_and_trace` — run a compiled module with an in-memory trace sink,
  returning both the :class:`repro.trace.records.Trace` (over the binary
  bytes the interpreter emitted; no record is decoded) and the
  :class:`repro.tracer.interpreter.ExecutionResult`;
* :func:`trace_to_file` — run a module streaming the trace to a file
  (``fmt="text"`` matches what the paper's LLVM-Tracer setup produces,
  ``fmt="binary"`` streams the compact block-indexed encoding), returning
  the file size — the "Trace size" column of paper Table II.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Tuple, Union

from repro.codegen.lowering import compile_source
from repro.ir.module import Module
from repro.trace.binio import TraceBinaryWriter
from repro.trace.records import Trace
from repro.trace.textio import write_trace_file
from repro.tracer.interpreter import ExecutionResult, InMemoryTraceSink, Interpreter

_TRACE_FORMATS = ("binary", "text")


def _as_module(program: Union[str, Module], module_name: str) -> Module:
    if isinstance(program, Module):
        return program
    return compile_source(program, module_name=module_name)


def compile_and_run(program: Union[str, Module], module_name: str = "module",
                    seed: int = 314159,
                    max_steps: int = 50_000_000) -> ExecutionResult:
    """Compile (if needed) and execute a program without emitting a trace."""
    module = _as_module(program, module_name)
    interpreter = Interpreter(module, trace_sink=None, seed=seed, max_steps=max_steps)
    return interpreter.run()


def run_and_trace(program: Union[str, Module], module_name: str = "module",
                  seed: int = 314159,
                  max_steps: int = 50_000_000) -> Tuple[Trace, ExecutionResult]:
    """Execute a program collecting its dynamic trace in memory, as the
    binary bytes the interpreter emits."""
    module = _as_module(program, module_name)
    sink = InMemoryTraceSink(module_name=module.name)
    interpreter = Interpreter(module, trace_sink=sink, seed=seed, max_steps=max_steps)
    result = interpreter.run()
    return sink.trace, result


def _write_trace(module: Module, path: str, fmt: str, seed: int,
                 max_steps: int) -> ExecutionResult:
    if fmt == "binary":
        with TraceBinaryWriter(path, module_name=module.name) as writer:
            return Interpreter(module, trace_sink=writer, seed=seed,
                               max_steps=max_steps).run()
    # Text is written from the emitted binary trace: the interpreter has
    # one emission path.
    sink = InMemoryTraceSink(module_name=module.name)
    result = Interpreter(module, trace_sink=sink, seed=seed,
                         max_steps=max_steps).run()
    write_trace_file(sink.trace, path)
    return result


def trace_to_file(program: Union[str, Module], path: str,
                  module_name: str = "module", seed: int = 314159,
                  max_steps: int = 50_000_000,
                  fmt: str = "text") -> Tuple[int, ExecutionResult]:
    """Execute a program streaming its dynamic trace to ``path``.

    ``fmt`` selects the on-disk encoding: ``"text"`` (line-oriented,
    LLVM-Tracer-like) or ``"binary"`` (block-indexed, the fast path for
    large traces).  Returns the trace file size in bytes together with the
    execution result.

    The trace is written next to ``path`` under a process- and
    thread-unique name and renamed onto ``path`` only once the run
    returned: a run that raises leaves no file at ``path``, and concurrent
    writers of one deterministic trace race benignly.
    """
    if fmt not in _TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {fmt!r}; expected one of "
            f"{list(_TRACE_FORMATS)}")
    module = _as_module(program, module_name)
    tmp_path = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        result = _write_trace(module, tmp_path, fmt, seed, max_steps)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        raise
    return os.path.getsize(path), result
