"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.base import AppDefinition
from repro.codegen.lowering import compile_source
from repro.core.config import AutoCheckConfig
from repro.core.pipeline import AutoCheck
from repro.core.report import AutoCheckReport
from repro.ir.module import Module
from repro.tracer.driver import compile_and_run, run_and_trace, trace_to_file
from repro.tracer.interpreter import ExecutionResult


@dataclass
class AppAnalysis:
    """Everything produced when analysing one application."""

    app: AppDefinition
    report: AutoCheckReport
    source: str
    module: Module
    execution: ExecutionResult
    source_loc: int = 0
    trace_bytes: Optional[int] = None
    trace_generation_seconds: float = 0.0
    trace_path: Optional[str] = None

    @property
    def matches_expected(self) -> bool:
        got = {v.name: v.dependency.value for v in self.report.critical_variables}
        return got == dict(self.app.expected_critical)

    def mismatch_description(self) -> str:
        got = {v.name: v.dependency.value for v in self.report.critical_variables}
        expected = dict(self.app.expected_critical)
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        retyped = sorted(name for name in set(got) & set(expected)
                         if got[name] != expected[name])
        parts = []
        if missing:
            parts.append("missing: " + ", ".join(missing))
        if extra:
            parts.append("extra: " + ", ".join(extra))
        if retyped:
            parts.append("retyped: " + ", ".join(retyped))
        return "; ".join(parts) if parts else "exact match"


def analyze_app(app: AppDefinition, params: Optional[Dict[str, int]] = None,
                trace_dir: Optional[str] = None,
                seed: int = 314159) -> AppAnalysis:
    """Trace one application and run the AutoCheck pipeline on it.

    When ``trace_dir`` is given the dynamic trace is written to a file there
    (mirroring the paper's LLVM-Tracer setup); otherwise the trace stays in
    memory.
    """
    params = params or {}
    source = app.source(**params)
    module = compile_source(source, module_name=app.name)
    spec = app.main_loop(source)
    source_loc = len([line for line in source.splitlines() if line.strip()])

    config = AutoCheckConfig(main_loop=spec, **app.autocheck_options)

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{app.name}.trace")
        start = time.perf_counter()
        trace_bytes, execution = trace_to_file(module, trace_path,
                                               module_name=app.name, seed=seed)
        generation = time.perf_counter() - start
        report = AutoCheck(config, trace_path=trace_path, module=module).run()
        report.trace_stats.trace_bytes = trace_bytes
        return AppAnalysis(app=app, report=report, source=source, module=module,
                           execution=execution, source_loc=source_loc,
                           trace_bytes=trace_bytes,
                           trace_generation_seconds=generation,
                           trace_path=trace_path)

    start = time.perf_counter()
    trace, execution = run_and_trace(module, module_name=app.name, seed=seed)
    generation = time.perf_counter() - start
    report = AutoCheck(config, trace=trace, module=module).run()
    return AppAnalysis(app=app, report=report, source=source, module=module,
                       execution=execution, source_loc=source_loc,
                       trace_generation_seconds=generation)


def variable_sizes(module: Module, execution: ExecutionResult, names: List[str],
                   function: str = "main") -> Dict[str, int]:
    """Byte sizes of ``names`` as allocated by ``execution`` (globals or
    ``function``-local allocations).  Used by the Table IV storage study to
    size checkpoints on larger inputs without re-running the analysis."""
    sizes: Dict[str, int] = {}
    memory = execution.memory
    if memory is None:
        return sizes
    global_by_name = {alloc.name: alloc for alloc in memory.global_allocations}
    local_by_name: Dict[str, int] = {}
    for alloc in memory.stack_allocations:
        if alloc.function == function:
            local_by_name[alloc.name] = alloc.size_bytes
    for name in names:
        if name in global_by_name:
            sizes[name] = global_by_name[name].size_bytes
        elif name in local_by_name:
            sizes[name] = local_by_name[name]
        else:
            sizes[name] = 0
    return sizes


def run_untraced(app: AppDefinition, params: Optional[Dict[str, int]] = None,
                 seed: int = 314159) -> ExecutionResult:
    """Execute an application without tracing (used for large-input studies)."""
    params = params or {}
    return compile_and_run(app.source(**params), module_name=app.name, seed=seed)
