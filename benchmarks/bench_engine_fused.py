"""Benchmark: the single-pass analysis engine's walk throughput.

Every report comes from one walk of the trace's columnar blocks
(:class:`repro.core.engine.AnalysisEngine` over
:meth:`repro.trace.columnar.TraceColumnarReader.iter_blocks`).  This file
times that walk on a ``bigarray`` trace (per-iteration callee scratch
churn) and prints its records/second; the fleet-wide per-app numbers are
``perfbench``'s ``engine.krec_per_s.<app>`` layer metrics.

The file also tracks the opcode-dispatch micro-optimization the engine and
``dependency.py`` build on: classifying a record via the precomputed
raw-value frozensets (``op in FORWARDING_OPCODE_VALUES``) instead of
constructing an ``Opcode`` enum per record (``Opcode(op) in
FORWARDING_OPCODES``) — ~19x faster per check on this machine, bar 3x.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.apps import get_app
from repro.codegen import compile_source
from repro.core import AutoCheck, AutoCheckConfig
from repro.ir.opcodes import (
    FORWARDING_OPCODES,
    FORWARDING_OPCODE_VALUES,
    Opcode,
)
from repro.tracer.driver import trace_to_file


@pytest.fixture(scope="module")
def bigarray_trace(tmp_path_factory):
    """A binary bigarray trace large enough for stable timing (~80k records)."""
    app = get_app("bigarray")
    source = app.source(size=4096, iterations=32, block=64)
    module = compile_source(source, module_name="bigarray")
    path = str(tmp_path_factory.mktemp("bench-engine") / "bigarray.btrace")
    size, _ = trace_to_file(module, path, fmt="binary")
    return {"path": path, "size": size, "spec": app.main_loop(source)}


def _analyze(path, spec):
    return AutoCheck(AutoCheckConfig(main_loop=spec), trace_path=path).run()


def _best_of(function, *args, rounds=3):
    """Best-of-N wall time with the GC paused."""
    best = float("inf")
    result = None
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            started = time.perf_counter()
            result = function(*args)
            best = min(best, time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return result, best


# --------------------------------------------------------------------------- #
# The walk
# --------------------------------------------------------------------------- #
def test_fused_pipeline_benchmark(benchmark, bigarray_trace):
    path, spec = bigarray_trace["path"], bigarray_trace["spec"]
    report = benchmark(_analyze, path, spec)
    assert report.critical_variables
    rate = report.timings.records_per_second("fused_analysis")
    print(f"\ncolumnar walk: {rate / 1000:.0f} krec/s")


# --------------------------------------------------------------------------- #
# Opcode-dispatch micro-optimization
# --------------------------------------------------------------------------- #
def test_raw_opcode_check_beats_enum_construction():
    """`op in FORWARDING_OPCODE_VALUES` vs `Opcode(op) in FORWARDING_OPCODES`
    — the per-record check the old dependency walk performed."""
    opcodes = [int(Opcode.LOAD), int(Opcode.STORE), int(Opcode.BITCAST),
               int(Opcode.ADD), int(Opcode.GETELEMENTPTR), int(Opcode.CALL),
               int(Opcode.ZEXT), int(Opcode.BR)] * 2000

    def enum_checks():
        return [Opcode(op) in FORWARDING_OPCODES for op in opcodes]

    def raw_checks():
        return [op in FORWARDING_OPCODE_VALUES for op in opcodes]

    old_result, old_seconds = _best_of(enum_checks, rounds=5)
    new_result, new_seconds = _best_of(raw_checks, rounds=5)
    assert old_result == new_result
    speedup = old_seconds / new_seconds
    print(f"\nopcode classification of {len(opcodes)} records: enum "
          f"{old_seconds * 1000:.1f}ms vs raw {new_seconds * 1000:.1f}ms "
          f"-> {speedup:.1f}x")
    assert speedup >= 3.0
