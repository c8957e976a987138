"""Span selection: reports do not depend on where blocks and spans cut.

The engine walks each block region by region in *spans*; every built-in
pass selects its rows of a span once and consumes one segment (the rows
between two scope records) of that selection at a time.  These tests pin
the properties that must survive that layout:

* **block and span boundaries** — the same trace read in small chunks
  (so spans, segments and the trailing partial index block are cut at
  many more places), or walked in spans of a few rows, gives the
  golden report bytes with the module, and the default walk's report on
  the module-less route that runs the dynamic induction probe;
* **unknown opcodes** — a corrupt opcode inside the loop, past the kind
  table's end or negative, still fails loudly through the engine;
* **blocks without operand slots** — a block whose records carry no
  operand at all (empty operand columns) still selects and walks;
* **custom span hooks** — a pass overriding ``select_span`` sees exactly
  the trace's own Load/Store records, in stream order and tagged with
  their regions, however the blocks are cut.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from repro.core import AutoCheck, AutoCheckConfig, MainLoopSpec
from repro.core import engine as engine_module
from repro.core.dependency import DependencyPass
from repro.core.engine import (
    KIND_LOAD,
    KIND_STORE,
    REGION_AFTER,
    REGION_BEFORE,
    REGION_INSIDE,
    AnalysisEngine,
    AnalysisPass,
    SpanSelection,
)
from repro.core.errors import AnalysisError
from repro.core.varmap import VariableMap
from repro.ir.opcodes import Opcode
from repro.store.serialize import canonical_report_json
from repro.trace.binio import encode_trace
from repro.trace.columnar import TraceColumnarReader
from repro.trace.records import Trace, TraceRecord
from repro.tracer.driver import run_and_trace

from test_golden_reports import GOLDEN

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)


def _sha(report) -> str:
    return hashlib.sha256(canonical_report_json(report).encode()).hexdigest()


def _run(entry, module=True) -> str:
    config = AutoCheckConfig(main_loop=entry.spec, **entry.options)
    return _sha(AutoCheck(config, trace_path=entry.trace_path,
                          module=entry.module if module else None).run())


@pytest.fixture()
def small_chunks(monkeypatch):
    """Make every analysis read its trace in chunks of ``records``."""
    def apply(records: int) -> None:
        monkeypatch.setattr(
            TraceColumnarReader, "iter_blocks",
            functools.partialmethod(TraceColumnarReader.iter_blocks,
                                    chunk_records=records))
    return apply


@pytest.mark.parametrize("name,records", [("example", 256), ("ep", 1024),
                                          ("comd", 1024)])
def test_small_chunks_give_the_golden_report(fleet, small_chunks, name,
                                             records):
    small_chunks(records)
    assert _run(fleet.apps[name]) == GOLDEN[name]["report_sha256"]


@pytest.mark.parametrize("name,rows", [("example", 7), ("ep", 61)])
def test_tiny_spans_give_the_golden_report(fleet, monkeypatch, name, rows):
    """Spans end mid-segment every few rows: the selections, their cuts
    and the split segments must still add up to the same report."""
    monkeypatch.setattr(engine_module, "_SPAN_ROWS", rows)
    assert _run(fleet.apps[name]) == GOLDEN[name]["report_sha256"]


def test_probe_route_is_chunking_independent(fleet, small_chunks):
    """Without the module the induction variable comes from the dynamic
    probe pass, which the golden runs never take."""
    entry = fleet.apps["ep"]
    default = _run(entry, module=False)
    small_chunks(1024)
    assert _run(entry, module=False) == default


@pytest.mark.parametrize("name,rows", [("example", 7), ("ep", 61)])
def test_tiny_spans_on_the_probe_route(fleet, monkeypatch, name, rows):
    """The probe reads whole spans' access tables: spans of a few rows
    must give the module-less route's report too."""
    entry = fleet.apps[name]
    default = _run(entry, module=False)
    monkeypatch.setattr(engine_module, "_SPAN_ROWS", rows)
    assert _run(entry, module=False) == default


@pytest.fixture(scope="module")
def ep_inside_load():
    """ep's in-memory trace and the index of a Load inside its loop."""
    from repro.apps import get_app
    from repro.codegen.lowering import compile_source

    app = get_app("ep")
    source = app.source()
    module = compile_source(source, module_name="ep")
    spec = app.main_loop(source)
    trace, _ = run_and_trace(module)
    loop_rows = [index for index, record in enumerate(trace.records)
                 if record.function == spec.function
                 and spec.contains_line(record.line)]
    first, last = loop_rows[0], loop_rows[-1]
    middle = (first + last) // 2
    index = next(index for index in range(middle, last)
                 if trace.records[index].opcode == _LOAD)
    return trace, index, spec, module, app.autocheck_options


@pytest.mark.parametrize("opcode", [999, -1])
def test_unknown_opcode_inside_the_loop_fails_loudly(ep_inside_load, opcode):
    trace, index, spec, module, options = ep_inside_load
    records = list(trace.records)
    records[index] = dataclasses.replace(records[index], opcode=opcode)
    edited = Trace(trace.module_name, trace.globals, records)
    config = AutoCheckConfig(main_loop=spec, **options)
    with pytest.raises(AnalysisError, match=f"unknown opcode {opcode} "):
        AutoCheck(config, trace=edited, module=module).run()


def test_block_without_operand_slots_selects_and_walks():
    """Records with no operand and no result leave a block's operand
    columns empty — here a chunk of four full index blocks and one that
    holds only the trailing partial one: the dependency selection must
    not index the empty ``op_name_id``, and the walk inspects every
    record."""
    kinds = (_LOAD, _STORE, int(Opcode.ADD), int(Opcode.GETELEMENTPTR))
    records = [TraceRecord(dyn_id=index + 1, opcode=kinds[index % 4],
                           opcode_name="Op", function="main", line=5,
                           column=0, bb_label=0, bb_id="0:0")
               for index in range(300)]
    buffer, _ = encode_trace("slotless", [], records)
    blocks = list(TraceColumnarReader(buffer=buffer).iter_blocks(
        chunk_records=256))
    assert [block.count for block in blocks] == [256, 44]
    assert all(not block.op_name_id.size for block in blocks)
    varmap = VariableMap()
    dependency = DependencyPass(varmap)
    engine = AnalysisEngine(MainLoopSpec("main", 1, 10), [dependency],
                            variable_map=varmap)
    walk = engine.run_columnar(blocks)
    assert walk.record_count == 300
    assert dependency.result().inspected_records == 300


class _SpanRecorder(AnalysisPass):
    """Span-hooked pass: selects every load and store once per span."""

    def __init__(self):
        self.seen = []
        self.segments = 0

    def select_span(self, table, region):
        memory = np.isin(table.kinds, (KIND_LOAD, KIND_STORE))
        return SpanSelection(np.flatnonzero(memory) + table.lo)

    def consume_selected(self, table, region, selected):
        self.segments += 1
        self.seen.extend((int(table.block.dyn_id[row]), region)
                         for row in selected)


def _tagged_accesses(trace, spec):
    """The trace's Load/Store records as (dyn id, region) pairs, tagged
    without the engine: the loop extent runs from the first to the last
    record of the spec function on a loop line."""
    records = trace.records
    loop_rows = [index for index, record in enumerate(records)
                 if record.function == spec.function
                 and spec.contains_line(record.line)]
    first, last = loop_rows[0], loop_rows[-1]
    return [(record.dyn_id,
             REGION_BEFORE if index < first
             else REGION_INSIDE if index <= last else REGION_AFTER)
            for index, record in enumerate(records)
            if record.opcode in (_LOAD, _STORE)]


@pytest.mark.parametrize("records", [256, 65536])
def test_span_hook_sees_the_segment_rows(example_trace, example_spec,
                                         records):
    buffer, _ = encode_trace(example_trace.module_name, example_trace.globals,
                             example_trace.records)
    per_span = _SpanRecorder()
    engine = AnalysisEngine(example_spec, [per_span])
    engine.add_globals(example_trace.globals)
    engine.run_columnar(TraceColumnarReader(buffer=buffer).iter_blocks(
        chunk_records=records))
    expected = _tagged_accesses(example_trace, example_spec)
    assert {region for _, region in expected} == {
        REGION_BEFORE, REGION_INSIDE, REGION_AFTER}
    assert per_span.seen == expected
    assert per_span.segments > 1
    assert [dyn for dyn, _ in per_span.seen] == sorted(
        dyn for dyn, _ in per_span.seen)
