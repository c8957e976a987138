"""Span selection: reports do not depend on where blocks and spans cut.

The engine walks each block region by region in *spans*; every built-in
pass selects its rows of a span once and consumes one segment (the rows
between two scope records) of that selection at a time.  These tests pin
the properties that must survive that layout:

* **block and span boundaries** — the same trace read in small chunks
  (so spans, segments and the pure-Python-scanned trailing block are cut
  at many more places), or walked in spans of a few rows, gives the
  golden report bytes, with the module and on the module-less route that
  runs the dynamic induction probe;
* **unknown opcodes** — a corrupt opcode inside the loop, past the kind
  tables' end or negative, still fails loudly through the engine;
* **no numpy** — with numpy unimportable, the list fallbacks of the
  decoder, the engine and every pass give the golden report bytes;
* **custom span hooks** — a pass overriding ``select_span`` sees exactly
  the rows a per-segment ``consume_columns`` pass sweeps, in order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.core import AutoCheck, AutoCheckConfig
from repro.core import engine as engine_module
from repro.core.engine import AnalysisEngine, AnalysisPass, SpanSelection
from repro.core.errors import AnalysisError
from repro.ir.opcodes import Opcode
from repro.store.serialize import canonical_report_json
from repro.trace.binio import encode_trace
from repro.trace.columnar import TraceColumnarReader
from repro.tracer.driver import run_and_trace

from test_golden_reports import GOLDEN

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

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
    record = trace.records[index]
    saved = record.opcode
    record.opcode = opcode
    try:
        config = AutoCheckConfig(main_loop=spec, **options)
        with pytest.raises(AnalysisError, match=f"unknown opcode {opcode} "):
            AutoCheck(config, trace=trace, module=module).run()
    finally:
        record.opcode = saved


_NUMPY_FREE_SCRIPT = """
import hashlib, json, sys
sys.modules["numpy"] = None
from repro.apps import get_app
from repro.core import AutoCheck, AutoCheckConfig
from repro.core import engine
from repro.store.serialize import canonical_report_json
from repro.trace import columnar
assert engine._np is None and columnar._np is None
out = {}
for name, path in json.loads(sys.argv[1]).items():
    app = get_app(name)
    source = app.source()
    from repro.codegen.lowering import compile_source
    module = compile_source(source, module_name=name)
    config = AutoCheckConfig(main_loop=app.main_loop(source),
                             **app.autocheck_options)
    report = AutoCheck(config, trace_path=path, module=module).run()
    out[name] = hashlib.sha256(
        canonical_report_json(report).encode()).hexdigest()
print(json.dumps(out))
"""


def test_numpy_free_walk_gives_the_golden_reports(fleet):
    names = ("example", "is", "ep")
    paths = {name: fleet.apps[name].trace_path for name in names}
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT, json.dumps(paths)],
        env=env, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.strip().splitlines()[-1])
    assert got == {name: GOLDEN[name]["report_sha256"] for name in names}


class _SegmentRecorder(AnalysisPass):
    """Per-segment pass: sweeps each segment's loads and stores."""

    def __init__(self):
        self.seen = []

    def consume_columns(self, block, start, stop, region, rows=None):
        dyn_id = block.dyn_id_col()
        for row in block.span_rows_matching(start, stop, _LOAD, _STORE):
            self.seen.append((int(dyn_id[row]), region))


class _SpanRecorder(AnalysisPass):
    """Span-hooked pass: selects the same rows once per span."""

    def __init__(self):
        self.seen = []
        self.segments = 0

    def select_span(self, block, lo, hi, region):
        return SpanSelection(block.match_rows(lo, hi, (_LOAD, _STORE)))

    def consume_selected(self, block, region, selected):
        dyn_id = block.dyn_id_col()
        self.segments += 1
        self.seen.extend((int(dyn_id[row]), region) for row in selected)


@pytest.mark.parametrize("records", [256, 65536])
def test_span_hook_sees_the_segment_rows(example_trace, example_spec,
                                         records):
    buffer, _ = encode_trace(example_trace.module_name, example_trace.globals,
                             example_trace.records)
    per_segment, per_span = _SegmentRecorder(), _SpanRecorder()
    engine = AnalysisEngine(example_spec, [per_segment, per_span])
    engine.add_globals(example_trace.globals)
    engine.run_columnar(TraceColumnarReader(buffer=buffer).iter_blocks(
        chunk_records=records))
    assert per_span.seen == per_segment.seen
    assert per_span.segments > 1
    assert [dyn for dyn, _ in per_span.seen] == sorted(
        dyn for dyn, _ in per_span.seen)
