"""Shared fixtures for the test suite.

Expensive artefacts (tracing + analysing the paper's example program, the
16-app bundled fleet and a couple of benchmarks) are produced once per
session and reused across test modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import pytest

from repro.apps import EXAMPLE_APP, get_app
from repro.apps.registry import app_names
from repro.codegen.lowering import compile_source
from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.pipeline import AutoCheck
from repro.core.report import AutoCheckReport
from repro.ir.module import Module
from repro.ir.opcodes import Opcode
from repro.trace.records import TraceOperand, TraceRecord
from repro.tracer.driver import run_and_trace, trace_to_file
from repro.tracer.interpreter import ExecutionResult

#: The bundled fleet: the 14 study benchmarks, the example and bigarray.
FLEET_NAMES = app_names(include_example=True, include_extras=True)


# --------------------------------------------------------------------------- #
# Synthetic trace-record factories shared by the address-resolution and
# dependency tests (import from conftest: `from conftest import make_record`).
# --------------------------------------------------------------------------- #
def make_operand(index, name="", *, address=None, is_register=False, bits=32,
                 value=0):
    return TraceOperand(index=index, bits=bits, value=value,
                        is_register=is_register, name=name, address=address)


def make_record(dyn_id, opcode, function, line, operands=(), result=None,
                callee=""):
    opcode = Opcode(opcode)
    return TraceRecord(
        dyn_id=dyn_id, opcode=int(opcode), opcode_name=opcode.mnemonic,
        function=function, line=line, column=0, bb_label=0, bb_id="0:0",
        operands=list(operands), result=result, callee=callee)


def make_alloca_record(name, address, *, count=1, bits=32, function="main",
                       dyn_id=1, line=0):
    return make_record(
        dyn_id, Opcode.ALLOCA, function, line,
        operands=[make_operand("1", "count", value=count)],
        result=make_operand("r", name, address=address, bits=bits))


@pytest.fixture(scope="session")
def example_source() -> str:
    return EXAMPLE_APP.source()


@pytest.fixture(scope="session")
def example_spec(example_source) -> MainLoopSpec:
    return EXAMPLE_APP.main_loop(example_source)


@pytest.fixture(scope="session")
def example_module(example_source):
    return compile_source(example_source, module_name="example")


@pytest.fixture(scope="session")
def example_trace_and_result(example_module):
    return run_and_trace(example_module, module_name="example")


@pytest.fixture(scope="session")
def example_trace(example_trace_and_result):
    return example_trace_and_result[0]


@pytest.fixture(scope="session")
def example_execution(example_trace_and_result):
    return example_trace_and_result[1]


@pytest.fixture(scope="session")
def example_walk(example_trace, example_spec, example_module):
    """The example's finalized pass states, from the walk ``run`` uses."""
    config = AutoCheckConfig(main_loop=example_spec)
    return AutoCheck(config, trace=example_trace, module=example_module).walk()


@pytest.fixture(scope="session")
def example_preprocessing(example_walk):
    return example_walk.mli.result()


@pytest.fixture(scope="session")
def example_report(example_trace, example_spec, example_module):
    config = AutoCheckConfig(main_loop=example_spec)
    return AutoCheck(config, trace=example_trace, module=example_module).run()


@pytest.fixture(scope="session")
def mg_analysis():
    """A small benchmark analysed end to end (used by checkpoint tests)."""
    from repro.experiments.common import analyze_app

    return analyze_app(get_app("mg"), params={"n": 24, "iters": 5})


@dataclass
class FleetApp:
    """One bundled app, traced once for the whole session."""

    name: str
    app: Any
    module: Module
    spec: MainLoopSpec
    #: the app's own AutoCheckConfig options (Table II settings)
    options: Dict[str, Any]
    #: binary trace at default parameters and the repository seed
    trace_path: str
    #: the traced run that wrote ``trace_path``
    result: ExecutionResult
    #: the cold report, analysed with the module through ``store_dir``
    report: AutoCheckReport

    def config(self, **overrides) -> AutoCheckConfig:
        return AutoCheckConfig(main_loop=self.spec,
                               **{**self.options, **overrides})


@dataclass
class Fleet:
    """The 16-app bundled fleet and the artifact store its reports warmed."""

    store_dir: str
    apps: Dict[str, FleetApp]


@pytest.fixture(scope="session")
def fleet(tmp_path_factory) -> Fleet:
    """Every bundled app compiled, traced to a binary file and analysed
    cold once — shared by the store, golden-report and necessity suites."""
    root = tmp_path_factory.mktemp("fleet")
    store_dir = str(root / "store")
    apps = {}
    for name in FLEET_NAMES:
        app = get_app(name)
        source = app.source()
        module = compile_source(source, module_name=app.name)
        spec = app.main_loop(source)
        trace_path = str(root / f"{name}.btrace")
        _, result = trace_to_file(module, trace_path, module_name=app.name,
                                  fmt="binary")
        options = dict(app.autocheck_options)
        config = AutoCheckConfig(main_loop=spec, use_cache=True,
                                 cache_dir=store_dir, **options)
        report = AutoCheck(config, trace_path=trace_path, module=module).run()
        assert report.cache_info is not None and not report.cache_info.hit
        apps[name] = FleetApp(name=name, app=app, module=module, spec=spec,
                              options=options, trace_path=trace_path,
                              result=result, report=report)
    return Fleet(store_dir=store_dir, apps=apps)


SIMPLE_LOOP_SOURCE = """\
int total;

int accumulate(int *data, int count) {
    int partial = 0;
    for (int i = 0; i < count; ++i) {
        partial = partial + data[i];
    }
    return partial;
}

int main() {
    int data[6];
    int limit = 4;
    total = 0;
    for (int i = 0; i < 6; ++i) {
        data[i] = i * 3;
    }
    for (int it = 0; it < limit; ++it) {
        data[it] = data[it] + 1;
        total = total + accumulate(data, 6);
    }
    print("total", total);
    return 0;
}
"""


@pytest.fixture(scope="session")
def simple_loop_source() -> str:
    return SIMPLE_LOOP_SOURCE


@pytest.fixture(scope="session")
def simple_loop_module(simple_loop_source):
    return compile_source(simple_loop_source, module_name="simple_loop")


@pytest.fixture(scope="session")
def simple_loop_trace(simple_loop_module):
    trace, result = run_and_trace(simple_loop_module, module_name="simple_loop")
    assert not result.failed
    return trace


# --------------------------------------------------------------------------- #
# Decode counting: intercept every path that turns trace bytes into records.
# Shared by the store suite (warm = cold, zero decodes) and the serve
# daemon's black-box suite (N coalesced requests = one engine walk).
# --------------------------------------------------------------------------- #
@pytest.fixture()
def decode_counter(monkeypatch):
    """Count decoded trace records, wherever the decode happens.

    Binary traces decode one record at a time through
    ``binio._decode_record`` (a ``Trace``'s records, the streaming
    iterator) and through the name ``repro.trace.columnar`` bound to it at
    import (``ColumnarBlock.record``, the lazy scope-record
    materialization), or in bulk through the columnar reader's block
    decode, which counts once per record in the block; text traces funnel
    through ``textio.iter_parsed_records``.  Each is patched where its
    callers look it up at call time, so every path is intercepted: a walk
    counts its records once in bulk and once more per scope record it
    materializes.
    """
    counts = {"records": 0}

    import repro.trace.binio as binio_module
    import repro.trace.columnar as columnar_module
    import repro.trace.textio as textio_module

    real_decode = binio_module._decode_record
    real_iter_parsed = textio_module.iter_parsed_records
    real_iter_blocks = columnar_module.TraceColumnarReader.iter_blocks

    def counting_decode(buf, position, strings):
        counts["records"] += 1
        return real_decode(buf, position, strings)

    def counting_iter_parsed(*args, **kwargs):
        for record in real_iter_parsed(*args, **kwargs):
            counts["records"] += 1
            yield record

    def counting_iter_blocks(self, *args, **kwargs):
        for block in real_iter_blocks(self, *args, **kwargs):
            counts["records"] += block.count
            yield block

    monkeypatch.setattr(binio_module, "_decode_record", counting_decode)
    monkeypatch.setattr(columnar_module, "_decode_record", counting_decode)
    monkeypatch.setattr(textio_module, "iter_parsed_records",
                        counting_iter_parsed)
    monkeypatch.setattr(columnar_module.TraceColumnarReader, "iter_blocks",
                        counting_iter_blocks)
    return counts


@pytest.fixture()
def footer_parses(monkeypatch):
    """Count binary trace footer parses (``binio._parse_footer`` calls):
    every layout read from bytes goes through it, whichever reader asks.
    Set ``footer_parses["count"] = 0`` after a test's set-up."""
    import repro.trace.binio as binio_module

    counts = {"count": 0}
    real_parse_footer = binio_module._parse_footer

    def counting_parse_footer(*args, **kwargs):
        counts["count"] += 1
        return real_parse_footer(*args, **kwargs)

    monkeypatch.setattr(binio_module, "_parse_footer", counting_parse_footer)
    return counts
