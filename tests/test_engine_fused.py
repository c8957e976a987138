"""The single-pass analysis engine: regions, equivalence, temporal
attribution, I/O.

Four properties pin the engine walk down:

1. **Regions** — the walk tags the before / inside / after regions of the
   main loop's dynamic extent on the fly, dispatches segments in stream
   order and fails loudly on corrupt opcodes.
2. **Full-report equivalence** — on every registered benchmark (plus the
   synthetic ``bigarray`` stress app), a version-1 binary file, re-encoded
   into memory record by record, walks to the same MLI sets, classified
   variables, DDG (edges *and* node kinds), R/W event sequences and region
   counts as the version-2 file streamed from disk.
3. **Temporal attribution** — a loop-region access to an MLI array byte
   range that a later callee ``Alloca`` shadows attributes to the MLI
   variable: the engine resolves every access at its own execution time,
   against the live map.  Post-hoc resolution against the end-of-walk map
   provably loses the event (the regression this file documents).
4. **One read of the file** — a trace file is read exactly once per
   analysis, whatever its encoding (the counting-reader tests).

Byte equality with the committed golden reports lives in
``tests/test_golden_reports.py``.
"""

from __future__ import annotations

import pytest
from conftest import make_alloca_record, make_operand, make_record as record

from repro.apps import all_apps, get_app
from repro.core import AutoCheck, AutoCheckConfig, MainLoopSpec
from repro.core.engine import (
    KIND_BY_OPCODE,
    KIND_ARITHMETIC,
    KIND_FORWARDING,
    REGION_NAMES,
    AnalysisEngine,
    AnalysisPass,
)
from repro.core.errors import AnalysisError
from repro.core.rwdeps import AccessKind
from repro.ir.opcodes import (
    ARITHMETIC_OPCODES,
    ARITHMETIC_OPCODE_VALUES,
    FORWARDING_OPCODES,
    FORWARDING_OPCODE_VALUES,
    MEMORY_OPCODES,
    MEMORY_OPCODE_VALUES,
    Opcode,
)
from repro.trace.binio import encode_trace, read_layout
from repro.trace.columnar import TraceColumnarReader
from repro.trace.records import Trace, TraceOperand


def mem(index, name, address, bits=32, value=0):
    return make_operand(index, name, address=address, bits=bits, value=value)


def reg(index, name, bits=32, value=0, address=None):
    return make_operand(index, name, address=address, bits=bits, value=value,
                        is_register=True)


def _blocks(trace):
    """``trace`` as the columnar blocks the pipeline walks."""
    buffer, _ = encode_trace(trace.module_name, trace.globals, trace.records)
    return TraceColumnarReader(buffer=buffer).iter_blocks()


def _events(events):
    return [(e.dyn_id, e.variable, e.name, e.kind, e.line, e.function,
             e.element_offset) for e in events]


# --------------------------------------------------------------------------- #
# Engine unit behaviour
# --------------------------------------------------------------------------- #
class TestEngineBasics:
    def test_opcode_kind_table_matches_enum_sets(self):
        """The raw-value opcode sets (the hot-path micro-optimization) and
        the dispatch table must track the enum-typed sets exactly."""
        assert ARITHMETIC_OPCODE_VALUES == frozenset(
            int(op) for op in ARITHMETIC_OPCODES)
        assert FORWARDING_OPCODE_VALUES == frozenset(
            int(op) for op in FORWARDING_OPCODES)
        assert MEMORY_OPCODE_VALUES == frozenset(
            int(op) for op in MEMORY_OPCODES)
        for op in Opcode:
            kind = KIND_BY_OPCODE[int(op)]
            assert (kind == KIND_FORWARDING) == (op in FORWARDING_OPCODES)
            assert (kind == KIND_ARITHMETIC) == (op in ARITHMETIC_OPCODES)

    def test_region_tagging_matches_loop_extent(self, example_trace,
                                                example_spec):
        """The loop's dynamic extent runs from the first to the last
        record of the loop function on a loop line."""
        loop_rows = [index for index, rec in enumerate(example_trace.records)
                     if rec.function == example_spec.function
                     and example_spec.contains_line(rec.line)]
        first, last = loop_rows[0], loop_rows[-1]
        engine = AnalysisEngine(example_spec, [])
        engine.add_globals(example_trace.globals)
        walk = engine.run_columnar(_blocks(example_trace))
        assert walk.before_count == first
        assert walk.inside_count == last - first + 1
        assert walk.after_count == len(example_trace.records) - last - 1
        assert walk.first_loop_dyn_id == example_trace.records[first].dyn_id
        assert walk.last_loop_dyn_id == example_trace.records[last].dyn_id
        assert walk.record_count == len(example_trace.records)

    def test_no_loop_records_raises(self, example_trace):
        spec = MainLoopSpec(function="nonexistent", start_line=1, end_line=2)
        engine = AnalysisEngine(spec, [])
        with pytest.raises(AnalysisError, match="main computation loop"):
            engine.run_columnar(_blocks(example_trace))

    def test_regions_dispatched_in_stream_order(self, example_trace,
                                                example_spec):
        seen = []
        transitions = []
        memory_ops = (int(Opcode.LOAD), int(Opcode.STORE))

        class Recorder(AnalysisPass):
            def consume_columns(self, block, start, stop, region, rows=None):
                dyn_id = block.dyn_id_col()
                for row in block.span_rows_matching(start, stop,
                                                    *memory_ops):
                    seen.append((int(dyn_id[row]), region))

            def on_region_change(self, region):
                transitions.append(REGION_NAMES[region])

        engine = AnalysisEngine(example_spec, [Recorder()])
        engine.add_globals(example_trace.globals)
        engine.run_columnar(_blocks(example_trace))
        assert seen
        assert [dyn_id for dyn_id, _ in seen] == sorted(
            dyn_id for dyn_id, _ in seen)
        regions = [region for _, region in seen]
        # before -> inside -> after, each contiguous
        assert regions == sorted(regions)
        assert transitions == ["before", "inside", "after"]

    def test_unknown_opcode_fails_loudly(self, example_spec):
        """A corrupt trace (opcode outside the enum) must not be silently
        analysed: the walk breaks out of its segment for the unknown
        opcode and fails on it."""
        bogus = record(1, Opcode.STORE, example_spec.function,
                       example_spec.start_line,
                       operands=[reg("1", "1"), mem("2", "x", 0x1000)])
        bogus.opcode = 999
        bogus.opcode_name = "Bogus"
        engine = AnalysisEngine(example_spec, [])
        with pytest.raises(AnalysisError, match="unknown opcode 999"):
            engine.run_columnar(_blocks(Trace(module_name="bogus",
                                              records=[bogus])))


# --------------------------------------------------------------------------- #
# Full-report equivalence: every input form walks to the same report
# --------------------------------------------------------------------------- #
def _ddg_shape(ddg):
    nodes = {node.key: node.kind for node in ddg.nodes()}
    return nodes, set(ddg.edges())


def _assert_reports_equal(got, reference):
    assert got.mli_variable_names == reference.mli_variable_names
    assert [(v.name, v.dependency) for v in got.critical_variables] == \
        [(v.name, v.dependency) for v in reference.critical_variables]
    assert got.dependency_string() == reference.dependency_string()
    assert got.induction_variable == reference.induction_variable
    assert _ddg_shape(got.complete_ddg) == _ddg_shape(reference.complete_ddg)
    assert _ddg_shape(got.contracted_ddg) == \
        _ddg_shape(reference.contracted_ddg)
    assert _events(got.rw_sequence.loop_events) == \
        _events(reference.rw_sequence.loop_events)
    assert _events(got.rw_sequence.post_loop_events) == \
        _events(reference.rw_sequence.post_loop_events)
    for attr in ("record_count", "before_count", "inside_count",
                 "after_count", "global_count"):
        assert getattr(got.trace_stats, attr) == \
            getattr(reference.trace_stats, attr)


def _equivalence_apps():
    return all_apps() + [get_app("bigarray")]


@pytest.mark.parametrize("app", _equivalence_apps(), ids=lambda app: app.name)
def test_fused_report_identical_on_all_apps(app, fleet, tmp_path):
    """Acceptance: a version-1 binary file (no footer digest) streams
    record by record into the in-memory encode; the fused walk over it
    yields the version-2 file's report — MLI sets, classified variables,
    DDG edges/kinds, R/W sequences — on every registered benchmark."""
    entry = fleet.apps[app.name]
    with open(entry.trace_path, "rb") as handle:
        data = bytearray(handle.read())
    data[4:6] = (1).to_bytes(2, "little")  # header version u16 -> 1
    path = str(tmp_path / f"{app.name}.v1.btrace")
    with open(path, "wb") as handle:
        handle.write(data)
    assert read_layout(path).content_digest is None

    report = AutoCheck(entry.config(), trace_path=path,
                       module=entry.module).run()
    _assert_reports_equal(report, entry.report)


# --------------------------------------------------------------------------- #
# Temporal attribution regression
# --------------------------------------------------------------------------- #
SHADOW_SPEC = MainLoopSpec(function="main", start_line=5, end_line=7)
ARR = 0x1000     # main's i32 arr[4]: bytes [0x1000, 0x1010)
ARR_KEY = f"arr@{ARR:#x}"


@pytest.fixture()
def shadow_trace():
    """Inside the loop, main reads ``arr[2]``; *later* in the same loop a
    callee's Alloca shadows exactly that byte range and the callee never
    returns within the analysed extent (``longjmp``-style control flow, or
    a crash-truncated trace — the natural inputs of a checkpointing tool).
    The read must still attribute to ``arr``: post-hoc resolution against
    the end-of-region map cannot recover it, because the shadowing
    activation is still open when the region ends."""
    records = [
        make_alloca_record("arr", ARR, count=4, bits=32, function="main",
                           dyn_id=1, line=2),
        # before the loop: write arr[0] (makes arr an MLI candidate)
        record(2, Opcode.STORE, "main", 3,
               operands=[TraceOperand(index="1", bits=32, value=1,
                                      is_register=False, name=""),
                         mem("2", "arr", ARR)]),
        # loop: read arr[2] — at this moment arr owns 0x1008
        record(3, Opcode.LOAD, "main", 5,
               operands=[mem("1", "arr", ARR + 8)], result=reg("r", "1")),
        # loop: call g, whose tmp Alloca shadows arr's bytes [0x1008,0x100c);
        # g never returns (longjmp back into the loop)
        record(4, Opcode.CALL, "main", 6,
               operands=[mem("p1", "n", None)], callee="g"),
        make_alloca_record("tmp", ARR + 8, count=1, bits=32, function="g",
                           dyn_id=5, line=30),
        # loop: write arr[0] (closes the loop extent; tmp is still live)
        record(6, Opcode.STORE, "main", 7,
               operands=[reg("1", "1"), mem("2", "arr", ARR)]),
    ]
    return Trace(module_name="shadow", records=records)


class TestTemporalAttribution:
    def test_old_post_hoc_extraction_loses_the_event(self, shadow_trace):
        """The documented failure mode of post-hoc extraction: resolved
        against the *end-of-walk* map — in which the never-closed
        activation's ``tmp`` still shadows ``arr[2]`` — the loop read of
        ``arr[2]`` attributes to ``tmp`` and would vanish from ``arr``'s
        R/W sequence (the walk, resolving at execution time, keeps it:
        see the next test)."""
        passes = AutoCheck(AutoCheckConfig(main_loop=SHADOW_SPEC),
                           trace=shadow_trace).walk()
        assert passes.mli.result().mli_keys() == [ARR_KEY]
        read = shadow_trace.records[2]
        assert read.opcode == int(Opcode.LOAD)
        post_hoc = passes.varmap.resolve(read.operands[0].address)
        assert post_hoc is not None and post_hoc.name == "tmp"
        assert post_hoc.key != ARR_KEY

    def test_engine_attributes_to_the_mli_variable(self, shadow_trace):
        report = AutoCheck(AutoCheckConfig(main_loop=SHADOW_SPEC),
                           trace=shadow_trace).run()
        events = report.rw_sequence.events_for(ARR_KEY)
        assert [(e.kind, e.element_offset) for e in events] == [
            (AccessKind.READ, 2), (AccessKind.WRITE, 0)]

    def test_classification_flips_from_missed_to_war(self, shadow_trace):
        """End to end: resolving against the post-walk map — in which the
        never-closed activation's ``tmp`` still shadows ``arr[2]`` — would
        lose the read and hide the read-before-overwrite pattern, missing
        ``arr``; the walk sees it and classifies ``arr`` as WAR (it must be
        checkpointed)."""
        report = AutoCheck(AutoCheckConfig(main_loop=SHADOW_SPEC),
                           trace=shadow_trace).run()
        assert report.find("arr") is not None
        assert report.find("arr").dependency.value == "WAR"

    def test_access_after_retired_shadow_resolves_again(self):
        """When the shadowing callee *does* return, retiring its Alloca
        restores the shadowed byte range to the still-live MLI array, so a
        later loop read of ``arr[2]`` attributes correctly too (regression:
        ``VariableMap.retire`` used to leave a permanent hole)."""
        records = [
            make_alloca_record("arr", ARR, count=4, bits=32, function="main",
                               dyn_id=1, line=2),
            record(2, Opcode.STORE, "main", 3,
                   operands=[TraceOperand(index="1", bits=32, value=1,
                                          is_register=False, name=""),
                             mem("2", "arr", ARR)]),
            record(3, Opcode.LOAD, "main", 5,
                   operands=[mem("1", "arr", ARR + 8)], result=reg("r", "1")),
            record(4, Opcode.CALL, "main", 6,
                   operands=[mem("p1", "n", None)], callee="g"),
            make_alloca_record("tmp", ARR + 8, count=1, bits=32,
                               function="g", dyn_id=5, line=30),
            record(6, Opcode.RET, "g", 31),
            # back in the loop after g returned: arr[2] must resolve again
            record(7, Opcode.LOAD, "main", 6,
                   operands=[mem("1", "arr", ARR + 8)], result=reg("r", "2")),
            record(8, Opcode.STORE, "main", 7,
                   operands=[reg("1", "1"), mem("2", "arr", ARR)]),
        ]
        trace = Trace(module_name="shadow-ret", records=records)
        report = AutoCheck(AutoCheckConfig(main_loop=SHADOW_SPEC),
                           trace=trace).run()
        events = report.rw_sequence.events_for(ARR_KEY)
        assert [(e.dyn_id, e.kind, e.element_offset) for e in events] == [
            (3, AccessKind.READ, 2), (7, AccessKind.READ, 2),
            (8, AccessKind.WRITE, 0)]


class TestNestedLoopFunction:
    """The main loop living in a *called* function: accesses to a live
    ancestor frame's locals resolve in the engine's shared map but must be
    rejected for MLI identification — candidates are globals and the
    loop function's own allocations (Challenge 2)."""

    SPEC = MainLoopSpec(function="compute", start_line=20, end_line=25)
    BUF = 0x2000   # main's buffer, passed to compute by pointer
    ACC = 0x3000   # compute's own accumulator

    def _trace(self):
        records = [
            make_alloca_record("buf", self.BUF, count=4, bits=32,
                               function="main", dyn_id=1, line=2),
            record(2, Opcode.CALL, "main", 3,
                   operands=[mem("p1", "p", None)], callee="compute"),
            make_alloca_record("acc", self.ACC, function="compute",
                               dyn_id=3, line=17),
            # compute, before its loop: touch both its own acc and main's buf
            record(4, Opcode.STORE, "compute", 18,
                   operands=[reg("1", "1"), mem("2", "acc", self.ACC)]),
            record(5, Opcode.STORE, "compute", 19,
                   operands=[reg("1", "1"), mem("2", "p", self.BUF)]),
            # the loop: read acc then buf, write acc
            record(6, Opcode.LOAD, "compute", 21,
                   operands=[mem("1", "acc", self.ACC)], result=reg("r", "2")),
            record(7, Opcode.LOAD, "compute", 22,
                   operands=[mem("1", "p", self.BUF)], result=reg("r", "3")),
            record(8, Opcode.STORE, "compute", 24,
                   operands=[reg("1", "2"), mem("2", "acc", self.ACC)]),
        ]
        return Trace(module_name="nested", records=records)

    def test_ancestor_frame_local_is_not_mli(self):
        report = AutoCheck(AutoCheckConfig(main_loop=self.SPEC),
                           trace=self._trace()).run()
        assert report.mli_variable_names == ["acc"]
        assert report.dependency_string() == "acc (WAR)"
        acc_key = f"acc@{self.ACC:#x}"
        assert _events(report.rw_sequence.loop_events) == [
            (6, acc_key, "acc", AccessKind.READ, 21, "compute", 0),
            (8, acc_key, "acc", AccessKind.WRITE, 24, "compute", 0)]


# --------------------------------------------------------------------------- #
# Counting reader: an analysis reads its trace file exactly once
# --------------------------------------------------------------------------- #
@pytest.fixture(params=["text", "binary"])
def example_trace_file(request, example_trace, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("engine") / f"ex.{request.param}")
    if request.param == "binary":
        from repro.trace import write_trace_file_binary

        write_trace_file_binary(example_trace, path)
    else:
        from repro.trace import write_trace_file

        write_trace_file(example_trace, path)
    return path


@pytest.fixture()
def file_read_counter(monkeypatch):
    """Count every record stream opened on a trace *file*: the text and
    binary record iterators (what the in-memory encode of a text file
    reads) and the columnar block stream of a file-backed reader."""
    counts = {"streams": 0}

    import repro.trace.binio as binio_module
    import repro.trace.columnar as columnar_module
    import repro.trace.textio as textio_module

    real_text_iter = textio_module.iter_trace_file_text
    real_reader_iter = binio_module.TraceBinaryReader.iter_records
    real_iter_blocks = columnar_module.TraceColumnarReader.iter_blocks

    def counting_text_iter(path, start_record=0):
        counts["streams"] += 1
        return real_text_iter(path, start_record=start_record)

    def counting_reader_iter(self, start_record=0, **kwargs):
        counts["streams"] += 1
        return real_reader_iter(self, start_record=start_record, **kwargs)

    def counting_iter_blocks(self, *args, **kwargs):
        if self.path is not None:
            counts["streams"] += 1
        return real_iter_blocks(self, *args, **kwargs)

    monkeypatch.setattr(textio_module, "iter_trace_file_text",
                        counting_text_iter)
    monkeypatch.setattr(binio_module.TraceBinaryReader, "iter_records",
                        counting_reader_iter)
    monkeypatch.setattr(columnar_module.TraceColumnarReader, "iter_blocks",
                        counting_iter_blocks)
    return counts


class TestSingleStreamedPass:
    def test_fused_streaming_streams_exactly_once(self, example_trace_file,
                                                  example_spec,
                                                  file_read_counter):
        report = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                           trace_path=example_trace_file).run()
        assert report.critical_variables
        assert file_read_counter["streams"] == 1
