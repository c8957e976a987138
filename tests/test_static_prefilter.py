"""Tests for the static engine prefilter.

The load-bearing invariant is **report equality**: a prefiltered run must
serialize to exactly the unfiltered report (minus timings and the
prefilter stats block) while skipping a positive number of records.
Beyond that, the fast dispatch plan (`make_skip_plan`) must agree with
the reference `should_skip` semantics record-for-record, and the engine
must take the same decisions through the structured id-table path and
the duck-typed fallback path.
"""

from __future__ import annotations

import pytest

from repro.apps import get_app
from repro.codegen.lowering import compile_source
from repro.core.config import AutoCheckConfig
from repro.core.errors import AnalysisError
from repro.core.engine import (
    KIND_BY_OPCODE,
    REGION_AFTER,
    REGION_BEFORE,
    AnalysisEngine,
    AnalysisPass,
)
from repro.core.pipeline import AutoCheck
from repro.static.prefilter import (
    ALWAYS_SKIP_OPCODES,
    StaticPrefilter,
    build_prefilter,
)
from repro.static.summary import analyze_module
from repro.store.serialize import report_to_dict
from repro.trace.binio import encode_trace
from repro.trace.columnar import TraceColumnarReader
from repro.tracer.driver import run_and_trace

APPS_UNDER_TEST = ["example", "bigarray", "hpccg"]


def _comparable(report) -> dict:
    data = report_to_dict(report)
    data.pop("timings", None)
    data.pop("prefilter", None)
    return data


def _app_setup(name):
    app = get_app(name)
    source = app.source()
    module = compile_source(source, module_name=name)
    spec = app.main_loop(source)
    trace, result = run_and_trace(module, module_name=name, seed=7)
    assert not result.failed
    options = dict(app.autocheck_options)
    return app, module, spec, trace, options


class TestReportEquality:
    @pytest.mark.parametrize("name", APPS_UNDER_TEST)
    def test_prefiltered_report_is_identical(self, name):
        _, module, spec, trace, options = _app_setup(name)
        plain = AutoCheck(AutoCheckConfig(main_loop=spec, **options),
                          trace=trace, module=module).run()
        filtered = AutoCheck(
            AutoCheckConfig(main_loop=spec, static_prefilter=True, **options),
            trace=trace, module=module).run()
        assert _comparable(plain) == _comparable(filtered)
        assert filtered.prefilter_info is not None
        assert filtered.prefilter_info.skipped_records > 0
        assert plain.prefilter_info is None

    def test_prefilter_info_lands_in_summary(self):
        _, module, spec, trace, options = _app_setup("example")
        filtered = AutoCheck(
            AutoCheckConfig(main_loop=spec, static_prefilter=True, **options),
            trace=trace, module=module).run()
        assert "prefilter" in filtered.summary().lower()


class TestSkipPlanSemantics:
    def test_plan_agrees_with_should_skip_on_real_records(self):
        """Fast plan == reference semantics, record for record, over every
        outside region."""
        _, module, spec, trace, options = _app_setup("example")
        analysis = analyze_module(module, spec=spec)
        prefilter = build_prefilter(analysis)
        always, memory_skip = prefilter.make_skip_plan()
        assert always == ALWAYS_SKIP_OPCODES
        for record in trace.records:
            for region in (REGION_BEFORE, REGION_AFTER):
                reference = prefilter.should_skip(record, region)
                if record.opcode in always:
                    fast = True
                else:
                    fast = memory_skip(record, region)
                assert fast == reference, (
                    f"plan diverges on #{record.dyn_id} "
                    f"({record.opcode_name}) in region {region}")

    def test_non_memory_opcodes_always_skip(self):
        _, module, spec, trace, options = _app_setup("example")
        prefilter = build_prefilter(analyze_module(module, spec=spec))
        for record in trace.records:
            if record.opcode in ALWAYS_SKIP_OPCODES:
                assert prefilter.should_skip(record, REGION_BEFORE)

    def test_build_prefilter_requires_spec(self, example_module):
        analysis = analyze_module(example_module)  # no spec
        with pytest.raises(ValueError, match="spec"):
            build_prefilter(analysis)

    def test_fingerprint_matches_analysis(self, example_module, example_spec):
        analysis = analyze_module(example_module, spec=example_spec)
        prefilter = build_prefilter(analysis)
        assert prefilter.fingerprint == analysis.fingerprint()

    def test_candidate_bearing_names_never_enter_skip_tables(
            self, example_module, example_spec):
        analysis = analyze_module(example_module, spec=example_spec)
        prefilter = build_prefilter(analysis)
        candidate_names = analysis.candidate_names
        for names in prefilter.skip_names.values():
            assert not (names & candidate_names)


class _CountingPass(AnalysisPass):
    """Subscribes to every record kind and counts dispatched records."""

    column_kinds = frozenset(KIND_BY_OPCODE.values())

    def __init__(self):
        self.dispatched = 0

    def _count(self, record, region):
        self.dispatched += 1

    on_alloca = on_call = on_ret = _count

    def consume_columns(self, block, start, stop, region, rows=None):
        self.dispatched += stop - start if rows is None else len(rows)


def _blocks(trace):
    buffer, _ = encode_trace(trace.module_name, trace.globals, trace.records)
    return TraceColumnarReader(buffer=buffer).iter_blocks()


class _ShouldSkipOnly:
    """A duck-typed filter without `make_skip_plan` — exercises the
    engine's fallback path."""

    def __init__(self, prefilter: StaticPrefilter):
        self.should_skip = prefilter.should_skip
        self.fingerprint = prefilter.fingerprint


class TestEngineDispatch:
    def test_fast_and_fallback_paths_agree(self):
        _, module, spec, trace, options = _app_setup("example")
        analysis = analyze_module(module, spec=spec)
        prefilter = build_prefilter(analysis)

        def drive(filter_object):
            counting = _CountingPass()
            engine = AnalysisEngine(spec, [counting],
                                    prefilter=filter_object)
            engine.add_globals(trace.globals)
            engine.run_columnar(_blocks(trace))
            return counting.dispatched, engine.skipped_records

        full_dispatched, full_skipped = drive(None)
        fast_dispatched, fast_skipped = drive(prefilter)
        slow_dispatched, slow_skipped = drive(_ShouldSkipOnly(prefilter))
        assert fast_skipped == slow_skipped > 0
        assert fast_dispatched == slow_dispatched
        assert fast_dispatched + fast_skipped == full_dispatched
        assert full_skipped == 0

    def test_inside_region_records_are_never_skipped(self):
        _, module, spec, trace, options = _app_setup("example")
        analysis = analyze_module(module, spec=spec)
        prefilter = build_prefilter(analysis)
        counting = _CountingPass()
        engine = AnalysisEngine(spec, [counting], prefilter=prefilter)
        engine.add_globals(trace.globals)
        walk = engine.run_columnar(_blocks(trace))
        # Every skipped record lies outside the loop extent.
        assert engine.skipped_records <= (walk.before_count
                                          + walk.after_count)


class TestConfigGating:
    def test_prefilter_requires_module(self, example_spec, example_trace):
        config = AutoCheckConfig(main_loop=example_spec,
                                 static_prefilter=True)
        with pytest.raises(AnalysisError, match="module"):
            AutoCheck(config, trace=example_trace).run()
