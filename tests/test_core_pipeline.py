"""Unit/integration tests for the AutoCheck pipeline and its report object."""

import pytest

from repro.api import autocheck_module, autocheck_source
from repro.core import AutoCheck, AutoCheckConfig, MainLoopSpec
from repro.core.report import DependencyType
from repro.trace.textio import write_trace_file


class TestPipeline:
    def test_requires_trace_or_path(self, example_spec):
        with pytest.raises(ValueError):
            AutoCheck(AutoCheckConfig(main_loop=example_spec))

    def test_run_from_in_memory_trace(self, example_trace, example_spec):
        report = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                           trace=example_trace).run()
        assert set(report.names()) == {"r", "a", "sum", "it"}

    def test_run_from_trace_file(self, example_trace, example_spec, tmp_path):
        path = str(tmp_path / "ex.trace")
        write_trace_file(example_trace, path)
        report = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                           trace_path=path).run()
        assert set(report.names()) == {"r", "a", "sum", "it"}

    def test_induction_override(self, example_trace, example_spec):
        config = AutoCheckConfig(main_loop=example_spec, induction_variable="r")
        report = AutoCheck(config, trace=example_trace).run()
        assert report.induction_variable == "r"
        assert report.find("r").dependency is DependencyType.INDEX

    def test_dynamic_induction_fallback_without_module(self, example_trace,
                                                       example_spec):
        # No module handed in -> the pipeline falls back to dynamic detection
        # on the trace and still identifies `it`.
        report = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                           trace=example_trace).run()
        assert report.induction_variable == "it"

    def test_static_induction_with_module(self, example_trace, example_spec,
                                          example_module):
        report = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                           trace=example_trace, module=example_module).run()
        assert report.induction_variable == "it"

    def test_timings_cover_three_stages(self, example_report):
        # One engine walk hosts both pre-processing and the dependency
        # analysis; "preprocessing" is opening the input.
        timings = example_report.timings
        stages = set(timings.stages)
        top_level = {name for name in stages if "." not in name}
        assert top_level == {"preprocessing", "fused_analysis",
                             "identify_variables"}
        # The walk's sub-stages nest inside fused_analysis (the module
        # gives the induction variable, so no probe ran).
        assert stages - top_level == {"walk.decode", "walk.scope",
                                      "walk.mli", "walk.dependency",
                                      "walk.rw"}
        assert sum(timings.get(name) for name in stages - top_level) <= \
            timings.get("fused_analysis")
        assert timings.total == pytest.approx(
            sum(timings.get(name) for name in top_level))
        assert timings.total > 0

    def test_fused_walk_reports_throughput(self, example_report,
                                           example_trace):
        timings = example_report.timings
        assert timings.get_count("fused_analysis") == len(example_trace.records)
        rate = timings.records_per_second("fused_analysis")
        assert rate is None or rate > 0

    def test_trace_stats(self, example_report, example_trace):
        stats = example_report.trace_stats
        assert stats.record_count == len(example_trace.records)
        assert stats.before_count + stats.inside_count + stats.after_count == \
            stats.record_count
        assert stats.inside_count > stats.after_count


class TestReport:
    def test_dependency_string_format(self, example_report):
        text = example_report.dependency_string()
        assert "r (WAR)" in text
        assert "it (Index)" in text

    def test_by_type_grouping(self, example_report):
        grouped = example_report.by_type()
        assert [v.name for v in grouped[DependencyType.WAR]] == ["r"]
        assert [v.name for v in grouped[DependencyType.RAPO]] == ["a"]

    def test_find_missing_returns_none(self, example_report):
        assert example_report.find("nonexistent") is None

    def test_summary_mentions_all_critical_variables(self, example_report):
        summary = example_report.summary()
        for variable in example_report.critical_variables:
            assert variable.name in summary
        assert "Checkpoint size" in summary

    def test_str_of_critical_variable(self, example_report):
        assert str(example_report.find("r")) == "r (WAR)"


class TestConvenienceAPI:
    def test_autocheck_source_end_to_end(self, example_source, example_spec):
        report = autocheck_source(example_source, example_spec)
        assert set(report.names()) == {"r", "a", "sum", "it"}

    def test_autocheck_module_end_to_end(self, example_module, example_spec):
        report = autocheck_module(example_module, example_spec)
        assert set(report.names()) == {"r", "a", "sum", "it"}

    def test_seed_does_not_change_result(self, example_source, example_spec):
        first = autocheck_source(example_source, example_spec, seed=1)
        second = autocheck_source(example_source, example_spec, seed=99)
        assert first.dependency_string() == second.dependency_string()

    def test_simple_loop_program(self, simple_loop_source):
        """A second, structurally different program: both the in-place
        updated array `data` and the accumulator `total` are read before
        being overwritten (WAR), while the read-only bound `limit` is not
        critical."""
        source = simple_loop_source
        lines = source.splitlines()
        start = next(i + 1 for i, line in enumerate(lines)
                     if "for (int it" in line)
        end = next(i + 1 for i, line in enumerate(lines)
                   if line.strip() == "}" and i > start)
        report = autocheck_source(source, MainLoopSpec("main", start, end))
        got = {v.name: v.dependency.value for v in report.critical_variables}
        assert got["total"] == "WAR"
        assert got["data"] == "WAR"
        assert got["it"] == "Index"
        assert "limit" not in got
