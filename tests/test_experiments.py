"""Tests for the experiment harnesses (Tables II/III/IV, validation, Fig. 5)."""

import pytest

from repro.experiments import (
    format_table2,
    format_table3,
    format_table4,
    format_validation,
    run_figure5,
    run_table2,
    run_table3,
    run_table4,
    run_validation,
)
from repro.experiments.common import analyze_app, variable_sizes, run_untraced
from repro.apps import get_app

#: Small subset so the experiment harness tests stay quick.
SUBSET = ["himeno", "mg"]


@pytest.fixture(scope="module")
def table2_rows(tmp_path_factory):
    trace_dir = str(tmp_path_factory.mktemp("table2"))
    return run_table2(apps=SUBSET, trace_dir=trace_dir)


class TestTable2:
    def test_row_per_app(self, table2_rows):
        assert [row.name for row in table2_rows] == ["Himeno", "MG (NPB)"]

    def test_rows_match_paper(self, table2_rows):
        assert all(row.matches_paper for row in table2_rows)

    def test_trace_files_measured(self, table2_rows):
        for row in table2_rows:
            assert row.trace_bytes > 1000
            assert row.trace_generation_seconds > 0
            assert row.loc > 10

    def test_mclr_format(self, table2_rows):
        for row in table2_rows:
            start, end = row.mclr.split("-")
            assert int(start) < int(end)

    def test_formatting_contains_critical_variables(self, table2_rows):
        text = format_table2(table2_rows)
        assert "p (WAR)" in text
        assert "u (WAR)" in text
        assert "Matches paper" in text


class TestTable3:
    def test_breakdown_columns_positive(self):
        rows = run_table3(apps=["himeno"])
        row = rows[0]
        assert row.trace_generation > 0
        assert row.walk > 0
        # the paper's pre-processing and dependency-analysis columns are
        # the walk's MLI and DDG passes
        assert 0 < row.preprocessing < row.walk
        assert 0 < row.dependency_analysis < row.walk
        assert row.identify_variables >= 0
        assert row.total >= row.walk
        assert row.record_count > 0
        assert row.records_per_second > 0
        text = format_table3(rows)
        assert "Walk (s)" in text
        assert "Pre-processing (s)" in text
        assert "Dependency Analysis (s)" in text
        assert "krec/s" in text


class TestTable4:
    def test_blcr_dominates_autocheck(self):
        rows = run_table4(apps=SUBSET, use_large_inputs=False)
        for row in rows:
            assert row.blcr_bytes > row.autocheck_bytes
            assert row.ratio > 10
            assert row.critical_variables
        text = format_table4(rows)
        assert "BLCR" in text and "AutoCheck" in text

    def test_large_inputs_grow_autocheck_checkpoint(self):
        small = run_table4(apps=["mg"], use_large_inputs=False)[0]
        large = run_table4(apps=["mg"], use_large_inputs=True)[0]
        assert large.autocheck_bytes > small.autocheck_bytes


class TestValidationHarness:
    def test_validation_rows(self):
        rows = run_validation(apps=["mg"], fail_at_iteration=3)
        row = rows[0]
        assert row.restart_successful
        assert not row.false_positives
        text = format_validation(rows)
        assert "success" in text


class TestFigure5:
    def test_figure5_artifacts(self):
        result = run_figure5()
        assert set(result.mli_variables) == {"a", "b", "sum", "s", "r"}
        assert result.critical_variables == {
            "r": "WAR", "a": "RAPO", "sum": "Outcome", "it": "Index"}
        assert ("a", "sum") in result.contracted_edges
        assert result.complete_nodes > len(result.contracted_nodes)
        assert "s-Write" in result.rw_sequence
        summary = result.summary()
        assert "Critical variables" in summary


class TestCommonHelpers:
    def test_variable_sizes_lookup(self):
        app = get_app("himeno")
        analysis = analyze_app(app)
        execution = run_untraced(app)
        sizes = variable_sizes(analysis.module, execution,
                               ["p", "n", "nonexistent"])
        assert sizes["p"] == 8 * 8 * 8   # 8x8 doubles
        assert sizes["n"] in (4, 8)      # scalar int (stack slots are 8-aligned)
        assert sizes["nonexistent"] == 0

    def test_mismatch_description_exact_match(self):
        analysis = analyze_app(get_app("himeno"))
        assert analysis.matches_expected
        assert analysis.mismatch_description() == "exact match"
