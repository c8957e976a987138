"""Unit tests for the utility helpers."""

import time

import pytest

from repro.util import (
    DeterministicRNG,
    Stopwatch,
    Timer,
    TimingBreakdown,
    format_bytes,
    format_seconds,
    get_logger,
    render_table,
)


class TestTiming:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        watch.start()
        time.sleep(0.01)
        first = watch.stop()
        watch.start()
        time.sleep(0.01)
        second = watch.stop()
        assert second > first > 0

    def test_stopwatch_reset(self):
        watch = Stopwatch()
        watch.start()
        watch.stop()
        watch.reset()
        assert watch.elapsed == 0.0

    def test_stopwatch_elapsed_while_running(self):
        watch = Stopwatch().start()
        time.sleep(0.005)
        assert watch.elapsed > 0

    def test_timer_context_manager(self):
        with Timer() as timer:
            time.sleep(0.005)
        assert timer.elapsed >= 0.004

    def test_breakdown_stages_and_total(self):
        breakdown = TimingBreakdown()
        with breakdown.stage("a"):
            time.sleep(0.002)
        breakdown.add("b", 0.5)
        breakdown.add("b", 0.25)
        assert breakdown.get("b") == pytest.approx(0.75)
        assert breakdown.get("missing") == 0.0
        assert breakdown.total == pytest.approx(breakdown.get("a") + 0.75)
        assert breakdown.as_dict()["total"] == pytest.approx(breakdown.total)

    def test_breakdown_total_counts_top_level_stages_only(self):
        """Dotted sub-stages nest inside their parent stage: the total
        (and the report summary's total) counts each interval once."""
        breakdown = TimingBreakdown()
        breakdown.add("fused_analysis", 2.0)
        breakdown.add("walk.mli", 0.5)
        breakdown.add("walk.dependency", 1.0)
        breakdown.add("identify_variables", 0.25)
        assert breakdown.total == pytest.approx(2.25)
        assert breakdown.as_dict()["total"] == pytest.approx(2.25)
        assert breakdown.get("walk.mli") == 0.5

    def test_breakdown_merge(self):
        first = TimingBreakdown({"x": 1.0})
        second = TimingBreakdown({"x": 2.0, "y": 3.0})
        merged = first.merge(second)
        assert merged.get("x") == 3.0
        assert merged.get("y") == 3.0
        assert first.get("x") == 1.0  # originals untouched

    def test_breakdown_record_counts_and_rate(self):
        breakdown = TimingBreakdown()
        breakdown.add("walk", 2.0)
        breakdown.add_count("walk", 500)
        breakdown.add_count("walk", 500)
        assert breakdown.get_count("walk") == 1000
        assert breakdown.get_count("missing") == 0
        assert breakdown.records_per_second("walk") == pytest.approx(500.0)
        # stages without a count (or without elapsed time) have no rate
        breakdown.add("untimed", 1.0)
        assert breakdown.records_per_second("untimed") is None
        breakdown.add_count("zero", 100)
        assert breakdown.records_per_second("zero") is None

    def test_breakdown_merge_includes_counts(self):
        first = TimingBreakdown({"x": 1.0}, {"x": 10})
        second = TimingBreakdown({"x": 1.0}, {"x": 30})
        merged = first.merge(second)
        assert merged.get_count("x") == 40
        assert first.get_count("x") == 10  # originals untouched


class TestRNG:
    def test_reproducibility(self):
        assert [DeterministicRNG(5).next_uint() for _ in range(3)] == \
               [DeterministicRNG(5).next_uint() for _ in range(3)]

    def test_reseed(self):
        rng = DeterministicRNG(5)
        first = [rng.next_uint() for _ in range(3)]
        rng.reseed(5)
        assert [rng.next_uint() for _ in range(3)] == first

    def test_next_double_range(self):
        rng = DeterministicRNG(11)
        values = [rng.next_double() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 150


class TestFormatting:
    @pytest.mark.parametrize("value,expected", [
        (0, "0.00 B"),
        (512, "512.00 B"),
        (2048, "2.00 KB"),
        (5 * 1024 * 1024, "5.00 MB"),
        (3 * 1024 ** 3, "3.00 GB"),
    ])
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    def test_format_seconds_ranges(self):
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(0.05).endswith("ms")
        assert format_seconds(3.2).endswith(" s")
        assert format_seconds(400).endswith("min")

    def test_render_table_alignment(self):
        table = render_table(("name", "value"), [("a", 1), ("long-name", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # all same width
        assert "long-name" in table

    def test_logger_namespacing(self):
        logger = get_logger("core.test")
        assert logger.name == "repro.core.test"
        direct = get_logger("repro.other")
        assert direct.name == "repro.other"
