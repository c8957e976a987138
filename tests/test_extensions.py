"""Tests for the extension modules: checkpoint-interval models."""

import math

import pytest

from repro.checkpoint.interval import (
    checkpoint_cost_seconds,
    daly_interval,
    expected_waste_fraction,
    recommend_interval,
    young_interval,
)


class TestCheckpointCost:
    def test_cost_scales_with_size(self):
        assert checkpoint_cost_seconds(10**9, 1e9) == pytest.approx(1.0)
        assert checkpoint_cost_seconds(10**6, 1e9) == pytest.approx(1e-3)

    def test_latency_added(self):
        assert checkpoint_cost_seconds(0, 1e9, latency_seconds=0.5) == 0.5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            checkpoint_cost_seconds(100, 0)
        with pytest.raises(ValueError):
            checkpoint_cost_seconds(-1, 1e9)


class TestIntervalModels:
    def test_young_formula(self):
        assert young_interval(10.0, 7200.0) == pytest.approx(
            math.sqrt(2 * 10.0 * 7200.0))

    def test_daly_close_to_young_for_small_cost(self):
        cost, mtbf = 1.0, 24 * 3600.0
        assert daly_interval(cost, mtbf) == pytest.approx(
            young_interval(cost, mtbf), rel=0.05)

    def test_daly_caps_at_mtbf_for_huge_cost(self):
        assert daly_interval(10_000.0, 100.0) == 100.0

    def test_smaller_checkpoints_mean_shorter_intervals_and_less_waste(self):
        mtbf = 6 * 3600.0
        small = daly_interval(0.5, mtbf)
        large = daly_interval(300.0, mtbf)
        assert small < large
        assert expected_waste_fraction(small, 0.5, mtbf) < \
            expected_waste_fraction(large, 300.0, mtbf)

    def test_waste_fraction_validation(self):
        with pytest.raises(ValueError):
            expected_waste_fraction(0.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            young_interval(1.0, 0.0)

    def test_recommendation_from_autocheck_checkpoint(self, mg_analysis):
        checkpoint_bytes = mg_analysis.report.checkpoint_bytes()
        recommendation = recommend_interval("mg", checkpoint_bytes,
                                            mtbf_seconds=4 * 3600.0)
        assert recommendation.daly_seconds > 0
        assert recommendation.young_seconds > 0
        assert 0 < recommendation.waste_fraction < 1
        assert "mg" in recommendation.summary()

    def test_autocheck_beats_blcr_checkpoint_waste(self, mg_analysis):
        """The Table IV storage gap translates into lower expected waste."""
        from repro.checkpoint import BLCRModel

        mtbf = 2 * 3600.0
        bandwidth = 2e8  # 200 MB/s local SSD
        autocheck_bytes = mg_analysis.report.checkpoint_bytes()
        blcr_bytes = BLCRModel().checkpoint_bytes_from_result(mg_analysis.execution)
        auto = recommend_interval("mg", autocheck_bytes, mtbf,
                                  bandwidth_bytes_per_second=bandwidth)
        blcr = recommend_interval("mg-blcr", blcr_bytes, mtbf,
                                  bandwidth_bytes_per_second=bandwidth)
        assert auto.checkpoint_cost_seconds < blcr.checkpoint_cost_seconds
        assert auto.waste_fraction <= blcr.waste_fraction
