"""Extension experiments (paper §6 future work), smoke level."""

import dataclasses

import pytest

from repro.acoustics.rir import RirSettings
from repro.eval.experiments import (
    bench_scenario,
    run_ear_model,
    run_mobility,
    run_multisource,
)


@pytest.fixture(scope="module")
def fast_bench():
    scen = bench_scenario()
    return dataclasses.replace(scen, rir_settings=RirSettings(max_order=2))


class TestMultiSource:
    @pytest.fixture(scope="class")
    def result(self):
        return run_multisource(duration_s=6.0)

    def test_multi_reference_clearly_wins(self, result):
        assert result.multi_vs_single_db < -5.0

    def test_both_conditions_cancel_something(self, result):
        assert result.total_db["single reference"] < -2.0
        assert result.total_db["multi reference"] < -12.0

    def test_report_renders(self, result):
        text = result.report()
        assert "multi reference" in text and "single reference" in text


class TestMobility:
    @pytest.fixture(scope="class")
    def result(self, fast_bench):
        return run_mobility(duration_s=10.0, scenario=fast_bench)

    def test_mobility_costs_cancellation(self, result):
        assert result.mobility_cost_db > 0.5

    def test_tracking_step_recovers(self, result):
        assert result.tracking_recovery_db < -0.3

    def test_report_renders(self, result):
        assert "mobility" in result.report()


class TestEarModel:
    @pytest.fixture(scope="class")
    def result(self, fast_bench):
        return run_ear_model(duration_s=6.0, scenario=fast_bench)

    def test_mismatch_costs_cancellation(self, result):
        assert result.mismatch_cost_db > 2.0

    def test_cost_grows_with_frequency(self, result):
        drum = result.curves["at eardrum"]
        mic = result.curves["at error mic"]
        low_gap = drum.mean_db(100, 800) - mic.mean_db(100, 800)
        high_gap = drum.mean_db(2500, 3800) - mic.mean_db(2500, 3800)
        assert high_gap > low_gap

    def test_calibration_recovers(self, result):
        assert abs(result.calibrated_mean_db - result.mic_mean_db) < 1.0

    def test_report_renders(self, result):
        assert "eardrum" in result.report()


class TestEdge:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.eval.experiments import run_edge

        return run_edge(duration_s=4.0, client_counts=(2, 6))

    def test_duty_shrinks_past_capacity(self, result):
        assert result.by_count[2].adaptation_duty == 1.0
        assert result.by_count[6].adaptation_duty < 0.4

    def test_graceful_degradation(self, result):
        assert 0.0 < result.degradation_db() < 10.0
        assert result.by_count[6].mean_cancellation_db() < -6.0

    def test_report_renders(self, result):
        assert "edge service" in result.report()

    @pytest.mark.parametrize("n_clients", [0, 7])
    def test_layout_refuses_client_counts_it_cannot_seat(self, n_clients):
        from repro.errors import ConfigurationError
        from repro.eval.experiments.ext_edge import edge_hall_layout

        with pytest.raises(ConfigurationError, match="1..6 clients"):
            edge_hall_layout(n_clients)


class TestWideband:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.eval.experiments import run_wideband

        return run_wideband(duration_s=5.0)

    def test_cancels_above_4khz(self, result):
        assert result.band_means_db[(4000, 6000)] < -8.0
        assert result.band_means_db[(6000, 8000)] < -6.0

    def test_classic_band_intact(self, result):
        assert result.band_means_db[(0, 2000)] < -10.0

    def test_report_renders(self, result):
        assert "4 kHz cap" in result.report()
