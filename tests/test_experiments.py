"""Experiment runners — fast smoke runs asserting each figure's claim.

Durations are reduced relative to the benchmarks, but every qualitative
property the paper's figure demonstrates is asserted here.
"""

import dataclasses

import numpy as np
import pytest

from repro.acoustics import Point
from repro.acoustics.rir import RirSettings
from repro.eval.experiments import (
    bench_scenario,
    run_convergence,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
    run_fig18,
    run_fig19,
    run_timing,
)


@pytest.fixture(scope="module")
def fast_bench():
    """The bench with first-order reflections only (5x faster RIRs)."""
    scen = bench_scenario()
    return dataclasses.replace(scen, rir_settings=RirSettings(max_order=2))


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self, fast_bench):
        return run_fig12(duration_s=6.0, scenario=fast_bench)

    def test_bose_active_only_low_frequency(self, result):
        bose = result.curves["Bose_Active"]
        assert bose.mean_db(0, 800) < -8.0
        assert bose.mean_db(2500, 4000) > -1.0

    def test_mute_cancels_across_full_band(self, result):
        mute = result.curves["MUTE_Hollow"]
        assert mute.mean_db(0, 1000) < -10.0
        assert mute.mean_db(1000, 3000) < -10.0

    def test_mute_beats_bose_active_sub_1k(self, result):
        assert result.mute_vs_bose_active_sub1k_db < -3.0

    def test_mute_hollow_close_to_bose_overall(self, result):
        assert abs(result.mute_hollow_vs_bose_overall_db) < 5.0

    def test_mute_passive_beats_bose_overall(self, result):
        assert result.mute_passive_vs_bose_overall_db < -5.0

    def test_report_renders(self, result):
        text = result.report()
        assert "MUTE_Hollow" in text and "Bose_Overall" in text


class TestFig13:
    def test_low_frequency_weakness(self):
        result = run_fig13()
        assert result.response_at_50hz < 0.25 * result.response_at_peak
        assert 500.0 < result.peak_hz < 2500.0

    def test_model_matches_fir_measurement(self):
        result = run_fig13()
        band = (result.freqs > 300) & (result.freqs < 3000)
        np.testing.assert_allclose(result.measured_response[band],
                                   result.response[band], atol=0.05)

    def test_report_renders(self):
        assert "frequency response" in run_fig13().report()


class TestFig14:
    def test_mute_competitive_on_every_sound(self, fast_bench):
        result = run_fig14(duration_s=6.0, scenario=fast_bench)
        assert set(result.panels) == {"male voice", "female voice",
                                      "construction", "music"}
        for sound in result.panels:
            # Clearly cancelling on every workload, in Bose's vicinity.
            # (Synthetic sources hop spectra faster than real recordings,
            # so the gap is looser than the paper's 0.9 dB.)
            assert result.mean_gap_db(sound) < 10.0
            mute = result.panels[sound]["MUTE_Hollow"]
            assert mute.mean_db() < -6.0


class TestFig15:
    def test_every_subject_prefers_mute(self, fast_bench):
        result = run_fig15(duration_s=5.0, scenario=fast_bench)
        assert result.mute_wins("music") == result.n_subjects
        assert result.mute_wins("voice") == result.n_subjects

    def test_report_renders(self, fast_bench):
        result = run_fig15(duration_s=5.0, scenario=fast_bench)
        assert "ratings" in result.report()


class TestFig16:
    def test_lookahead_helps(self, fast_bench):
        result = run_fig16(duration_s=5.0, scenario=fast_bench)
        means = result.monotone_improvement()
        # Lower bound is clearly worst; the sweep's largest extra
        # lookahead is clearly better.
        assert means[0] > means[-1] + 2.0
        assert result.future_taps["Lower Bound"] == 0

    def test_future_taps_increase_along_sweep(self, fast_bench):
        result = run_fig16(duration_s=5.0, scenario=fast_bench)
        # +0.38/0.75/1.13 ms at 8 kHz, in whole samples.
        assert list(result.future_taps.values()) == [0, 3, 6, 9]


class TestFig17:
    def test_switching_adds_cancellation(self, fast_bench):
        result = run_fig17(duration_s=12.0, scenario=fast_bench)
        assert result.mean_additional_db < -1.0   # paper: ~-3 dB
        assert result.cache_hits > 0

    def test_report_renders(self, fast_bench):
        result = run_fig17(duration_s=12.0, scenario=fast_bench)
        assert "switching" in result.report()


class TestFig18:
    def test_signs_detected(self, fast_bench):
        result = run_fig18(duration_s=1.5, scenario=fast_bench)
        assert result.correct_signs()
        lags = [m.lag_s for m in result.measured.values()]
        assert max(lags) > 0 > min(lags)


class TestFig19:
    def test_association_accuracy(self):
        result = run_fig19(duration_s=1.0)
        assert result.accuracy() >= 0.75
        # The no-relay case must be exercised and correct.
        near_client = [k for k in result.expected
                       if result.expected[k] is None]
        assert near_client
        assert all(result.decisions[k] is None for k in near_client)


class TestTiming:
    def test_headphone_misses_mute_meets(self):
        result = run_timing()
        verdicts = {row[0]: row[3] for row in result.device_rows}
        assert verdicts["headphone-asic (conventional)"] == "NO"
        assert verdicts["TMS320C6713 (MUTE bench)"] == "yes"
        assert 2.0 < result.headphone_overrun_ratio < 5.0

    def test_lookahead_table_eq4(self):
        result = run_timing()
        one_meter = [r for r in result.distance_rows if r[0] == "1.00"][0]
        assert float(one_meter[1]) == pytest.approx(2.94, abs=0.05)


class TestConvergence:
    def test_hum_converges_and_switching_reduces_spikes(self, fast_bench):
        result = run_convergence(duration_s=10.0, scenario=fast_bench)
        assert result.steady_hum_rms < 0.5 * result.initial_hum_rms
        assert result.onset_spike_switching < result.onset_spike_single
        assert result.spike_reduction_db() < -0.5


class TestFig6:
    def test_profiles_separable(self, fast_bench):
        from repro.eval.experiments import run_fig6

        result = run_fig6(duration_s=12.0)
        assert result.signature_distance > 0.3
        assert result.classifier_accuracy > 0.55
        assert "Figure 6" in result.report()
