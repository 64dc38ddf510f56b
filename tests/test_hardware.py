"""Converters, DSP boards, transducers, earcups."""

import numpy as np
import pytest

from repro.core import LookaheadBudget
from repro.errors import ConfigurationError
from repro.hardware import (
    Adc,
    Dac,
    DspBoard,
    PassiveEarcup,
    bose_qc35_earcup,
    cheap_transducer,
    flat_transducer,
    headphone_dsp,
    no_earcup,
    quantize,
    tms320c6713,
)
from repro.hardware.dsp_board import HEADPHONE_ACOUSTIC_BUDGET_S
from repro.signals import WhiteNoise
from repro.utils.units import snr_db


def _budget(lookahead_s, board):
    """The Eq. 3 ledger for ``lookahead_s`` ahead of ``board``."""
    return LookaheadBudget(lookahead_s, board.total_latency_s)


class TestQuantize:
    def test_idempotent(self):
        x = np.linspace(-0.9, 0.9, 101)
        once = quantize(x, 8)
        twice = quantize(once, 8)
        np.testing.assert_array_equal(once, twice)

    def test_step_size(self):
        x = np.array([0.0, 1.0 / 128.0])
        out = quantize(x, 8, full_scale=1.0)
        assert out[1] - out[0] == pytest.approx(1.0 / 128.0)

    def test_clipping(self):
        out = quantize(np.array([5.0, -5.0]), 8, full_scale=1.0)
        assert out[0] <= 1.0
        assert out[1] == -1.0

    def test_16bit_noise_floor(self):
        x = WhiteNoise(seed=0, level_rms=0.25).generate(1.0)
        q = quantize(x, 16, full_scale=4.0)
        assert snr_db(x, q - x) > 70.0

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            quantize(np.zeros(4), 0)


class TestConverters:
    def test_adc_delay(self):
        adc = Adc(latency_s=3 / 8000.0, bits=None)
        x = np.arange(10, dtype=float)
        out = adc.convert(x)
        np.testing.assert_array_equal(out[3:], x[:7])

    def test_adc_quantizes(self):
        adc = Adc(latency_s=0.0, bits=4, full_scale=1.0)
        out = adc.convert(np.array([0.03, 0.6]))
        assert set(np.round(out / (1 / 8)) * (1 / 8)) == set(out)

    def test_dac_is_adc_subtype(self):
        assert isinstance(Dac(), Adc)


class TestDspBoard:
    def test_total_latency(self):
        board = DspBoard(adc_delay_s=1e-3, processing_delay_s=2e-3,
                         dac_delay_s=3e-3, speaker_delay_s=4e-3)
        assert board.total_latency_s == pytest.approx(10e-3)

    def test_eq3_met_and_missed(self):
        board = tms320c6713()
        assert _budget(8.5e-3, board).meets_deadline
        assert not _budget(1e-3, board).meets_deadline

    def test_headphone_misses_30us_budget(self):
        board = headphone_dsp()
        assert not _budget(HEADPHONE_ACOUSTIC_BUDGET_S, board).meets_deadline
        # The paper's "easily 3x more than this time budget".
        assert board.total_latency_s / HEADPHONE_ACOUSTIC_BUDGET_S >= 2.5

    def test_playback_lag(self):
        board = headphone_dsp()
        lag = _budget(HEADPHONE_ACOUSTIC_BUDGET_S, board).playback_lag_s
        assert lag == pytest.approx(board.total_latency_s - 30e-6)

    def test_lag_zero_with_lookahead(self):
        assert _budget(8e-3, tms320c6713()).playback_lag_s == 0.0

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            DspBoard(adc_delay_s=-1.0)


class TestTransducers:
    def test_low_frequency_weakness(self):
        t = cheap_transducer()
        assert t.magnitude(50.0) < 0.25 * t.magnitude(1000.0)

    def test_peak_in_mid_band(self):
        t = cheap_transducer()
        freqs, resp = t.response_table(n_points=256)
        peak = freqs[np.argmax(resp)]
        assert 500.0 < peak < 2500.0

    def test_gain_cap(self):
        t = cheap_transducer()
        assert np.max(t.magnitude(np.linspace(10, 4000, 200))) < 0.4

    def test_apply_time_aligned(self):
        t = cheap_transducer()
        # Broadband probe: a 1000 Hz tone at 8 kHz has an 8-sample
        # period, so |corr| at lag ±4 ties lag 0 exactly and the argmax
        # would hinge on 1e-16 rounding.  Noise has no such degeneracy.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        y = t.apply(x)
        # Correlation peak at zero lag (linear-phase delay removed).
        sl = slice(500, 3500)
        lags = np.arange(-5, 6)
        corrs = [np.dot(y[sl], np.roll(x, lag)[sl]) for lag in lags]
        assert lags[int(np.argmax(np.abs(corrs)))] == 0

    def test_flat_transducer_flatness(self):
        t = flat_transducer()
        mags = t.magnitude(np.linspace(100, 3800, 64))
        assert np.ptp(20 * np.log10(mags)) < 3.0

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigurationError):
            cheap_transducer().__class__(lowcut_hz=2000.0, highcut_hz=100.0)


class TestPassiveEarcup:
    def test_insertion_loss_monotone(self):
        cup = bose_qc35_earcup()
        il = cup.insertion_loss_db(np.array([100.0, 1000.0, 4000.0]))
        assert il[0] < il[1] < il[2]

    def test_apply_attenuates_high_band(self):
        cup = bose_qc35_earcup()
        x = np.sin(2 * np.pi * 3000.0 * np.arange(8000) / 8000.0)
        y = cup.apply(x)
        atten_db = 20 * np.log10(np.sqrt(np.mean(y[500:-500] ** 2))
                                 / np.sqrt(np.mean(x[500:-500] ** 2)))
        expected = -cup.insertion_loss_db(3000.0)
        assert atten_db == pytest.approx(expected, abs=2.0)

    def test_no_earcup_transparent(self):
        cup = no_earcup()
        x = WhiteNoise(seed=1, level_rms=0.2).generate(0.5)
        y = cup.apply(x)
        assert snr_db(x[200:-200], y[200: x.size - 200] - x[200:-200]) > 30.0

    def test_mean_insertion_loss(self):
        cup = bose_qc35_earcup()
        mean = cup.mean_insertion_loss_db()
        assert 8.0 < mean < 18.0

    def test_rejects_inverted_losses(self):
        with pytest.raises(ConfigurationError):
            PassiveEarcup(il_low_db=10.0, il_high_db=5.0)
