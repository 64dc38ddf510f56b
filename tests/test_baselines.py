"""Conventional-ANC baselines (the Bose models)."""

import numpy as np
import pytest

from repro.core import BoseHeadphone, ConventionalAncModel
from repro.errors import ConfigurationError
from repro.signals import MachineHum, WhiteNoise
from tests.oracle import simulate_delay_limited_fxlms


class TestConventionalAncModel:
    def test_deep_cancellation_at_low_frequency(self):
        model = ConventionalAncModel(delay_error_s=90e-6)
        assert model.cancellation_db(100.0) < -15.0

    def test_useless_above_crossover(self):
        model = ConventionalAncModel(delay_error_s=90e-6)
        # 2|sin(pi f tau)| reaches 1 at f = 1/(6 tau) ≈ 1.85 kHz.
        assert model.cancellation_db(2500.0) == pytest.approx(0.0, abs=0.1)

    def test_floor_binds_at_dc(self):
        model = ConventionalAncModel(delay_error_s=90e-6, floor_db=-24.0)
        assert model.cancellation_db(10.0) == pytest.approx(-24.0, abs=0.5)

    def test_longer_delay_worse(self):
        fast = ConventionalAncModel(delay_error_s=60e-6)
        slow = ConventionalAncModel(delay_error_s=150e-6)
        assert slow.cancellation_db(800.0) > fast.cancellation_db(800.0)

    def test_never_amplifies(self):
        model = ConventionalAncModel(delay_error_s=200e-6)
        freqs = np.linspace(10.0, 4000.0, 256)
        assert np.all(model.cancellation_db(freqs) <= 1e-9)

    def test_explicit_cutoff(self):
        model = ConventionalAncModel(delay_error_s=60e-6,
                                     max_cancel_hz=1000.0)
        assert model.cancellation_db(1500.0) == 0.0
        assert model.cancellation_db(500.0) < -5.0

    def test_residual_fir_matches_curve(self):
        model = ConventionalAncModel()
        fir = model.residual_fir(8000.0)
        from scipy import signal as sps

        w, h = sps.freqz(fir, worN=256, fs=8000.0)
        target = model.residual_gain(w)
        band = (w > 200) & (w < 3600)
        np.testing.assert_allclose(np.abs(h)[band], target[band], atol=0.05)

    def test_residual_waveform_attenuates_low_band(self):
        model = ConventionalAncModel()
        t = np.arange(8000) / 8000.0
        low = np.sin(2 * np.pi * 200.0 * t)
        out = model.residual_waveform(low, 8000.0)
        assert (np.sqrt(np.mean(out[500:-500] ** 2))
                < 0.3 * np.sqrt(np.mean(low ** 2)))

    def test_rejects_positive_floor(self):
        with pytest.raises(ConfigurationError):
            ConventionalAncModel(floor_db=3.0)


class TestBoseHeadphone:
    def test_overall_composition(self):
        bose = BoseHeadphone()
        freqs = np.array([200.0, 2000.0])
        overall = bose.overall_cancellation_db(freqs)
        active = bose.active.cancellation_db(freqs)
        passive = -bose.earcup.insertion_loss_db(freqs)
        np.testing.assert_allclose(overall, active + passive)

    def test_active_dominates_low_passive_dominates_high(self):
        bose = BoseHeadphone()
        assert (abs(bose.active.cancellation_db(150.0))
                > bose.earcup.insertion_loss_db(150.0))
        assert (abs(bose.active.cancellation_db(3000.0))
                < bose.earcup.insertion_loss_db(3000.0))

    def test_mean_overall_in_paper_range(self):
        bose = BoseHeadphone()
        mean = bose.mean_overall_cancellation_db()
        assert -22.0 < mean < -10.0   # paper: ≈ −15 dB

    def test_residual_waveform_passive_only(self):
        bose = BoseHeadphone()
        x = WhiteNoise(seed=1, level_rms=0.2).generate(1.0)
        passive = bose.residual_waveform(x, active=False)
        full = bose.residual_waveform(x, active=True)
        assert np.mean(full ** 2) < np.mean(passive ** 2)

    def test_requires_earcup_type(self):
        with pytest.raises(ConfigurationError):
            BoseHeadphone(earcup="foam")


class TestDelayLimitedSimulation:
    """Time-domain cross-check of the analytic model's regimes."""

    def test_predictable_hum_cancelled_at_low_freq(self):
        # Periodic noise is predictable: even a late filter cancels it.
        fs = 48000.0
        hum = MachineHum(fundamental=120.0, n_harmonics=3,
                         sample_rate=fs, level_rms=0.2, wobble_depth=0.0,
                         seed=1).generate(1.0)
        freqs, spec = simulate_delay_limited_fxlms(hum, fs,
                                                   delay_error_s=90e-6,
                                                   n_taps=256)
        low = spec[(freqs > 80) & (freqs < 500)].mean()
        assert low < -8.0

    def test_unpredictable_white_noise_not_cancelled(self):
        # The paper's core motivation: wide-band unpredictable sound
        # defeats a conventional ANC pipeline that has missed its
        # deadline.
        fs = 48000.0
        noise = WhiteNoise(sample_rate=fs, level_rms=0.2, seed=2) \
            .generate(1.0)
        freqs, spec = simulate_delay_limited_fxlms(noise, fs,
                                                   delay_error_s=200e-6,
                                                   n_taps=128)
        overall = spec[(freqs > 500) & (freqs < 20000)].mean()
        assert overall > -3.0   # essentially no cancellation

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            simulate_delay_limited_fxlms(np.ones(2048), 48000.0,
                                         delay_error_s=-1.0)
