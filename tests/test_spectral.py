"""Spectral utilities: PSD, band energies, signatures, A-weighting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SignalError
from repro.utils import spectral
from tests import oracle

#: The NumPy estimates against ``scipy.signal``'s (the oracle):
#: densities relative to their peak, coherence (which is dimensionless,
#: in [0, 1]) absolute.
SPECTRAL_TOL = 1e-12


def _tone(freq, fs=8000.0, seconds=1.0):
    t = np.arange(int(fs * seconds)) / fs
    return np.sin(2 * np.pi * freq * t)


class TestWelchPsd:
    def test_peak_at_tone_frequency(self):
        freqs, psd = spectral.welch_psd(_tone(1000.0), 8000.0)
        assert abs(freqs[np.argmax(psd)] - 1000.0) < 32.0

    def test_clamps_nperseg(self):
        freqs, psd = spectral.welch_psd(np.ones(16), 8000.0, nperseg=512)
        assert psd.size == 9  # nperseg clamped to 16

    def test_rejects_empty(self):
        with pytest.raises(SignalError):
            spectral.welch_psd(np.zeros(2), 8000.0)


@st.composite
def _signals(draw):
    """A noise signal of 8–50,000 samples at 1e-3–1e3, on a DC offset,
    and an ``nperseg`` of 8–2,048 (odd or even, clamped to the length
    by the estimators)."""
    n = draw(st.integers(8, 50000), label="n")
    nperseg = draw(st.integers(8, 2048), label="nperseg")
    seed = draw(st.integers(0, 2 ** 32 - 1), label="seed")
    amplitude = draw(st.sampled_from([1e-3, 1.0, 1e3]), label="amplitude")
    offset = draw(st.sampled_from([0.0, 0.5, -1e3]), label="offset")
    rng = np.random.default_rng(seed)
    return offset + amplitude * rng.standard_normal(n), nperseg, rng


def _assert_density_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= SPECTRAL_TOL * np.max(want)


class TestMatchesScipy:
    """One NumPy segment-average core against ``scipy.signal``."""

    @settings(max_examples=80, deadline=None)
    @given(_signals())
    def test_welch_psd(self, case):
        x, nperseg, __ = case
        freqs, psd = spectral.welch_psd(x, 8000.0, nperseg=nperseg)
        want_freqs, want = oracle.welch(x, 8000.0, nperseg=nperseg)
        # The probe's band masks compare these frequencies exactly.
        np.testing.assert_array_equal(freqs, want_freqs)
        _assert_density_close(psd, want)

    @settings(max_examples=60, deadline=None)
    @given(_signals())
    def test_coherence(self, case):
        x, nperseg, rng = case
        y = 0.5 * x + np.std(x) * rng.standard_normal(x.size)
        freqs, got = spectral.coherence(x, y, 8000.0, nperseg=nperseg)
        want_freqs, want = oracle.coherence(x, y, 8000.0, nperseg=nperseg)
        np.testing.assert_array_equal(freqs, want_freqs)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= SPECTRAL_TOL

    @settings(max_examples=60, deadline=None)
    @given(_signals(), st.sampled_from([0.0, 0.125, 0.5, 0.9]))
    def test_spectrogram(self, case, overlap):
        x, nperseg, __ = case
        freqs, times, sxx = spectral.spectrogram(x, 8000.0, nperseg=nperseg,
                                                 overlap=overlap)
        want_freqs, want_times, want = oracle.spectrogram(
            x, 8000.0, nperseg=nperseg, overlap=overlap)
        np.testing.assert_array_equal(freqs, want_freqs)
        np.testing.assert_array_equal(times, want_times)
        _assert_density_close(sxx, want)

    @pytest.mark.parametrize("n, nperseg", [(22400, 512), (400, 512),
                                            (513, 512), (8, 8), (9, 8)],
                             ids=["probe", "short", "one-segment",
                                  "shortest", "odd-tail"])
    def test_probe_inputs(self, n, nperseg):
        x = 3.0 + np.random.default_rng(n).standard_normal(n)
        freqs, psd = spectral.welch_psd(x, 8000.0, nperseg=nperseg)
        want_freqs, want = oracle.welch(x, 8000.0, nperseg=nperseg)
        np.testing.assert_array_equal(freqs, want_freqs)
        _assert_density_close(psd, want)

    def test_coherence_rejects_unequal_lengths(self):
        with pytest.raises(SignalError):
            spectral.coherence(np.ones(64), np.ones(65), 8000.0)

    @pytest.mark.parametrize("overlap", [1.0, 1.5, -0.5])
    def test_spectrogram_rejects_overlap_without_a_hop(self, overlap):
        with pytest.raises(ConfigurationError, match="overlap"):
            spectral.spectrogram(np.ones(512), 8000.0, overlap=overlap)


class TestBandEnergies:
    def test_energy_lands_in_right_band(self):
        energies = spectral.band_energies(_tone(1500.0), 8000.0,
                                          [0, 1000, 2000, 4000])
        assert np.argmax(energies) == 1

    def test_rejects_unsorted_edges(self):
        with pytest.raises(SignalError):
            spectral.band_energies(_tone(100.0), 8000.0, [0, 2000, 1000])


class TestSignature:
    def test_normalized(self):
        sig = spectral.band_energy_signature(_tone(440.0), 8000.0)
        assert np.sum(sig) == pytest.approx(1.0)

    def test_level_invariant(self):
        quiet = spectral.band_energy_signature(0.01 * _tone(440.0), 8000.0)
        loud = spectral.band_energy_signature(10.0 * _tone(440.0), 8000.0)
        np.testing.assert_allclose(quiet, loud, atol=1e-9)

    def test_silence_is_uniform(self):
        sig = spectral.band_energy_signature(np.zeros(4096), 8000.0,
                                             n_bands=8)
        np.testing.assert_allclose(sig, np.full(8, 1 / 8))

    def test_different_sounds_differ(self):
        low = spectral.band_energy_signature(_tone(200.0), 8000.0)
        high = spectral.band_energy_signature(_tone(3000.0), 8000.0)
        assert np.sum(np.abs(low - high)) > 0.5


class TestAWeighting:
    def test_unity_near_1khz(self):
        assert spectral.a_weighting_db(1000.0) == pytest.approx(0.0, abs=0.5)

    def test_strong_attenuation_at_low_freq(self):
        assert spectral.a_weighting_db(50.0) < -25.0

    def test_mild_boost_in_presence_region(self):
        assert spectral.a_weighting_db(2500.0) > 0.0

    def test_vectorized(self):
        out = spectral.a_weighting_db([100.0, 1000.0, 4000.0])
        assert out.shape == (3,)


class TestOctaveBands:
    def test_doubling(self):
        edges = spectral.octave_band_edges(62.5, 4000.0)
        np.testing.assert_allclose(edges[1:] / edges[:-1], 2.0)

    def test_rejects_inverted(self):
        with pytest.raises(SignalError):
            spectral.octave_band_edges(4000.0, 100.0)


class TestCancellationSpectrum:
    def test_uniform_attenuation(self):
        rng = np.random.default_rng(3)
        before = rng.standard_normal(8192)
        after = 0.1 * before
        freqs, spec = spectral.cancellation_spectrum_db(before, after, 8000.0)
        assert np.median(spec) == pytest.approx(-20.0, abs=1.0)

    def test_no_cancellation_is_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8192)
        __, spec = spectral.cancellation_spectrum_db(x, x, 8000.0)
        np.testing.assert_allclose(spec, 0.0, atol=1e-6)

    def test_spectral_selectivity(self):
        # Attenuate only the low band; the spectrum should show it there.
        rng = np.random.default_rng(5)
        before = rng.standard_normal(16384)
        from scipy import signal as sps
        sos = sps.butter(6, 1000 / 4000, btype="highpass", output="sos")
        after = sps.sosfiltfilt(sos, before)
        freqs, spec = spectral.cancellation_spectrum_db(before, after, 8000.0)
        low = spec[(freqs > 50) & (freqs < 400)].mean()
        high = spec[(freqs > 2000) & (freqs < 3500)].mean()
        assert low < -15.0
        assert abs(high) < 2.0


class TestSmoothing:
    def test_preserves_constant(self):
        np.testing.assert_allclose(
            spectral.smooth_spectrum_db(np.full(32, -7.0), window=5), -7.0)

    def test_reduces_variance(self):
        rng = np.random.default_rng(6)
        noisy = rng.standard_normal(256)
        smooth = spectral.smooth_spectrum_db(noisy, window=9)
        assert np.var(smooth) < np.var(noisy)

    def test_short_input_passthrough(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            spectral.smooth_spectrum_db(x, window=5), x)


class TestSpectrogram:
    def test_shapes(self):
        x = _tone(1000.0, seconds=2.0)
        freqs, times, sxx = spectral.spectrogram(x, 8000.0, nperseg=256)
        assert freqs.size == 129
        assert sxx.shape == (freqs.size, times.size)

    def test_tone_concentrated(self):
        x = _tone(1000.0, seconds=2.0)
        freqs, __, sxx = spectral.spectrogram(x, 8000.0, nperseg=256)
        peak_bin = int(np.argmax(sxx.mean(axis=1)))
        assert abs(freqs[peak_bin] - 1000.0) < 50.0

    def test_time_resolution_sees_onset(self):
        quiet = np.zeros(8000)
        loud = _tone(500.0, seconds=1.0)
        x = np.concatenate([quiet, loud])
        __, times, sxx = spectral.spectrogram(x, 8000.0, nperseg=256)
        power = sxx.sum(axis=0)
        first_half = power[times < 0.9].mean()
        second_half = power[times > 1.1].mean()
        assert second_half > 100 * max(first_half, 1e-20)


class TestNanAwareSpectra:
    def test_smoothing_preserves_nan_positions(self):
        values = np.full(32, -10.0)
        values[10:13] = np.nan
        smooth = spectral.smooth_spectrum_db(values, window=5)
        assert np.isnan(smooth[11])
        # Neighbors are not poisoned by the NaN hole.
        assert smooth[8] == pytest.approx(-10.0)
        assert smooth[15] == pytest.approx(-10.0)

    def test_min_signal_db_masks_quiet_bins(self):
        # A tone: only bins near it carry signal; the rest become NaN.
        x = _tone(1000.0, seconds=2.0)
        freqs, spec = spectral.cancellation_spectrum_db(
            x, 0.1 * x, 8000.0, min_signal_db=-30.0)
        peak_bin = int(np.argmin(np.abs(freqs - 1000.0)))
        far = (freqs > 3000)
        assert not np.isnan(spec[peak_bin])
        assert np.isnan(spec[far]).mean() > 0.9
        assert spec[peak_bin] == pytest.approx(-20.0, abs=1.0)

    def test_none_keeps_all_bins(self):
        x = _tone(1000.0, seconds=1.0)
        __, spec = spectral.cancellation_spectrum_db(x, x, 8000.0,
                                                     min_signal_db=None)
        assert not np.any(np.isnan(spec))
