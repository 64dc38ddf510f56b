"""GCC-PHAT lookahead measurement and relay selection."""

import numpy as np
import pytest

from repro.core import RelaySelector, gcc_phat, measure_lookahead
from repro.errors import RelaySelectionError
from repro.signals import MaleVoice, WhiteNoise

FS = 8000.0


def _shifted_pair(shift_samples, seconds=1.0, seed=0):
    """(forwarded, ear) where the ear hears the same sound `shift` later."""
    x = WhiteNoise(sample_rate=FS, level_rms=0.2, seed=seed) \
        .generate(seconds)
    ear = np.zeros_like(x)
    if shift_samples >= 0:
        ear[shift_samples:] = x[: x.size - shift_samples]
        return x, ear
    fwd = np.zeros_like(x)
    fwd[-shift_samples:] = x[: x.size + shift_samples]
    return fwd, x


class TestGccPhat:
    @pytest.mark.parametrize("shift", [3, 17, 40])
    def test_positive_lag_when_forwarded_leads(self, shift):
        fwd, ear = _shifted_pair(shift)
        lags, corr = gcc_phat(fwd, ear, FS)
        peak_lag = lags[np.argmax(corr)]
        assert peak_lag == pytest.approx(shift / FS, abs=1.5 / FS)

    @pytest.mark.parametrize("shift", [-5, -25])
    def test_negative_lag_when_forwarded_lags(self, shift):
        fwd, ear = _shifted_pair(shift)
        lags, corr = gcc_phat(fwd, ear, FS)
        peak_lag = lags[np.argmax(corr)]
        assert peak_lag == pytest.approx(shift / FS, abs=1.5 / FS)

    def test_lag_grid_symmetric(self):
        fwd, ear = _shifted_pair(10)
        lags, corr = gcc_phat(fwd, ear, FS, max_lag_s=0.01)
        assert lags[0] == pytest.approx(-0.01, abs=1.0 / FS)
        assert lags[-1] == pytest.approx(0.01, abs=1.0 / FS)
        assert lags.size == corr.size

    def test_works_with_speech(self):
        voice = MaleVoice(sample_rate=FS, level_rms=0.2, seed=3,
                          speech_fraction=1.0).generate(1.5)
        shift = 20
        ear = np.zeros_like(voice)
        ear[shift:] = voice[:-shift]
        lags, corr = gcc_phat(voice, ear, FS)
        assert lags[np.argmax(corr)] == pytest.approx(shift / FS,
                                                      abs=2.0 / FS)

    def test_robust_to_scaling(self):
        fwd, ear = _shifted_pair(12)
        lags, corr = gcc_phat(0.01 * fwd, 100.0 * ear, FS)
        assert lags[np.argmax(corr)] == pytest.approx(12 / FS, abs=1.5 / FS)


class TestMeasureLookahead:
    def test_positive_measurement(self):
        fwd, ear = _shifted_pair(24)
        m = measure_lookahead(fwd, ear, FS)
        assert m.is_positive
        assert m.lag_s == pytest.approx(24 / FS, abs=1.5 / FS)
        assert m.confidence > 5.0

    def test_negative_measurement(self):
        fwd, ear = _shifted_pair(-24)
        m = measure_lookahead(fwd, ear, FS)
        assert not m.is_positive

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_roundoff_in_a_mean_removed_stream_moves_nothing(self, seed):
        # The FM demodulator removes the mean, so bin 0 of the forwarded
        # spectrum is roundoff; a 1e-15 relative perturbation must not
        # move the measurement through it.
        x = WhiteNoise(sample_rate=FS, level_rms=0.2, seed=seed) \
            .generate(1.0)
        ear = np.zeros_like(x)
        ear[24:] = x[:-24]
        fwd = x - np.mean(x)
        rng = np.random.default_rng(seed)
        perturbed = fwd * (1.0 + 1e-15 * rng.standard_normal(fwd.size))
        a = measure_lookahead(fwd, ear, FS)
        b = measure_lookahead(perturbed, ear, FS)
        assert b.lag_s == a.lag_s
        assert b.peak_value == pytest.approx(a.peak_value, rel=1e-9)
        assert b.confidence == pytest.approx(a.confidence, rel=1e-9)

    def test_uncorrelated_low_confidence(self):
        a = WhiteNoise(sample_rate=FS, seed=1).generate(1.0)
        b = WhiteNoise(sample_rate=FS, seed=2).generate(1.0)
        m = measure_lookahead(a, b, FS)
        assert m.confidence < 8.0


class TestRelaySelector:
    def test_picks_largest_positive(self):
        selector = RelaySelector(sample_rate=FS)
        ear_shift = 40
        x = WhiteNoise(sample_rate=FS, level_rms=0.2, seed=5).generate(1.0)
        ear = np.zeros_like(x)
        ear[ear_shift:] = x[:-ear_shift]
        forwarded = {}
        for relay_id, relay_shift in {"near": 5, "mid": 20, "far": 45}.items():
            f = np.zeros_like(x)
            f[relay_shift:] = x[:-relay_shift]
            forwarded[relay_id] = f
        best, measurements = selector.select(forwarded, ear)
        # 'near' leads the ear by 35 samples — the largest positive lead.
        assert best == "near"
        assert measurements["far"].lag_s < 0.0

    def test_all_negative_returns_none(self):
        selector = RelaySelector(sample_rate=FS)
        fwd, ear = _shifted_pair(-30)
        best, __ = selector.select({"only": fwd}, ear)
        assert best is None

    def test_min_lookahead_threshold(self):
        selector = RelaySelector(sample_rate=FS, min_lookahead_s=0.01)
        fwd, ear = _shifted_pair(8)   # 1 ms < 10 ms threshold
        best, __ = selector.select({"only": fwd}, ear)
        assert best is None

    def test_empty_relays_rejected(self):
        with pytest.raises(RelaySelectionError):
            RelaySelector(sample_rate=FS).select({}, np.zeros(100))

    def test_rejects_negative_min_lookahead(self):
        with pytest.raises(RelaySelectionError):
            RelaySelector(sample_rate=FS, min_lookahead_s=-1.0)
