"""FM modulation/demodulation chain."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from repro.errors import ConfigurationError, SignalError
from repro.signals import Tone, WhiteNoise
from repro.utils.units import snr_db
from repro.wireless import (
    AmDemodulator,
    AmModulator,
    FmDemodulator,
    FmModulator,
    ZeroPhaseDecimator,
    fm,
    resample,
)
from repro.wireless.fm import rational_ratio
from tests import oracle

ROOT = Path(__file__).resolve().parents[1]


def _roundtrip_snr(audio, **kwargs):
    mod = FmModulator(**kwargs)
    dem = FmDemodulator(**kwargs)
    recovered = dem.demodulate(mod.modulate(audio))
    margin = 400
    clean = audio[margin: audio.size - margin]
    error = recovered[margin: audio.size - margin] - clean
    return snr_db(clean, error)


class TestResample:
    def test_identity(self):
        x = np.arange(10, dtype=float)
        np.testing.assert_array_equal(resample(x, 8000, 8000), x)

    def test_ratio(self):
        x = np.zeros(800)
        assert resample(x, 8000, 96000).size == 9600

    def test_roundtrip_preserves_content(self):
        x = Tone(440.0, level_rms=0.3).generate(0.5)
        back = resample(resample(x, 8000, 96000), 96000, 8000)
        margin = 100
        assert snr_db(x[margin:-margin],
                      back[margin: x.size - margin] - x[margin:-margin]) > 40

    def test_exact_rational_non_integer_rates_work(self):
        # 8000.5 -> 96000 is the exact rational 192000/16001; the
        # Fraction-based reduction must accept it (it used to raise).
        up, down = rational_ratio(8000.5, 96000)
        assert (up, down) == (192000, 16001)

    def test_unit_ratio_of_unequal_rates_is_a_copy(self):
        # 8000·(1 + 1e-13) is not 8000, but their exact ratio snaps to
        # 1/1: the float64 copy equal rates get.
        x = np.arange(10)
        out = resample(x, 8000, 8000 * (1 + 1e-13))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, x)

    # Pairs that reduce with both factors above 1 used to fall back to
    # resample_poly; they are now refused, naming the pair, before any
    # design.
    def test_both_factor_fallback_keeps_no_design(self):
        # (192000, 16001) would design a 3.84M-tap window.
        with pytest.raises(ConfigurationError,
                           match=r"8000.5 Hz to 96000.0 Hz "
                                 r".*\(192000\).*\(16001\)"):
            resample(np.zeros(16001), 8000.5, 96000)
        assert (192000, 16001) not in fm._design_cache

    def test_both_factor_fallback_is_resample_poly(self):
        # The refusal points the caller at resample_poly for the pair.
        x = np.random.default_rng(7).standard_normal(3000)
        with pytest.raises(ConfigurationError,
                           match=r"44100.0 Hz to 8000.0 Hz .*\(80\).*\(441\)"
                                 r".*resample_poly takes any pair"):
            resample(x, 44100, 8000)
        assert (80, 441) not in fm._design_cache

    @pytest.mark.parametrize("signal", [np.zeros(10, dtype=complex),
                                        np.zeros((2, 10))],
                             ids=["complex", "2-D"])
    def test_rejects_what_is_not_a_real_1d_signal(self, signal):
        with pytest.raises(SignalError, match="real 1-D signal"):
            resample(signal, 8000, 96000)

    def test_rejects_irrational_rate_ratio(self):
        with pytest.raises(ConfigurationError):
            resample(np.zeros(10), 8000.0, 8000.0 * np.sqrt(2.0))

    def test_integer_pair_reduces_by_gcd(self):
        assert rational_ratio(8000, 96000) == (12, 1)
        assert rational_ratio(44100, 8000) == (80, 441)

    # The resampler's contract: ``resample_poly`` with its default
    # window (the oracle), to 1e-12 of the signal's scale, at the same
    # length, on one-factor pairs (chunked BLAS products).
    PAIRS = [(8000, 96000), (96000, 8000), (8000, 16000), (16000, 8000)]

    @staticmethod
    def _assert_matches_oracle(x, rate_in, rate_out):
        expected = oracle.resample(x, rate_in, rate_out)
        got = resample(x, rate_in, rate_out)
        assert got.shape == expected.shape
        bound = 1e-12 * max(1.0, float(np.max(np.abs(x))))
        assert np.max(np.abs(got - expected), initial=0.0) <= bound

    @settings(max_examples=60, deadline=None)
    @given(pair=st.sampled_from(PAIRS), data=st.data())
    def test_matches_resample_poly(self, pair, data):
        up, down = rational_ratio(*pair)
        filter_taps = 20 * max(up, down) + 1
        n = data.draw(st.integers(1, 3 * filter_taps), label="n")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
        x = scale * np.random.default_rng(seed).standard_normal(n)
        self._assert_matches_oracle(x, *pair)

    # Around the chunk edges: 1,040 input rows per interpolation product
    # and 1,020 outputs per decimation product at MAX_PRODUCT_SIZE.
    @pytest.mark.parametrize("rate_in, rate_out, n", [
        (8000, 96000, 1039), (8000, 96000, 1040), (8000, 96000, 1041),
        (8000, 96000, 32000),
        (96000, 8000, 12 * 1020 - 1), (96000, 8000, 12 * 1020),
        (96000, 8000, 12 * 1020 + 1), (96000, 8000, 384000),
    ])
    def test_matches_resample_poly_across_chunks(self, rate_in, rate_out, n):
        x = np.random.default_rng(n).standard_normal(n)
        self._assert_matches_oracle(x, rate_in, rate_out)

    def test_repeat_calls_bit_identical(self):
        x = WhiteNoise(seed=3, level_rms=0.3).generate(4.0)
        up = resample(x, 8000, 96000)
        np.testing.assert_array_equal(up, resample(x.copy(), 8000, 96000))
        down = resample(up, 96000, 8000)
        np.testing.assert_array_equal(down, resample(up.copy(), 96000, 8000))

    def test_relay_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # Every product stays under OpenBLAS's one-thread size, so a
        # 4 s forward is the same with one BLAS thread as with the
        # library's default thread count.
        child = ("import sys, numpy as np\n"
                 "from repro.signals import WhiteNoise\n"
                 "from repro.wireless import AnalogRelay\n"
                 "x = WhiteNoise(seed=3, level_rms=0.2).generate(4.0)\n"
                 "np.save(sys.argv[1], AnalogRelay(seed=5).forward(x))\n")
        outputs = []
        for threads in ("1", None):
            env = {key: value for key, value in os.environ.items()
                   if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "GOTO_NUM_THREADS")}
            env["PYTHONPATH"] = str(ROOT / "src")
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            path = tmp_path / f"threads-{threads}.npy"
            subprocess.run([sys.executable, "-c", child, str(path)],
                           check=True, env=env, cwd=ROOT, timeout=120)
            outputs.append(np.load(path))
        np.testing.assert_array_equal(outputs[0], outputs[1])


class TestZeroPhaseDecimator:
    """The receivers' filter-and-decimate against SciPy's
    ``resample_poly(sosfiltfilt(sos, x))`` (the oracle), within
    1e-12 × max(1, max|x|), at the same length."""

    RECEIVER = ZeroPhaseDecimator(96000.0, 8000.0)

    @staticmethod
    def _assert_matches_oracle(decimator, x):
        sos = sps.butter(decimator.order,
                         decimator.cutoff_hz / (decimator.rate_in / 2.0),
                         output="sos")
        want = oracle.zero_phase_decimate(sos, x, decimator.rate_in,
                                          decimator.rate_out)
        got = decimator(x)
        assert got.shape == want.shape
        bound = 1e-12 * max(1.0, float(np.max(np.abs(x))))
        assert np.max(np.abs(got - want)) <= bound

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(22, 480000), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_matches_sosfiltfilt_then_resample_poly(self, n, seed, scale):
        x = scale * np.random.default_rng(seed).standard_normal(n)
        self._assert_matches_oracle(self.RECEIVER, x)

    # The shortest input; the first length with an interior output
    # (1486); lengths around an output's 12-sample frame and the 901
    # outputs of one overlap-save block; 1 s, 4 s and 5 s.
    @pytest.mark.parametrize("n", [
        22, 23, 34, 35, 100, 1485, 1486, 1487, 1497, 1498,
        12 * (62 + 901 + 62) - 1, 12 * (62 + 901 + 62),
        12 * (62 + 901 + 62) + 1, 12 * (62 + 2 * 901 + 62) + 11,
        96000, 384000, 480000,
    ])
    def test_matches_oracle_at_edge_lengths(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        self._assert_matches_oracle(self.RECEIVER, x)

    @pytest.mark.parametrize("rate_in, rate_out", [
        (96000.0, 16000.0), (48000.0, 8000.0), (96000.0, 44100.0),
        (8000.0, 16000.0),
    ], ids=["down-6", "48k-down-6", "fallback-147/320", "fallback-up-2"])
    def test_other_rate_pairs(self, rate_in, rate_out):
        up, down = rational_ratio(rate_in, rate_out)
        if min(up, down) > 1:
            # A two-factor pair is refused at construction, naming it.
            with pytest.raises(ConfigurationError,
                               match=rf"{rate_in} Hz to {rate_out} Hz "
                                     rf".*\({up}\).*\({down}\)"):
                ZeroPhaseDecimator(rate_in, rate_out)
            return
        decimator = ZeroPhaseDecimator(rate_in, rate_out)
        for n in (22, 999, 20000):
            x = np.random.default_rng(n).standard_normal(n)
            self._assert_matches_oracle(decimator, x)

    SCIPY_FFT = oracle.ScipyFftDecimator(96000.0, 8000.0)

    @pytest.mark.skipif(
        not oracle.NUMPY_POCKETFFT,
        reason="np.fft is SciPy's pocketfft only from NumPy 2.0 on")
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(22, 480000), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_bit_identical_to_scipy_fft_form(self, n, seed, scale):
        """``np.fft`` with C-ordered spectra equals the ``scipy.fft``
        form it replaced (the oracle's), branch spectra included."""
        x = scale * np.random.default_rng(seed).standard_normal(n)
        np.testing.assert_array_equal(self.RECEIVER(x), self.SCIPY_FFT(x))
        np.testing.assert_array_equal(self.RECEIVER._spectra,
                                      self.SCIPY_FFT._spectra)

    def test_relay_receiver_has_a_22_sample_minimum(self):
        assert self.RECEIVER.padlen == 21
        assert self.RECEIVER.min_samples == 22
        with pytest.raises(SignalError, match="22 samples"):
            self.RECEIVER(np.ones(21))

    @pytest.mark.parametrize("n", [2, 10, 21])
    @pytest.mark.parametrize("demodulator", [FmDemodulator, AmDemodulator],
                             ids=["fm", "am"])
    def test_short_baseband_raises_signal_error(self, demodulator, n):
        baseband = np.exp(0.1j * np.arange(n))
        with pytest.raises(SignalError, match="at least 22 samples"):
            demodulator().demodulate(baseband)

    @pytest.mark.parametrize("demodulator", [FmDemodulator, AmDemodulator],
                             ids=["fm", "am"])
    def test_shortest_baseband_demodulates(self, demodulator):
        out = demodulator().demodulate(np.exp(0.1j * np.arange(22)))
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))


class TestFmModulator:
    def test_constant_envelope(self):
        mod = FmModulator(amplitude=2.0)
        bb = mod.modulate(WhiteNoise(seed=0, level_rms=0.2).generate(0.2))
        np.testing.assert_allclose(np.abs(bb), 2.0, atol=1e-9)

    def test_carson_bandwidth_guard(self):
        with pytest.raises(ConfigurationError):
            FmModulator(rf_rate=16000.0, deviation_hz=12000.0)

    def test_occupied_bandwidth(self):
        mod = FmModulator(deviation_hz=12000.0, audio_rate=8000.0)
        assert mod.occupied_bandwidth_hz == pytest.approx(32000.0)


class TestRoundTrip:
    def test_tone_high_snr(self):
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        assert _roundtrip_snr(tone) > 40.0

    def test_white_noise_reasonable_snr(self):
        noise = WhiteNoise(seed=1, level_rms=0.2).generate(0.5)
        # Band-edge rolloff limits raw SNR for full-band noise.
        assert _roundtrip_snr(noise) > 5.0

    def test_dc_removed(self):
        tone = Tone(300.0, level_rms=0.2).generate(0.5)
        mod, dem = FmModulator(), FmDemodulator()
        out = dem.demodulate(mod.modulate(tone))
        assert abs(np.mean(out)) < 1e-9

    def test_cfo_becomes_dc_and_is_removed(self):
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        mod, dem = FmModulator(), FmDemodulator()
        bb = mod.modulate(tone)
        t = np.arange(bb.size) / 96000.0
        shifted = bb * np.exp(2j * np.pi * 3000.0 * t)   # 3 kHz CFO
        out = dem.demodulate(shifted)
        margin = 400
        err = out[margin: tone.size - margin] - tone[margin:-margin]
        assert snr_db(tone[margin:-margin], err) > 35.0


class TestFastSlowEquivalence:
    """The in-place mod/demod paths vs the oracle's allocating ones.

    The test oracle (``tests/oracle.py``) keeps the straightforward
    modulator/demodulator arithmetic (docs/PERFORMANCE.md); the
    in-place formulations must agree to the library-wide 1e-10
    envelope.
    """

    TOL = 1e-10

    def _noise(self, seed):
        return WhiteNoise(seed=seed, level_rms=0.2).generate(0.25)

    def _both(self, fn):
        with oracle.reference_paths():
            slow = fn()
        return slow, fn()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_fm_roundtrip(self, seed):
        audio = self._noise(seed)
        mod, dem = FmModulator(), FmDemodulator()
        slow, fast = self._both(lambda: dem.demodulate(mod.modulate(audio)))
        np.testing.assert_allclose(fast, slow, atol=self.TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_fm_modulate(self, seed):
        mod = FmModulator(amplitude=0.7)
        slow, fast = self._both(lambda: mod.modulate(self._noise(seed)))
        np.testing.assert_allclose(fast, slow, atol=self.TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_am_roundtrip(self, seed):
        audio = self._noise(seed)
        mod, dem = AmModulator(), AmDemodulator()
        slow, fast = self._both(lambda: dem.demodulate(mod.modulate(audio)))
        np.testing.assert_allclose(fast, slow, atol=self.TOL, rtol=0)
