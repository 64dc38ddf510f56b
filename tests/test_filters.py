"""NumPy filter designs against the ``scipy.signal`` ones they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from repro.errors import ConfigurationError
from repro.hardware.transducers import TransducerResponse, flat_transducer
from repro.utils import filters
from tests import oracle

#: Each NumPy design against its SciPy counterpart.
DESIGN_TOL = 1e-14


class TestButterSos:
    @settings(max_examples=60, deadline=None)
    @given(order=st.sampled_from([2, 4, 6, 8, 10]),
           wn=st.floats(1e-3, 0.99))
    def test_matches_scipy(self, order, wn):
        want = sps.butter(order, wn, btype="lowpass", output="sos")
        got = filters.butter_sos(order, wn)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= DESIGN_TOL

    @pytest.mark.parametrize("order, wn", [(6, 4000 / 48000), (4, 0.95)],
                             ids=["receiver", "front-end"])
    def test_relay_designs_bit_identical(self, order, wn):
        np.testing.assert_array_equal(
            filters.butter_sos(order, wn),
            sps.butter(order, wn, btype="lowpass", output="sos"))

    @pytest.mark.parametrize("order, wn", [(3, 0.5), (0, 0.5), (4, 0.0),
                                           (4, 1.0), (4, 1.5)])
    def test_rejects_bad_arguments(self, order, wn):
        with pytest.raises(ConfigurationError):
            filters.butter_sos(order, wn)


class TestKaiserLowpass:
    @pytest.mark.parametrize("numtaps, cutoff", [
        (241, 1 / 12), (21, 0.5), (2401, 1 / 120), (24, 0.3), (481, 1 / 24),
    ])
    def test_matches_scipy_firwin(self, numtaps, cutoff):
        want = sps.firwin(numtaps, cutoff, window=("kaiser", 5.0))
        got = filters.kaiser_lowpass(numtaps, cutoff)
        assert np.max(np.abs(got - want)) <= DESIGN_TOL

    @pytest.mark.parametrize("numtaps, cutoff",
                             [(21, 1.0), (21, 0.0), (1, 0.5)])
    def test_rejects_bad_arguments(self, numtaps, cutoff):
        with pytest.raises(ConfigurationError):
            filters.kaiser_lowpass(numtaps, cutoff)


class TestFirwin2:
    @pytest.mark.parametrize("response", [
        TransducerResponse(), flat_transducer(), TransducerResponse(n_taps=9),
        TransducerResponse(sample_rate=16000.0, n_taps=257),
    ], ids=["cheap", "flat", "9-taps", "16k"])
    def test_matches_scipy_on_transducer_grids(self, response):
        grid = np.linspace(0.0, response.sample_rate / 2.0, 256)
        gains = response.magnitude(grid)
        gains[0] = 0.0
        want = sps.firwin2(response.n_taps, grid, gains,
                           fs=response.sample_rate)
        got = filters.firwin2(response.n_taps, grid, gains,
                              fs=response.sample_rate)
        assert np.max(np.abs(got - want)) <= DESIGN_TOL
        np.testing.assert_array_equal(response.impulse_response, got)

    @settings(max_examples=80, deadline=None)
    @given(numtaps=st.integers(1, 600).map(lambda k: 2 * k + 1),
           n_grid=st.integers(2, 1024), seed=st.integers(0, 2 ** 32 - 1),
           fs=st.sampled_from([8000.0, 16000.0, 44100.0]))
    def test_matches_scipy_bit_for_bit(self, numtaps, n_grid, seed, fs):
        grid = np.linspace(0.0, fs / 2.0, n_grid)
        gains = 10.0 ** (np.random.default_rng(seed).uniform(-3, 1, n_grid))
        np.testing.assert_array_equal(
            filters.firwin2(numtaps, grid, gains, fs=fs),
            oracle.firwin2(numtaps, grid, gains, fs=fs))

    def test_product_designs_bit_for_bit(self, monkeypatch):
        """The earcup (129 taps), the ear canal and its mismatch (65 and
        33) and the Bose stage (257): the same bits with SciPy's design
        swapped in."""
        from repro.core.baselines import ConventionalAncModel
        from repro.hardware.ear import EarCanalCoupling
        from repro.hardware.headphone import PassiveEarcup

        def designs():
            ear = EarCanalCoupling()
            return [PassiveEarcup()._fir, ear._canal_fir, ear._mismatch_fir,
                    ConventionalAncModel().residual_fir(8000.0)]

        product = designs()
        monkeypatch.setattr(filters, "firwin2", oracle.firwin2)
        for got, want in zip(product, designs(), strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("numtaps, freq", [
        (8, [0.0, 4000.0]), (9, [0.0, 3000.0]), (9, [100.0, 4000.0]),
        (9, [0.0, 2000.0, 2000.0, 4000.0]),
    ], ids=["even-taps", "short-grid", "no-zero", "repeated"])
    def test_rejects_what_it_does_not_design(self, numtaps, freq):
        with pytest.raises(ConfigurationError):
            filters.firwin2(numtaps, freq, np.ones(len(freq)), fs=8000.0)


class TestFreqz:
    """The DTFT against ``scipy.signal.freqz``, within 1e-12 of the
    filter's ℓ1 gain (the largest ``|H|`` can be)."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5000), n_w=st.integers(1, 600),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy(self, m, n_w, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(m)
        w = rng.uniform(0.0, np.pi, n_w)
        got = filters.freqz(b, w)
        assert np.max(np.abs(got - oracle.freqz(b, w))) \
            <= 1e-12 * np.sum(np.abs(b))

    @pytest.mark.parametrize("m, n_points", [(1, 512), (129, 128),
                                             (256, 128), (257, 128),
                                             (4000, 512)])
    def test_channel_grid_matches_scipy(self, m, n_points):
        # Up to 2·n_points taps SciPy takes a zero-padded rfft, past that
        # the polynomial: the channel's grid agrees with both.
        from repro.acoustics.channels import AcousticChannel

        ir = np.random.default_rng(m).standard_normal(m)
        freqs, h = AcousticChannel(ir).frequency_response(8000.0, n_points)
        want_freqs, want = sps.freqz(ir, worN=n_points, fs=8000.0)
        np.testing.assert_array_equal(freqs, want_freqs)
        assert np.max(np.abs(h - want)) <= 1e-12 * np.sum(np.abs(ir))

    def test_rejects_an_empty_filter(self):
        with pytest.raises(ConfigurationError):
            filters.freqz([], [0.0])


class TestImpulseResponse:
    # The relay's two designs: the receiver's order-6, 4 kHz low-pass at
    # 96 kHz and the front end's order-4, 3.8 kHz low-pass at 8 kHz.
    DESIGNS = [(6, 4000 / 48000, 622), (4, 3800 / 4000, 684)]

    @pytest.mark.parametrize("order, wn, taps", DESIGNS,
                             ids=["receiver", "front-end"])
    def test_cut_where_the_rest_is_below_rtol(self, order, wn, taps):
        h = filters.butter_fir(order, wn)
        assert h.size == taps
        full = sps.sosfilt(sps.butter(order, wn, output="sos"),
                           np.r_[1.0, np.zeros(4 * taps)])
        mass = np.sum(np.abs(full))
        assert np.sum(np.abs(full[taps:])) < 1e-18 * mass
        assert np.sum(np.abs(full[taps - 1:])) >= 1e-18 * mass
        assert np.max(np.abs(h - full[:taps])) <= DESIGN_TOL

    @pytest.mark.parametrize("order, wn, taps", DESIGNS,
                             ids=["receiver", "front-end"])
    def test_fir_matches_sosfilt(self, order, wn, taps):
        x = 100.0 * np.random.default_rng(taps).standard_normal(20000)
        want = sps.sosfilt(sps.butter(order, wn, output="sos"), x)
        got = np.convolve(x, filters.butter_fir(order, wn))[:x.size]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))

    def test_cached_response_is_read_only(self):
        h = filters.butter_fir(6, 4000 / 48000)
        assert h is filters.butter_fir(6, 4000 / 48000)
        with pytest.raises(ValueError):
            h[0] = 0.0

    @pytest.mark.parametrize("order, wn, taps", DESIGNS,
                             ids=["receiver", "front-end"])
    def test_cap_keeps_the_relay_designs(self, order, wn, taps,
                                         monkeypatch):
        """The span cap refuses long designs only: the relay's two keep
        their taps bit for bit."""
        capped = filters.butter_fir(order, wn)
        monkeypatch.setattr(filters, "MAX_IMPULSE_SPAN", 1 << 20)
        uncapped = filters.sos_impulse_response(filters.butter_sos(order, wn))
        assert capped.size == taps
        np.testing.assert_array_equal(capped, uncapped)

    def test_refuses_a_corner_near_nyquist_within_the_cap(self,
                                                          monkeypatch):
        """A 3999 Hz front end at 8 kHz would keep 136,106 taps: the
        design is refused, by name, before any span past the cap."""
        from repro.wireless.relay import AnalogRelay

        spans = []
        recursion = filters._recursion

        def spy(v, a1, a2):
            spans.append(v.size)
            return recursion(v, a1, a2)

        monkeypatch.setattr(filters, "_recursion", spy)
        with pytest.raises(ConfigurationError,
                           match="order-4 Butterworth low-pass at 0.99975"):
            AnalogRelay(lpf_cutoff_hz=3999.0)
        assert max(spans) <= filters.MAX_IMPULSE_SPAN

    def test_rejects_an_unstable_cascade(self):
        growing = np.array([[1.0, 0.0, 0.0, 1.0, -2.0, 1.01]])
        with pytest.raises(ConfigurationError):
            filters.sos_impulse_response(growing)

    def test_rejects_unnormalized_sections(self):
        with pytest.raises(ConfigurationError):
            filters.sos_impulse_response([[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]])
