"""The analog relay end-to-end, and the link budget."""

from unittest import mock

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalError
from repro.signals import MaleVoice, WhiteNoise
from repro.utils import fastconv
from repro.wireless import (
    AnalogRelay,
    IdealRelay,
    RfChannel,
    RfChannelConfig,
    band_occupancy_fraction,
    free_space_path_loss_db,
    received_snr_db,
    thermal_noise_dbm,
)
from tests import oracle


class TestIdealRelay:
    def test_passthrough(self):
        x = WhiteNoise(seed=0, level_rms=0.1).generate(0.2)
        out = IdealRelay().forward(x)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_mic_noise_added(self):
        x = np.zeros(1000)
        out = IdealRelay(mic_noise_rms=0.1, seed=1).forward(x)
        assert np.sqrt(np.mean(out ** 2)) == pytest.approx(0.1, rel=0.1)

    def test_zero_latency(self):
        assert IdealRelay().latency_samples == 0


class TestAnalogRelay:
    @pytest.fixture(scope="class")
    def relay(self):
        return AnalogRelay(seed=3)

    def test_latency_under_one_ms(self, relay):
        assert 0.0 <= relay.latency_samples < 8.0   # < 1 ms at 8 kHz

    def test_output_length_matches(self, relay):
        x = WhiteNoise(seed=4, level_rms=0.2).generate(0.5)
        assert relay.forward(x).size == x.size

    def test_coherent_snr_clean_link(self, relay):
        x = WhiteNoise(seed=5, level_rms=0.2).generate(1.0)
        assert relay.audio_snr_db(x) > 30.0

    def test_voice_forwarding(self, relay):
        v = MaleVoice(seed=7, level_rms=0.2).generate(1.0)
        assert relay.audio_snr_db(v) > 25.0

    def test_degrades_with_rf_noise(self):
        x = WhiteNoise(seed=5, level_rms=0.2).generate(1.0)
        clean = AnalogRelay(seed=3)
        noisy = AnalogRelay(seed=3, channel_config=RfChannelConfig(
            snr_db=5.0, seed=9))
        assert noisy.audio_snr_db(x) < clean.audio_snr_db(x) - 10.0

    def test_cfo_tolerated(self):
        x = WhiteNoise(seed=5, level_rms=0.2).generate(1.0)
        relay = AnalogRelay(seed=3, channel_config=RfChannelConfig(
            snr_db=40.0, cfo_hz=4000.0, seed=9))
        assert relay.audio_snr_db(x) > 25.0

    def test_forward_is_linear_in_level(self):
        x = WhiteNoise(seed=6, level_rms=0.05).generate(0.5)
        relay = AnalogRelay(seed=3, mic_noise_rms=0.0,
                            channel_config=RfChannelConfig(
                                snr_db=float("inf"), seed=0))
        a = relay.forward(x)
        b = relay.forward(2.0 * x)
        margin = 200
        np.testing.assert_allclose(b[margin:-margin], 2 * a[margin:-margin],
                                   atol=5e-3)


class TestRelayFilters:
    """The relay's front end against SciPy's ``sosfilt`` of the same
    Butterworth design, within 1e-12 of the signal's scale."""

    @pytest.mark.parametrize("cutoff", [None, 1000.0, 3000.0])
    def test_front_end_matches_sosfilt(self, cutoff):
        relay = AnalogRelay(seed=1, lpf_cutoff_hz=cutoff)
        for n in (50, 2000, 32000):
            x = 30.0 * np.random.default_rng(n).standard_normal(n)
            got = fastconv.fir_apply(x, relay._front_fir)
            want = oracle.front_end(relay, x)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))

    def test_rejects_a_cutoff_at_nyquist(self):
        with pytest.raises(ConfigurationError):
            AnalogRelay(lpf_cutoff_hz=4000.0)


class TestRelayShortBlocks:
    """A block too short for the receiver's zero-phase filter (22 RF
    samples) raises ``SignalError`` naming that minimum."""

    @pytest.mark.parametrize("rf_rate, n", [(96000.0, 1), (48000.0, 1),
                                            (48000.0, 3)])
    def test_too_short_raises(self, rf_rate, n):
        relay = AnalogRelay(rf_rate=rf_rate, seed=1)
        with pytest.raises(SignalError, match="needs 22 samples"):
            relay.forward(np.full(n, 0.1))

    @pytest.mark.parametrize("rf_rate, n", [(96000.0, 2), (48000.0, 4)])
    def test_shortest_block_forwards(self, rf_rate, n):
        relay = AnalogRelay(rf_rate=rf_rate, seed=1)
        assert relay.min_samples == n
        out = relay.forward(np.full(n, 0.1))
        assert out.shape == (n,)
        assert np.all(np.isfinite(out))


class TestRelayKeptNoise:
    """Forwards with the kept draws equal forwards that redraw per call."""

    @pytest.mark.parametrize("config", [
        None,
        RfChannelConfig(snr_db=25.0, cfo_hz=400.0, gain_db=-2.0,
                        phase_rad=0.9, pa_backoff_db=3.0, seed=11),
    ], ids=["default", "impaired"])
    def test_forward_matches_fresh_draws(self, config):
        product = AnalogRelay(seed=5, channel_config=config)
        reference = AnalogRelay(seed=5, channel_config=config)
        # A first call, a repeat, a new length, the first length again.
        for n in (2000, 2000, 3000, 2000):
            audio = 0.2 * np.random.default_rng(n).standard_normal(n)
            got = product.forward(audio)
            with mock.patch.object(AnalogRelay, "_chain",
                                   oracle.analog_relay_chain), \
                    mock.patch.object(RfChannel, "apply",
                                      oracle.rf_channel_apply):
                want = reference.forward(audio)
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


class TestLinkBudget:
    def test_fspl_grows_with_distance(self):
        assert (free_space_path_loss_db(10.0)
                > free_space_path_loss_db(1.0) + 19.0)

    def test_fspl_reference_value(self):
        # ~31.7 dB at 1 m, 915 MHz.
        assert free_space_path_loss_db(1.0) == pytest.approx(31.7, abs=0.5)

    def test_thermal_noise(self):
        # kTB for 30 kHz ≈ -129 dBm; +6 dB NF.
        assert thermal_noise_dbm(30e3) == pytest.approx(-123.0, abs=1.0)

    def test_indoor_snr_is_huge(self):
        assert received_snr_db(0.0, 3.0, 32000.0) > 60.0

    def test_band_occupancy_small(self):
        # Paper §6: a few relays occupy a tiny fraction of the ISM band.
        assert band_occupancy_fraction(32000.0, n_relays=4) < 0.01

    def test_occupancy_scales_with_relays(self):
        one = band_occupancy_fraction(32000.0, 1)
        four = band_occupancy_fraction(32000.0, 4)
        assert four == pytest.approx(4 * one)
