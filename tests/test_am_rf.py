"""AM baseline and RF channel impairments."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.signals import Tone
from repro.utils.units import snr_db
from repro.wireless import (
    AmDemodulator,
    AmModulator,
    FmDemodulator,
    FmModulator,
    RfChannel,
    RfChannelConfig,
    pa_nonlinearity,
)
from repro.wireless.rf_channel import FrozenNoise
from tests import oracle


def _fit_and_snr(reference, recovered, margin=400):
    """SNR after removing any flat gain (AM recovery scale is nominal)."""
    r = reference[margin:-margin]
    y = recovered[margin: reference.size - margin]
    scale = np.dot(y, r) / np.dot(r, r)
    return snr_db(r, y - scale * r)


class TestAmRoundTrip:
    def test_clean_channel(self):
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        am, dem = AmModulator(), AmDemodulator()
        out = dem.demodulate(am.modulate(tone))
        assert _fit_and_snr(tone, out) > 30.0

    def test_rejects_zero_index(self):
        with pytest.raises(ConfigurationError):
            AmModulator(modulation_index=0.0)


class TestPaNonlinearity:
    def test_compresses_envelope_peaks(self):
        rng = np.random.default_rng(0)
        bb = (rng.standard_normal(4096)
              + 1j * rng.standard_normal(4096))
        out = pa_nonlinearity(bb, backoff_db=1.0)
        assert np.max(np.abs(out)) < np.max(np.abs(bb))

    def test_preserves_phase(self):
        bb = np.exp(1j * np.linspace(0, 20, 1000)) * \
            np.linspace(0.1, 3.0, 1000)
        out = pa_nonlinearity(bb, backoff_db=3.0)
        np.testing.assert_allclose(np.angle(out), np.angle(bb), atol=1e-9)

    def test_constant_envelope_nearly_untouched(self):
        # FM's whole argument: |x| constant → tanh is just a fixed gain.
        bb = np.exp(1j * np.linspace(0, 50, 2000))
        out = pa_nonlinearity(bb, backoff_db=1.0)
        ratio = np.abs(out) / np.abs(bb)
        assert np.ptp(ratio) < 1e-9


class TestFmBeatsAmUnderImpairments:
    def test_fm_advantage(self):
        """The paper's 'Why FM?' — quantified."""
        tone = Tone(440.0, level_rms=0.2).generate(0.5)
        channel = RfChannel(RfChannelConfig(snr_db=25.0, cfo_hz=2000.0,
                                            pa_backoff_db=1.0, seed=3),
                            rf_rate=96000.0)
        fm_out = FmDemodulator().demodulate(
            channel.apply(FmModulator().modulate(tone)))
        am_out = AmDemodulator().demodulate(
            channel.apply(AmModulator().modulate(tone)))
        fm_snr = _fit_and_snr(tone, fm_out)
        am_snr = _fit_and_snr(tone, am_out)
        assert fm_snr > am_snr + 10.0


class TestRfChannel:
    def test_awgn_snr_level(self):
        rng = np.random.default_rng(1)
        bb = np.exp(1j * rng.uniform(0, 2 * np.pi, 65536))
        out = RfChannel(RfChannelConfig(snr_db=20.0, seed=2)).apply(bb)
        noise = out - bb
        measured = 10 * np.log10(np.mean(np.abs(bb) ** 2)
                                 / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(20.0, abs=0.5)

    def test_flat_gain(self):
        bb = np.ones(128, dtype=complex)
        out = RfChannel(RfChannelConfig(snr_db=float("inf"), gain_db=-6.0)) \
            .apply(bb)
        assert np.abs(out[0]) == pytest.approx(10 ** (-6 / 20), abs=1e-9)

    def test_phase_rotation(self):
        bb = np.ones(16, dtype=complex)
        out = RfChannel(RfChannelConfig(snr_db=float("inf"),
                                        phase_rad=np.pi / 2)).apply(bb)
        assert np.angle(out[0]) == pytest.approx(np.pi / 2)

    def test_cfo_rotates_over_time(self):
        bb = np.ones(96000, dtype=complex)
        out = RfChannel(RfChannelConfig(snr_db=float("inf"), cfo_hz=1000.0),
                        rf_rate=96000.0).apply(bb)
        # After 1/4000 s the phase should be 2π·1000/4000 = π/2.
        idx = 96000 // 4000
        assert np.angle(out[idx]) == pytest.approx(np.pi / 2, abs=1e-6)

    def test_rejects_bad_backoff(self):
        with pytest.raises(ConfigurationError):
            RfChannelConfig(pa_backoff_db=0.0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


#: Links covering each branch of ``RfChannel.apply``.
LINKS = {
    "default": RfChannelConfig(),
    "gain": RfChannelConfig(snr_db=30.0, gain_db=-4.0, seed=2),
    "phase": RfChannelConfig(snr_db=30.0, phase_rad=-1.1, seed=2),
    "all": RfChannelConfig(snr_db=20.0, cfo_hz=250.0, gain_db=3.0,
                           phase_rad=0.6, pa_backoff_db=2.0, seed=7),
}

#: A first call, a repeat, a new length, then the first length again.
LENGTHS = (4096, 4096, 6000, 4096)


class TestKeptNoise:
    """One kept draw per channel, bit for bit the per-call draw."""

    @pytest.mark.parametrize("link", sorted(LINKS))
    def test_apply_matches_fresh_draws(self, link):
        product = RfChannel(LINKS[link])
        reference = RfChannel(LINKS[link])
        for n in LENGTHS:
            phase = np.random.default_rng(n).uniform(0, 2 * np.pi, n)
            baseband = 0.5 * np.exp(1j * phase)
            got = product.apply(baseband)
            want = oracle.rf_channel_apply(reference, baseband)
            assert got.dtype == np.complex128
            assert np.array_equal(_bits(got), _bits(want))

    def test_slot_keeps_one_read_only_draw(self):
        slot = FrozenNoise(lambda rng, n: rng.standard_normal(n))
        first = slot(3, 100)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert slot(3, 100) is first
        np.testing.assert_array_equal(
            first, np.random.default_rng(3).standard_normal(100))
        assert slot(3, 50) is not first          # new length: redrawn
        assert slot(4, 50) is not slot(3, 50)    # new seed: redrawn
        # No integer seed, nothing to key on: every call draws afresh.
        assert not np.array_equal(slot(None, 8), slot(None, 8))

    def test_channel_draw_is_read_only(self):
        channel = RfChannel(RfChannelConfig(seed=5))
        channel.apply(np.ones(64, dtype=complex))
        assert not channel._awgn(5, 64).flags.writeable

    @pytest.mark.parametrize("baseband", [
        np.exp(1j * np.linspace(0.0, 3.0, 32)),
        np.linspace(-1.0, 1.0, 32),
    ], ids=["complex", "real"])
    def test_noiseless_link_returns_a_new_array(self, baseband):
        out = RfChannel(RfChannelConfig(snr_db=float("inf"))).apply(baseband)
        assert out is not baseband
        assert not np.shares_memory(out, baseband)
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(out, baseband)
