"""MuteSystem end-to-end."""

import dataclasses

import numpy as np
import pytest

from repro.acoustics.rir import RirSettings
from repro.core import MuteConfig, MuteSystem
from repro.errors import ConfigurationError, LookaheadError
from repro.eval.experiments import bench_scenario
from repro.hardware import bose_qc35_earcup
from repro.signals import WhiteNoise
from repro.wireless import IdealRelay
from repro.wireless.digital import DigitalRelay


NOISE = WhiteNoise(level_rms=0.1, seed=7)


class TestConstruction:
    def test_requires_scenario(self):
        with pytest.raises(ConfigurationError):
            MuteSystem("nope")

    def test_relay_index_bounds(self, fast_scenario):
        with pytest.raises(ConfigurationError):
            MuteSystem(fast_scenario, relay_index=3)

    def test_summary_mentions_lookahead(self, fast_system):
        assert "lookahead" in fast_system.summary()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MuteConfig(n_future=-1)


class TestPrepare:
    def test_shapes_and_budget(self, fast_system):
        noise = NOISE.generate(1.0)
        prepared = fast_system.prepare(noise)
        assert prepared.reference.size == noise.size
        assert prepared.disturbance_open.size == noise.size
        assert prepared.n_future > 0
        assert prepared.budget.meets_deadline

    def test_reference_alignment(self, fast_system):
        """The aligned reference must *lead* the disturbance by ~0 lag."""
        noise = NOISE.generate(1.0)
        prepared = fast_system.prepare(noise)
        corr = np.correlate(prepared.disturbance_open[200:-200],
                            prepared.reference[200:-200], mode="full")
        lag = np.argmax(np.abs(corr)) - (corr.size // 2)
        # Alignment is to the direct path.  Reverberation legitimately
        # puts correlation mass at positive lags (reference leading —
        # harmless, absorbed by causal taps); what would break LANC is
        # significant mass at negative lags beyond the lookahead.
        assert -1 <= lag <= 60

    def test_negative_lookahead_raises(self, fast_scenario):
        # Client closer to the source than the relay: negative lead.
        swapped = dataclasses.replace(
            fast_scenario,
            client=fast_scenario.relays[0],
            relays=(fast_scenario.client,),
        )
        system = MuteSystem(swapped, MuteConfig(probe_secondary=False))
        with pytest.raises(LookaheadError, match="reposition"):
            system.prepare(NOISE.generate(0.5))

    def test_relay_delay_is_charged_once(self):
        """A lossless digital link delivers the ideal reference, late.

        Its 28-sample frame + codec + radio delay comes out of the lead:
        the aligned reference is the ideal relay's, bit for bit, and only
        the future taps shrink.
        """
        scenario = dataclasses.replace(
            bench_scenario(), rir_settings=RirSettings(max_order=1))
        digital = DigitalRelay(frame_s=2e-3, codec_delay_s=1e-3,
                               radio_delay_s=0.5e-3, bits=None)
        noise = NOISE.generate(0.5)
        prepared = {
            name: MuteSystem(scenario, MuteConfig(
                relay=relay, probe_secondary=False)).prepare(noise)
            for name, relay in (("ideal", IdealRelay()),
                                ("digital", digital))
        }
        np.testing.assert_array_equal(prepared["digital"].reference,
                                      prepared["ideal"].reference)
        assert prepared["ideal"].n_future == 50
        assert prepared["digital"].n_future == 22

    def test_n_future_clipped_by_budget(self, fast_scenario):
        config = MuteConfig(n_future=10_000, probe_secondary=False)
        system = MuteSystem(fast_scenario, config)
        prepared = system.prepare(NOISE.generate(0.5))
        assert prepared.n_future < 10_000
        assert prepared.n_future == prepared.budget.usable_future_taps(
            fast_scenario.sample_rate)


class TestRun:
    def test_cancellation_achieved(self, fast_system):
        result = fast_system.run(NOISE.generate(4.0))
        assert result.mean_cancellation_db() < -6.0

    def test_residual_quieter_than_disturbance(self, fast_system):
        result = fast_system.run(NOISE.generate(3.0))
        tail = slice(result.residual.size // 2, None)
        assert (np.sqrt(np.mean(result.residual[tail] ** 2))
                < 0.5 * np.sqrt(np.mean(result.disturbance_open[tail] ** 2)))

    def test_earcup_improves_total(self, fast_scenario):
        noise = NOISE.generate(3.0)
        open_sys = MuteSystem(fast_scenario,
                              MuteConfig(probe_secondary=False))
        cup_sys = MuteSystem(fast_scenario, MuteConfig(
            probe_secondary=False,
            earcup=bose_qc35_earcup(fast_scenario.sample_rate)))
        open_run = open_sys.run(noise)
        cup_run = cup_sys.run(noise)
        assert (cup_run.mean_cancellation_db()
                < open_run.mean_cancellation_db() - 3.0)

    def test_smaller_n_future_caps_taps(self, fast_scenario):
        """Fig. 16's delayed line buffer: N shrinks, alignment stays."""
        base = MuteSystem(fast_scenario, MuteConfig(probe_secondary=False))
        capped = MuteSystem(fast_scenario, MuteConfig(
            probe_secondary=False, n_future=3))
        noise = NOISE.generate(0.5)
        full, short = base.prepare(noise), capped.prepare(noise)
        assert short.n_future == 3 < full.n_future
        np.testing.assert_array_equal(short.reference, full.reference)

    def test_band_mean_requires_bins(self, fast_system):
        result = fast_system.run(NOISE.generate(1.0))
        with pytest.raises(ConfigurationError):
            result.mean_cancellation_db(f_low=3999.9, f_high=3999.95)

    def test_deterministic(self, fast_scenario):
        noise = NOISE.generate(1.0)
        a = MuteSystem(fast_scenario,
                       MuteConfig(probe_secondary=False)).run(noise)
        b = MuteSystem(fast_scenario,
                       MuteConfig(probe_secondary=False)).run(noise)
        np.testing.assert_array_equal(a.residual, b.residual)


class TestForwardedSignals:
    def test_per_relay_outputs(self, two_relay_scenario):
        system = MuteSystem(two_relay_scenario,
                            MuteConfig(probe_secondary=False))
        noise = NOISE.generate(1.0)
        forwarded, ear = system.forwarded_and_ear_signals(noise)
        assert set(forwarded) == {0, 1}
        assert ear.size == noise.size


class TestNoAmbientToggles:
    def test_environment_does_not_change_the_residual(self, monkeypatch):
        """Results depend on arguments only, never on the environment."""
        from repro.core import office_scenario

        noise = NOISE.generate(0.5)

        def residual():
            return MuteSystem(office_scenario()).run(noise).residual

        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        clean = residual()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "loop")
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert np.array_equal(residual(), clean)
