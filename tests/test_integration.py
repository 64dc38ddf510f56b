"""Cross-module integration tests.

These exercise whole pipelines: the analog relay inside a full MUTE run,
relay selection over room acoustics, profile switching end-to-end, and
the lookahead sweep's monotonicity on a fast scene.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    LancFilter,
    MuteConfig,
    MuteSystem,
    RelaySelector,
    StreamingLanc,
)
from repro.signals import MachineHum, MaleVoice, WhiteNoise
from repro.wireless import AnalogRelay, RfChannelConfig


NOISE = WhiteNoise(level_rms=0.1, seed=11)


class TestAnalogRelayInTheLoop:
    def test_cancellation_through_real_fm_chain(self, fast_scenario):
        """LANC must still cancel when the reference rode an FM link."""
        relay = AnalogRelay(seed=3, mic_noise_rms=5e-4)
        system = MuteSystem(fast_scenario, MuteConfig(
            probe_secondary=False, relay=relay, mu=0.2, n_past=192,
            n_future=32))
        result = system.run(NOISE.generate(4.0))
        assert result.mean_cancellation_db() < -6.0

    def test_noisy_rf_link_degrades_cancellation(self, fast_scenario):
        noise = NOISE.generate(4.0)
        clean = MuteSystem(fast_scenario, MuteConfig(
            probe_secondary=False, mu=0.2, n_past=192, n_future=32,
            relay=AnalogRelay(seed=3, mic_noise_rms=5e-4)))
        dirty = MuteSystem(fast_scenario, MuteConfig(
            probe_secondary=False, mu=0.2, n_past=192, n_future=32,
            relay=AnalogRelay(seed=3, mic_noise_rms=5e-4,
                              channel_config=RfChannelConfig(snr_db=8.0,
                                                             seed=5))))
        assert (dirty.run(noise).mean_cancellation_db()
                > clean.run(noise).mean_cancellation_db() + 2.0)


class TestRelaySelectionOverRoomAcoustics:
    def test_near_relay_wins(self, two_relay_scenario):
        system = MuteSystem(two_relay_scenario,
                            MuteConfig(probe_secondary=False))
        forwarded, ear = system.forwarded_and_ear_signals(NOISE.generate(1.0))
        selector = RelaySelector(
            sample_rate=two_relay_scenario.sample_rate)
        best, measurements = selector.select(forwarded, ear)
        assert best == 0
        assert measurements[1].lag_s < measurements[0].lag_s

    def test_speech_source_also_works(self, two_relay_scenario):
        voice = MaleVoice(level_rms=0.1, seed=5,
                          speech_fraction=1.0).generate(1.5)
        system = MuteSystem(two_relay_scenario,
                            MuteConfig(probe_secondary=False))
        forwarded, ear = system.forwarded_and_ear_signals(voice)
        selector = RelaySelector(
            sample_rate=two_relay_scenario.sample_rate)
        best, __ = selector.select(forwarded, ear)
        assert best == 0


class TestLookaheadMonotonicity:
    def test_more_future_taps_never_much_worse(self, fast_system):
        noise = NOISE.generate(3.0)
        prepared = fast_system.prepare(noise)
        means = []
        for n_future in (0, prepared.n_future):
            lanc = fast_system.make_filter(n_future=n_future)
            res = lanc.run(prepared.reference, prepared.disturbance_at_ear,
                           secondary_path_true=prepared.secondary_path_true)
            tail = res.error[res.error.size // 2:]
            means.append(float(np.mean(tail ** 2)))
        with_lookahead, = [means[1]]
        without = means[0]
        assert with_lookahead < without * 1.05


class TestStreamingWithProfileSwitch:
    def test_manual_tap_swap_mid_stream(self, fast_system):
        """Swapping taps between blocks must not corrupt the stream."""
        noise = NOISE.generate(2.0)
        prepared = fast_system.prepare(noise)
        lanc = fast_system.make_filter(n_future=prepared.n_future)
        stream = StreamingLanc(
            lanc, prepared.reference,
            secondary_path_true=prepared.secondary_path_true)
        block = 800
        T = prepared.reference.size
        for start in range(0, T, block):
            if start == T // 2:
                saved = lanc.get_taps()
                lanc.set_taps(np.zeros_like(saved))
                lanc.set_taps(saved)     # swap away and back
            stream.process(prepared.disturbance_at_ear[start:start + block])
        error = stream.residual()
        assert error.size == T
        assert np.all(np.isfinite(error))
        tail_rms = np.sqrt(np.mean(error[-4000:] ** 2))
        open_rms = np.sqrt(np.mean(prepared.disturbance_at_ear[-4000:] ** 2))
        assert tail_rms < 0.7 * open_rms


class TestPredictableNoiseEasierThanWhite:
    def test_hum_cancels_deeply(self, fast_system):
        """Narrowband hum: compare total residual power, not per-bin PSD
        (bins between harmonics carry no noise to cancel)."""
        from repro.utils.units import cancellation_db

        hum = MachineHum(level_rms=0.1, seed=2).generate(3.0)
        result = fast_system.run(hum)
        tail = slice(result.residual.size // 2, None)
        total_db = cancellation_db(result.disturbance_open[tail],
                                   result.residual[tail])
        assert total_db < -10.0


class TestDeterminismAcrossRuns:
    def test_full_pipeline_deterministic(self, fast_scenario):
        noise = NOISE.generate(1.0)
        results = []
        for __ in range(2):
            system = MuteSystem(fast_scenario, MuteConfig(
                probe_secondary=True, probe_noise_rms=0.01, seed=9))
            results.append(system.run(noise).residual)
        np.testing.assert_array_equal(results[0], results[1])
