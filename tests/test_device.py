"""The online ear-device: block streaming and relay handoff."""

import numpy as np
import pytest

from repro.acoustics import Point, Room
from repro.acoustics.rir import RirSettings
from repro.core import OnlineMuteDevice, Scenario
from repro.errors import ConfigurationError
from repro.signals import WhiteNoise


@pytest.fixture(scope="module")
def handoff_scenario():
    """Client center, two relays in opposite corners."""
    room = Room(6.0, 5.0, 3.0, absorption=0.4)
    return Scenario(
        room=room, source=Point(1, 1, 1.2), client=Point(3.0, 2.5, 1.2),
        relays=(Point(0.8, 0.8, 1.3), Point(5.2, 4.2, 1.3)),
        rir_settings=RirSettings(max_order=1),
    )


@pytest.fixture(scope="module")
def device(handoff_scenario):
    return OnlineMuteDevice(handoff_scenario, mu=0.15)


def _noise(seed, seconds=4.0, fs=8000.0):
    return WhiteNoise(sample_rate=fs, level_rms=0.1, seed=seed) \
        .generate(seconds)


class TestSingleSourceSession:
    @pytest.fixture(scope="class")
    def result(self, device):
        src = Point(0.9, 1.0, 1.3)     # near relay 0
        return device.run_session([(src, _noise(3, 5.0))])

    def test_selects_near_relay(self, result):
        chosen = {h.relay for h in result.handoffs if h.relay is not None}
        assert chosen == {0}

    def test_cancellation_after_convergence(self, result):
        T = result.residual.size
        assert result.segment_cancellation_db(T // 2, T) < -12.0

    def test_timeline_mostly_active(self, result):
        active = np.mean(result.active_relay_timeline >= 0)
        assert active > 0.8

    def test_output_shapes(self, result):
        assert result.residual.size == result.disturbance.size
        assert np.all(np.isfinite(result.residual))


class TestLedger:
    def test_session_claims_no_tap_beyond_the_lead(self, device):
        # Lag 76 less the 25.4-sample pipeline leaves 50.6 samples.
        session, __ = device._build_session([np.zeros(800)], 0, 76, {})
        assert session.filter.n_future == 50


class TestHandoffSession:
    @pytest.fixture(scope="class")
    def result(self, device):
        near_0 = Point(0.9, 1.0, 1.3)
        near_1 = Point(5.1, 4.0, 1.3)
        return device.run_session([
            (near_0, _noise(3, 5.0)),
            (near_1, _noise(4, 5.0)),
        ])

    def test_device_switches_relays(self, result):
        relays = [h.relay for h in result.handoffs if h.relay is not None]
        assert 0 in relays and 1 in relays

    def test_cancellation_recovers_after_handoff(self, result):
        T_half = result.residual.size // 2
        second_tail = result.segment_cancellation_db(
            T_half + T_half // 2, 2 * T_half)
        assert second_tail < -12.0

    def test_timeline_tracks_the_move(self, result):
        T_half = result.residual.size // 2
        first = result.active_relay_timeline[T_half // 2: T_half]
        second = result.active_relay_timeline[T_half + T_half // 2:]
        assert np.median(first[first >= 0]) == 0
        assert np.median(second[second >= 0]) == 1


def _walk_the_prefix(device, session, ear, t):
    """The handoff as a whole-prefix walk with frozen taps."""
    if t > 0:
        session.process(ear[:t], adapt=False)


class TestHandoffJoin:
    """A new session joins at time t by walking only the last len(h_se)
    samples of ``ear[:t]`` with frozen taps, and leaves what a walk over
    the whole prefix would."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("t", [100, 3000])
    def test_joining_equals_walking_the_prefix(self, device, warm, t):
        forwarded, ear = [_noise(7, 1.0)], _noise(8, 1.0)
        cache = {}
        if warm:    # taps a session adapted earlier on this assignment
            earlier, __ = device._build_session(forwarded, 0, 60, {})
            earlier.process(ear[:2000])
            cache[0, 60] = earlier.filter.get_taps()
        walked, __ = device._build_session(forwarded, 0, 60, cache)
        _walk_the_prefix(device, walked, ear, t)
        joined, is_warm = device._build_session(forwarded, 0, 60, cache)
        device._join(joined, ear, t)
        assert is_warm == warm
        assert joined.time == walked.time == t
        np.testing.assert_array_equal(joined.state.y_recent,
                                      walked.state.y_recent)
        assert np.any(joined.state.y_recent) == warm
        for start in range(t, ear.size, 400):
            np.testing.assert_array_equal(
                joined.process(ear[start:start + 400]),
                walked.process(ear[start:start + 400]))
        np.testing.assert_array_equal(joined.filter.get_taps(),
                                      walked.filter.get_taps())


class TestWarmHandoff:
    """The device leaves relay 0, then returns to its cached taps."""

    SCHEDULE = ((Point(0.9, 1.0, 1.3), 3), (Point(5.1, 4.0, 1.3), 4),
                (Point(0.9, 1.0, 1.3), 5))

    @pytest.fixture(scope="class")
    def runs(self, device):
        from repro.core.adaptive.lanc import StreamingLanc

        schedule = [(src, _noise(seed, 2.0)) for src, seed in self.SCHEDULE]
        calls = []
        process = StreamingLanc.process

        def spy(session, block, adapt=True, **kwargs):
            calls.append((np.size(block), adapt))
            return process(session, block, adapt, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreamingLanc, "process", spy)
            joined = device.run_session(schedule)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(OnlineMuteDevice, "_join", _walk_the_prefix)
            walked = device.run_session(schedule)
        return joined, walked, calls

    def test_returns_warm(self, runs):
        joined, __, __ = runs
        starts = [h.warm_start for h in joined.handoffs
                  if h.relay is not None]
        assert starts == [False, False, True]

    def test_device_equals_the_prefix_walk(self, runs):
        joined, walked, __ = runs
        np.testing.assert_array_equal(joined.residual, walked.residual)
        np.testing.assert_array_equal(joined.active_relay_timeline,
                                      walked.active_relay_timeline)
        assert joined.handoffs == walked.handoffs

    def test_each_join_walks_at_most_len_h_se(self, device, runs):
        joined, __, calls = runs
        frozen = [size for size, adapt in calls if not adapt]
        adapting = [size for size, adapt in calls if adapt]
        assert len(frozen) == 3
        assert max(frozen) <= device._h_se.size
        assert max(adapting) <= device.block
        assert sum(adapting) == np.count_nonzero(
            joined.active_relay_timeline >= 0)


class TestNoUsableRelay:
    def test_passthrough_when_source_at_client(self, handoff_scenario):
        device = OnlineMuteDevice(handoff_scenario, mu=0.15)
        src = Point(3.1, 2.4, 1.3)      # right next to the client
        result = device.run_session([(src, _noise(5, 2.0))])
        # No relay offers lookahead: the device must not fabricate
        # anti-noise; the residual equals the ambient.
        np.testing.assert_array_equal(result.residual, result.disturbance)
        assert np.all(result.active_relay_timeline == -1)


class TestChannelCache:
    def test_repeated_source_hits_the_process_cache(self, handoff_scenario):
        """Segments at one position share the process-wide channel cache
        (the device keeps no copy of its own) and get identical rooms."""
        from repro import runtime
        from repro.runtime.cache import ChannelCache

        device = OnlineMuteDevice(handoff_scenario, mu=0.15)
        src = Point(0.9, 1.0, 1.3)
        segment = _noise(3, 0.5)
        cache = ChannelCache()
        previous = runtime.set_channel_cache(cache)
        try:
            __, ear, bounds = device._synthesize([(src, segment),
                                                  (src, segment)])
        finally:
            runtime.set_channel_cache(previous)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        np.testing.assert_array_equal(ear[:bounds[1]], ear[bounds[1]:])


class TestValidation:
    def test_empty_schedule_rejected(self, device):
        with pytest.raises(ConfigurationError):
            device.run_session([])

    def test_requires_scenario(self):
        with pytest.raises(ConfigurationError):
            OnlineMuteDevice("nope")
