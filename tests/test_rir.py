"""Image-source room impulse responses."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acoustics import (
    Point,
    Room,
    direct_path_ir,
    image_sources,
    room_impulse_response,
)
from repro.acoustics.constants import SPEED_OF_SOUND
from repro.acoustics.propagation import fractional_delay_filter
from repro.acoustics.rir import RirSettings
from repro.errors import ConfigurationError
from tests import oracle

FS = 8000.0
ROOM = Room(5.0, 4.0, 3.0, absorption=0.4)
SRC = Point(1.0, 1.0, 1.5)
MIC = Point(4.0, 3.0, 1.2)


class TestImageSources:
    def test_order_zero_single_image(self):
        images = list(image_sources(ROOM, SRC, 0))
        assert len(images) == 1
        point, bounces = images[0]
        assert bounces == 0
        assert point.as_tuple() == SRC.as_tuple()

    def test_order_one_count(self):
        # Direct + 6 first-order wall images.
        images = list(image_sources(ROOM, SRC, 1))
        assert len(images) == 7
        assert sum(1 for __, b in images if b == 1) == 6

    def test_bounce_counts_bounded(self):
        for __, bounces in image_sources(ROOM, SRC, 3):
            assert 0 <= bounces <= 3

    def test_source_outside_rejected(self):
        with pytest.raises(ConfigurationError):
            list(image_sources(ROOM, Point(9, 9, 9), 1))


class TestRoomImpulseResponse:
    def test_direct_arrival_position(self):
        ir = room_impulse_response(ROOM, SRC, MIC, FS)
        expected = SRC.distance_to(MIC) / SPEED_OF_SOUND * FS
        mag = np.abs(ir)
        first_arrival = np.argmax(mag >= 0.3 * mag.max())
        assert abs(first_arrival - expected) <= 2

    def test_direct_amplitude_spreading(self):
        ir = room_impulse_response(ROOM, SRC, MIC, FS)
        dist = SRC.distance_to(MIC)
        direct_idx = int(round(dist / SPEED_OF_SOUND * FS))
        assert abs(ir[direct_idx]) == pytest.approx(1.0 / dist, rel=0.15)

    def test_more_absorption_less_tail(self):
        live = room_impulse_response(Room(5, 4, 3, absorption=0.1),
                                     SRC, MIC, FS)
        dead = room_impulse_response(Room(5, 4, 3, absorption=0.8),
                                     SRC, MIC, FS)

        def tail_energy(ir):
            peak = np.argmax(np.abs(ir))
            return np.sum(ir[peak + 20:] ** 2)

        assert tail_energy(live) > 3 * tail_energy(dead)

    def test_higher_order_longer(self):
        short = room_impulse_response(ROOM, SRC, MIC, FS,
                                      settings=RirSettings(max_order=1))
        long_ = room_impulse_response(ROOM, SRC, MIC, FS,
                                      settings=RirSettings(max_order=3))
        assert long_.size > short.size

    def test_normalize(self):
        ir = room_impulse_response(ROOM, SRC, MIC, FS, normalize=True)
        assert np.max(np.abs(ir)) == pytest.approx(1.0)

    def test_microphone_outside_rejected(self):
        with pytest.raises(ConfigurationError):
            room_impulse_response(ROOM, SRC, Point(-1, 0, 0), FS)

    def test_deterministic(self):
        a = room_impulse_response(ROOM, SRC, MIC, FS)
        b = room_impulse_response(ROOM, SRC, MIC, FS)
        np.testing.assert_array_equal(a, b)


class TestDirectPathIr:
    def test_delay_and_gain(self):
        ir = direct_path_ir(3.4, FS)
        expected_delay = 3.4 / SPEED_OF_SOUND * FS
        peak = np.argmax(np.abs(ir))
        assert abs(peak - expected_delay) <= 1
        assert np.max(np.abs(ir)) == pytest.approx(1 / 3.4, rel=0.1)

    def test_explicit_gain(self):
        # The fractional-delay kernel spreads amplitude across taps; the
        # DC gain (tap sum) carries the requested gain.
        ir = direct_path_ir(1.0, FS, gain=2.0)
        assert ir.sum() == pytest.approx(2.0, rel=0.01)

    def test_rejects_zero_distance(self):
        with pytest.raises(ConfigurationError):
            direct_path_ir(0.0, FS)


class TestRirSettings:
    def test_rejects_negative_order(self):
        with pytest.raises(ConfigurationError):
            RirSettings(max_order=-1)

    def test_rejects_tiny_sinc(self):
        with pytest.raises(ConfigurationError):
            RirSettings(sinc_taps=1)

    @pytest.mark.parametrize("bad", [31.0, True, "31"],
                             ids=["float", "bool", "str"])
    def test_rejects_non_integer_sinc_taps(self, bad):
        with pytest.raises(ConfigurationError):
            RirSettings(sinc_taps=bad)

    def test_accepts_numpy_integer_sinc_taps(self):
        room = Room(4.0, 3.0, 2.5, absorption=0.5)
        args = (room, Point(1.0, 1.0, 1.2), Point(3.0, 2.0, 1.2), FS)
        numpy_taps = RirSettings(max_order=1, sinc_taps=np.int64(31))
        np.testing.assert_array_equal(
            room_impulse_response(*args, settings=numpy_taps),
            room_impulse_response(*args,
                                  settings=RirSettings(max_order=1)))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


#: A direct path whose delay, 5.999999999999999 samples, has a fraction
#: so close to 1 that ``frac + center`` rounds up to ``center + 1``.
ROUND_UP = dict(room=Room(4.0, 3.0, 2.5, absorption=0.5),
                source=Point(1.0, 1.0, 1.2), mic=Point(1.25, 1.0, 1.2),
                fs=8000.0, speed=333.33333333333337)


class TestArrayBuilderMatchesOracle:
    """The array room builder equals the per-image loop bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.floats(1.5, 12.0)] * 3),
           absorption=st.floats(0.0, 0.95),
           src=st.tuples(*[st.floats(0.0, 1.0)] * 3),
           mic=st.tuples(*[st.floats(0.0, 1.0)] * 3),
           fs=st.sampled_from([8000.0, 16000.0, 44100.0, 11025.5]),
           max_order=st.integers(0, 4),
           sinc_taps=st.integers(3, 40))
    def test_room_impulse_response(self, dims, absorption, src, mic, fs,
                                   max_order, sinc_taps):
        room = Room(*dims, absorption=absorption)
        source = Point(*(f * d for f, d in zip(src, dims)))
        microphone = Point(*(f * d for f, d in zip(mic, dims)))
        cfg = RirSettings(max_order=max_order, sinc_taps=sinc_taps)
        got = room_impulse_response(room, source, microphone, fs,
                                    settings=cfg)
        want = oracle.room_impulse_response(room, source, microphone, fs,
                                            settings=cfg)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("sinc_taps", [30, 31])
    def test_fraction_rounding_up_to_the_next_sample(self, sinc_taps):
        case = ROUND_UP
        center = sinc_taps // 2
        delay = (case["source"].distance_to(case["mic"]) / case["speed"]
                 * case["fs"])
        frac = delay - math.floor(delay)
        assert math.floor(frac + center) == center + 1   # the branch
        cfg = RirSettings(max_order=1, sinc_taps=sinc_taps,
                          speed_of_sound=case["speed"])
        for normalize in (False, True):
            got = room_impulse_response(case["room"], case["source"],
                                        case["mic"], case["fs"],
                                        settings=cfg, normalize=normalize)
            want = oracle.room_impulse_response(
                case["room"], case["source"], case["mic"], case["fs"],
                settings=cfg, normalize=normalize)
            assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=40, deadline=None)
    @given(delay=st.floats(0.0, 200.0), n_taps=st.integers(3, 40))
    @example(delay=16.0, n_taps=31)     # whole delay: one leading zero
    @example(delay=0.3, n_taps=30)      # truncated left tail
    def test_fractional_delay_filter(self, delay, n_taps):
        got = fractional_delay_filter(delay, n_taps=n_taps)
        want = oracle.fractional_delay_filter(delay, n_taps=n_taps)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("max_order", [0, 1, 2, 3])
    def test_image_sources(self, max_order):
        got = [(p.as_tuple(), b)
               for p, b in image_sources(ROOM, SRC, max_order)]
        want = [(p.as_tuple(), b)
                for p, b in oracle.image_sources(ROOM, SRC, max_order)]
        assert got == want
