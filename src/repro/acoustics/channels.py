"""FIR acoustic channels: block and streaming application.

An :class:`AcousticChannel` wraps an impulse response and applies it to
waveforms.  The streaming interface (``step`` / ``process_block``) keeps
filter state across calls, which the sample-loop ANC simulator relies on.

Convolution routes through the shared cached-FFT engine
(:mod:`repro.utils.fastconv`): the spectrum of each impulse response is
transformed once and reused across every ``apply`` call — the hot-path
fix a stage profile of the channel step motivated.
"""

from __future__ import annotations

import numpy as np

from ..errors import ChannelError
from ..utils import fastconv, filters
from ..utils.validation import check_impulse_response, check_waveform

__all__ = ["AcousticChannel", "cascade", "channel_delay_samples"]


def channel_delay_samples(ir, threshold=0.5):
    """Direct-arrival delay: first tap whose magnitude reaches
    ``threshold`` × the peak magnitude.

    The direct path is the strongest arrival in free field and in all but
    pathological rooms, so this lands on (or within the sinc-interpolation
    ripple of) the true propagation delay.
    """
    ir = check_impulse_response("ir", ir)
    magnitudes = np.abs(ir)
    peak = magnitudes.max()
    if peak <= 0:
        raise ChannelError("impulse response has no energy")
    return int(np.argmax(magnitudes >= threshold * peak))


class AcousticChannel:
    """A linear time-invariant acoustic path.

    Parameters
    ----------
    impulse_response:
        FIR coefficients; index 0 is zero delay.
    name:
        Label used in diagnostics (e.g. ``"h_ne"``).
    """

    def __init__(self, impulse_response, name="channel"):
        self._attach(
            check_impulse_response("impulse_response", impulse_response),
            str(name))

    @classmethod
    def from_checked(cls, ir, name="channel"):
        """A channel over ``ir``, a float64 response that has already
        passed :func:`~repro.utils.validation.check_impulse_response`
        and is handed over to the channel (not copied).

        The channel cache builds every hit this way: re-checking a
        response it validated on insert would cost more than the rest
        of the hit.
        """
        channel = cls.__new__(cls)
        channel._attach(ir, str(name))
        return channel

    def _attach(self, ir, name):
        self.ir = ir
        self.name = name
        self._state = np.zeros(max(ir.size - 1, 1))
        # Shares the carry buffer with step(), so block and per-sample
        # streaming can interleave on one channel.
        self._stream = fastconv.StreamingFir(ir, state=self._state)

    def __len__(self):
        return self.ir.size

    def __repr__(self):
        return f"AcousticChannel(name={self.name!r}, taps={self.ir.size})"

    @property
    def delay_samples(self):
        """Delay of the dominant (direct) arrival in samples."""
        return channel_delay_samples(self.ir)

    def apply(self, signal):
        """Convolve a whole waveform (stateless; output length = input)."""
        signal = check_waveform("signal", signal)
        return fastconv.fir_apply(signal, self.ir, mode="same")

    def apply_full(self, signal):
        """Full convolution including the reverberant tail."""
        signal = check_waveform("signal", signal)
        return fastconv.fir_apply(signal, self.ir, mode="full")

    def step(self, sample):
        """Push one input sample through the channel (stateful)."""
        if self.ir.size == 1:
            return float(self.ir[0] * sample)
        out = self.ir[0] * sample + self._state[0]
        self._state[:-1] = self._state[1:]
        self._state[-1] = 0.0
        self._state[: self.ir.size - 1] += self.ir[1:] * sample
        return float(out)

    def process_block(self, block):
        """Streaming block convolution (stateful across calls)."""
        block = check_waveform("block", block)
        return self._stream.process(block)

    def reset(self):
        """Clear streaming state."""
        self._state[:] = 0.0

    def frequency_response(self, sample_rate, n_points=512):
        """Return ``(freqs_hz, complex_response)`` at ``n_points``
        frequencies from 0 Hz up to (not including) Nyquist."""
        w = np.linspace(0.0, np.pi, n_points, endpoint=False)
        return w * (sample_rate / (2.0 * np.pi)), filters.freqz(self.ir, w)


def cascade(*channels, name=None):
    """Compose channels in series into a single equivalent channel."""
    if not channels:
        raise ChannelError("cascade requires at least one channel")
    ir = np.array([1.0])
    for ch in channels:
        ir = fastconv.fir_apply(ir, ch.ir, mode="full")
    label = name or "*".join(ch.name for ch in channels)
    return AcousticChannel(ir, name=label)
