"""A digital packet relay — the design the paper deliberately avoided.

Paper §1/§4.1: "the wireless relay needs to be custom-made so that
forwarding can be executed in real-time (to maximize lookahead), and
without storing any sound samples (to ensure privacy) ... MUTE embraces
an analog design to bypass delays from digitization and processing."

To show *why*, this module implements the conventional alternative: a
digital relay that samples the microphone, accumulates a frame, encodes
it into a packet, transmits, and plays it out at the receiver.  Its
latency is structural::

    latency = frame duration          (fill the buffer)
            + codec/processing delay
            + radio/stack delay
            + jitter-buffer depth     (to survive retransmissions)

The forwarded stream carries that delay, so the ear-device's lookahead
ledger (:func:`repro.core.lookahead.align`) subtracts it once from the
acoustic lead, which is exactly the resource LANC spends on anti-causal
taps.  A Bluetooth-class 10 ms frame erases the entire lead of a
room-scale relay.

The privacy contrast is also explicit: :attr:`stores_samples` is true —
a digital relay necessarily holds audio in buffers, the thing §4.4's
analog design never does.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..hardware.converters import quantize
from ..utils.validation import (
    check_non_negative,
    check_positive,
    check_waveform,
)

__all__ = ["DigitalRelay", "bluetooth_like_relay", "low_latency_digital_relay"]


class DigitalRelay:
    """Frame-based digital forwarding with structural latency.

    Parameters
    ----------
    audio_rate:
        Sampling rate (Hz).
    frame_s:
        Packet frame duration; samples wait up to this long before they
        can even be transmitted (we charge the full frame: the *last*
        sample of a frame is what the canceler will be missing).
    codec_delay_s / radio_delay_s / jitter_buffer_s:
        The remaining pipeline terms.
    bits:
        Codec resolution; ``None`` disables quantization.
    packet_loss:
        Fraction of frames lost; lost frames play out as silence
        (concealment is left to the canceler, which sees a reference
        dropout).
    seed:
        Seed for the loss process.
    """

    #: Digital relays buffer audio — the paper's privacy concern.
    stores_samples = True

    def __init__(self, audio_rate=8000.0, frame_s=10e-3, codec_delay_s=2e-3,
                 radio_delay_s=1e-3, jitter_buffer_s=0.0, bits=16,
                 packet_loss=0.0, seed=0):
        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.frame_s = check_positive("frame_s", frame_s)
        self.codec_delay_s = check_non_negative("codec_delay_s",
                                                codec_delay_s)
        self.radio_delay_s = check_non_negative("radio_delay_s",
                                                radio_delay_s)
        self.jitter_buffer_s = check_non_negative("jitter_buffer_s",
                                                  jitter_buffer_s)
        self.bits = bits
        if not 0.0 <= packet_loss < 1.0:
            raise ConfigurationError("packet_loss must be in [0, 1)")
        self.packet_loss = float(packet_loss)
        self.seed = seed
        self.frame_samples = max(int(round(self.frame_s * self.audio_rate)),
                                 1)

    @property
    def latency_s(self):
        """Total structural forwarding delay in seconds."""
        return (self.frame_s + self.codec_delay_s + self.radio_delay_s
                + self.jitter_buffer_s)

    @property
    def latency_samples(self):
        """Delay left in the forwarded stream, in whole samples."""
        return int(round(self.latency_s * self.audio_rate))

    def forward(self, audio):
        """Forward audio through the framed digital chain.

        The output is the input delayed by :attr:`latency_samples`,
        quantized, with lost frames zeroed — the stream a receiver
        actually plays out.
        """
        audio = check_waveform("audio", audio)
        processed = audio.copy()
        if self.bits is not None:
            peak = max(float(np.max(np.abs(processed))), 1e-9)
            processed = quantize(processed, self.bits,
                                 full_scale=peak * 1.25)
        if self.packet_loss > 0.0:
            rng = np.random.default_rng(self.seed)
            n_frames = int(np.ceil(processed.size / self.frame_samples))
            lost = rng.uniform(size=n_frames) < self.packet_loss
            for i in np.flatnonzero(lost):
                start = i * self.frame_samples
                processed[start: start + self.frame_samples] = 0.0
        out = np.zeros_like(processed)
        d = self.latency_samples
        if d < processed.size:
            out[d:] = processed[: processed.size - d]
        return out


def bluetooth_like_relay(audio_rate=8000.0):
    """A BLE-audio-class link: 10 ms frames + stack delays (~14 ms)."""
    return DigitalRelay(audio_rate=audio_rate, frame_s=10e-3,
                        codec_delay_s=2.5e-3, radio_delay_s=1.5e-3)


def low_latency_digital_relay(audio_rate=8000.0):
    """An aggressive custom digital link: 2 ms frames (~3.5 ms total)."""
    return DigitalRelay(audio_rate=audio_rate, frame_s=2e-3,
                        codec_delay_s=1e-3, radio_delay_s=0.5e-3)
