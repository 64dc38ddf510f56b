"""The analog IoT relay: microphone → FM transmitter → receiver → audio.

Figure 9 of the paper: microphone, low-pass filter, amplifier, matching
network, VCO (FM), PLL up-conversion to 900 MHz, PA, antenna.  The
receiver reverses the chain and hands digital samples to the DSP.

The design constraint the paper emphasizes — *no sample is ever stored*
on the relay (privacy §4.4) — maps here to a purely functional
``forward()``: audio in, audio out, with the only latency being fixed
analog/filter group delay.  That group delay is measured once at
construction with a calibration chirp (``group_delay_samples``) and
removed from the forwarded stream.  ``latency_samples`` is the delay
left in what ``forward()`` returns — 0 here, the frame delay of a
:mod:`~repro.wireless.digital` relay — and the ear-device's ledger
(:func:`repro.core.lookahead.align`) subtracts it from the acoustic lead.

The relay's own noise is drawn once, not on every forward: the mic
self-noise (``default_rng(seed + 1)``) and the RF channel's AWGN
(``default_rng`` of the link seed) depend only on their seed and the
block length, so each is kept read-only in a
:class:`~repro.wireless.rf_channel.FrozenNoise` slot and redrawn only
when the length changes.  Every forward adds exactly the noise a fresh
draw would.  The slots hold noise the relay generated, never a sample
of the audio it forwarded, so the §4.4 property still holds.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..errors import ConfigurationError, SignalError
from ..utils import fastconv, filters
from ..utils.validation import check_non_negative, check_positive, check_waveform
from .fm import FmDemodulator, FmModulator, rational_ratio
from .rf_channel import FrozenNoise, RfChannel, RfChannelConfig

__all__ = ["AnalogRelay", "IdealRelay"]


def _advance(signal, lag):
    """Shift a waveform earlier by ``lag`` (possibly fractional) samples.

    Implemented as an FFT-domain linear phase ramp; block edges see a
    sub-sample of wrap-around, negligible for the multi-second blocks the
    relay forwards.
    """
    if lag == 0.0:
        return signal.copy()
    n = signal.size
    freqs = np.fft.rfftfreq(n)
    spectrum = np.fft.rfft(signal)
    spectrum *= np.exp(2j * np.pi * freqs * lag)
    return np.fft.irfft(spectrum, n)


class IdealRelay:
    """A perfect relay: forwards audio unchanged with optional mic noise.

    Used when an experiment should isolate the ANC algorithm from RF
    effects, and as the reference in relay-quality tests.
    """

    def __init__(self, mic_noise_rms=0.0, seed=0):
        self.mic_noise_rms = check_non_negative("mic_noise_rms", mic_noise_rms)
        self.seed = seed
        self.latency_samples = 0

    def forward(self, audio):
        """Return the forwarded audio (plus microphone self-noise)."""
        audio = check_waveform("audio", audio)
        if obs.enabled():
            obs.get_registry().counter("relay.forwarded_samples",
                                       relay="ideal").inc(audio.size)
        if self.mic_noise_rms == 0.0:
            return audio.copy()
        rng = np.random.default_rng(self.seed)
        return audio + self.mic_noise_rms * rng.standard_normal(audio.size)


class AnalogRelay:
    """End-to-end analog FM relay with RF impairments.

    Parameters
    ----------
    audio_rate:
        Audio sampling rate at the DSP (Hz).
    rf_rate:
        Complex-baseband simulation rate (Hz).
    deviation_hz:
        FM peak deviation.
    channel_config:
        :class:`RfChannelConfig` impairments; default is a clean indoor
        link with 40 dB SNR.
    mic_noise_rms:
        Self-noise of the cheap MEMS microphone, at the audio level.
    lpf_cutoff_hz:
        Anti-alias low-pass in the analog front end: an order-4
        Butterworth, applied as its impulse response
        (:func:`~repro.utils.filters.butter_fir`).
    """

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 deviation_hz=12000.0, channel_config=None,
                 mic_noise_rms=1e-3, lpf_cutoff_hz=None, seed=0):
        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.mic_noise_rms = check_non_negative("mic_noise_rms", mic_noise_rms)
        self.seed = seed
        cutoff = lpf_cutoff_hz or self.audio_rate / 2.0 * 0.95
        if not 0 < cutoff < self.audio_rate / 2.0:
            raise ConfigurationError(
                f"lpf_cutoff_hz must be in (0, {self.audio_rate / 2}), "
                f"got {cutoff}"
            )
        self.lpf_cutoff_hz = cutoff
        self._front_fir = filters.butter_fir(4,
                                             cutoff / (self.audio_rate / 2.0))
        self.modulator = FmModulator(
            audio_rate=self.audio_rate, rf_rate=self.rf_rate,
            deviation_hz=deviation_hz,
        )
        self.demodulator = FmDemodulator(
            audio_rate=self.audio_rate, rf_rate=self.rf_rate,
            deviation_hz=deviation_hz,
        )
        self.channel = RfChannel(
            channel_config or RfChannelConfig(snr_db=40.0, seed=seed),
            rf_rate=self.rf_rate,
        )
        self._mic_noise = FrozenNoise(lambda rng, n: rng.standard_normal(n))
        # n audio samples become ceil(n·up/down) at the RF rate.
        up, down = rational_ratio(self.audio_rate, self.rf_rate)
        #: Shortest block :meth:`forward` accepts: the receiver's
        #: zero-phase filter needs ``demodulator.min_samples`` RF samples.
        self.min_samples = (self.demodulator.min_samples - 1) * down // up + 1
        self.group_delay_samples = self._calibrate_group_delay()
        self.latency_samples = 0    # forward() removes the group delay

    def _chain(self, audio):
        """Mic front-end → FM → RF channel → demodulator.

        With observability enabled, demodulator time lands in the
        ``relay.demod_s{relay=analog}`` histogram — the dominant
        receive-side cost of the chain.
        """
        shaped = fastconv.fir_apply(audio, self._front_fir)
        if self.mic_noise_rms > 0.0:
            shaped += self.mic_noise_rms * self._mic_noise(self.seed + 1,
                                                           shaped.size)
        # The modulator's full-rate output is freed when the channel
        # returns, not held through demodulation.
        impaired = self.channel.apply(self.modulator.modulate(shaped))
        if obs.enabled():
            t_start = time.perf_counter()
            demodulated = self.demodulator.demodulate(impaired)
            obs.get_registry().histogram("relay.demod_s",
                                         relay="analog").observe(
                time.perf_counter() - t_start)
            return demodulated
        return self.demodulator.demodulate(impaired)

    def _calibrate_group_delay(self):
        """Measure the fixed chain group delay with a chirp probe.

        Returns a *fractional* sample count: the correlation peak is
        refined with parabolic interpolation, because the discriminator
        and resamplers leave a sub-sample offset that would otherwise
        read as high-frequency error.
        """
        n = int(self.audio_rate * 0.25)
        t = np.arange(n) / self.audio_rate
        # A linear chirp from f0 to f1 over the probe, as scipy's chirp.
        f0, f1 = 100.0, self.audio_rate * 0.4
        sweep = (f1 - f0) / t[-1]
        probe = np.cos(2 * np.pi * (f0 * t + 0.5 * sweep * t * t))
        out = self._chain(probe)
        m = min(probe.size, out.size)
        corr = np.correlate(out[:m], probe[:m], mode="full")
        peak = int(np.argmax(np.abs(corr)))
        lag = float(peak - (m - 1))
        if 0 < peak < corr.size - 1:
            y0, y1, y2 = np.abs(corr[peak - 1: peak + 2])
            denom = y0 - 2.0 * y1 + y2
            if abs(denom) > 1e-12:
                lag += 0.5 * (y0 - y2) / denom
        return max(lag, 0.0)

    def forward(self, audio):
        """Forward an audio block through the full relay chain.

        The output is aligned to the input (the calibrated group delay,
        including its fractional part, is removed) and trimmed/padded to
        the input length, so downstream code can treat RF forwarding as
        effectively instantaneous — the paper's premise, with the chain's
        distortions intact.
        """
        audio = check_waveform("audio", audio)
        if audio.size < self.min_samples:
            raise SignalError(
                f"audio must have at least {self.min_samples} samples, got "
                f"{audio.size}: the receiver's zero-phase filter needs "
                f"{self.demodulator.min_samples} samples at "
                f"{self.rf_rate:g} Hz")
        with obs.span("relay.forward", relay="analog", samples=audio.size):
            out = self._chain(audio)
            aligned = _advance(out, self.group_delay_samples)
            if aligned.size < audio.size:
                aligned = np.concatenate(
                    [aligned, np.zeros(audio.size - aligned.size)]
                )
            if obs.enabled():
                obs.get_registry().counter("relay.forwarded_samples",
                                           relay="analog").inc(audio.size)
            return aligned[: audio.size]

    def audio_snr_db(self, audio):
        """End-to-end *coherent* audio SNR through the relay.

        The chain applies a deterministic linear response (front-end LPF,
        resampler roll-off); an adaptive canceler absorbs that into its
        channel estimate, so it is not "noise" in the ANC sense.  What
        degrades cancellation is the incoherent residual — RF noise, mic
        self-noise, FM click noise.  Magnitude-squared coherence separates
        the two: per frequency, ``SNR(f) = C(f) / (1 - C(f))``; the
        returned figure is the output-power-weighted aggregate in dB.
        """
        from scipy import signal as sps

        audio = check_waveform("audio", audio, min_length=256)
        forwarded = self.forward(audio)
        nperseg = min(1024, audio.size // 4)
        freqs, coherence = sps.coherence(audio, forwarded,
                                         fs=self.audio_rate, nperseg=nperseg)
        __, pyy = sps.welch(forwarded, fs=self.audio_rate, nperseg=nperseg)
        coherence = np.clip(coherence, 0.0, 1.0 - 1e-9)
        coherent_power = float(np.sum(pyy * coherence))
        incoherent_power = float(np.sum(pyy * (1.0 - coherence)))
        if incoherent_power <= 0.0:
            return float("inf")
        snr = 10.0 * np.log10(coherent_power / incoherent_power)
        if obs.enabled():
            obs.get_registry().gauge("relay.audio_snr_db",
                                     relay="analog").set(snr)
        return snr
