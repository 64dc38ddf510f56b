"""The analog IoT relay: microphone → FM transmitter → receiver → audio.

Figure 9 of the paper: microphone, low-pass filter, amplifier, matching
network, VCO (FM), PLL up-conversion to 900 MHz, PA, antenna.  The
receiver reverses the chain and hands digital samples to the DSP.

The design constraint the paper emphasizes — *no sample is ever stored*
on the relay (privacy §4.4) — maps here to a stateless, purely
functional ``forward()``: audio in, audio out, with the only latency
being fixed analog/filter group delay.  That group delay is measured
once at construction with a calibration chirp and exposed as
``latency_samples`` so the ear-device can account for it in its
lookahead budget (it is microseconds–milliseconds, far below the
acoustic lookahead).
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..utils.validation import check_non_negative, check_positive, check_waveform
from .fm import FmDemodulator, FmModulator
from .rf_channel import RfChannel, RfChannelConfig

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
        Anti-alias low-pass in the analog front end.
    """

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 deviation_hz=12000.0, channel_config=None,
                 mic_noise_rms=1e-3, lpf_cutoff_hz=None, seed=0):
        from scipy import signal as sps

        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.mic_noise_rms = check_non_negative("mic_noise_rms", mic_noise_rms)
        self.seed = seed
        cutoff = lpf_cutoff_hz or self.audio_rate / 2.0 * 0.95
        if not 0 < cutoff <= self.audio_rate / 2.0:
            raise ConfigurationError(
                f"lpf_cutoff_hz must be in (0, {self.audio_rate / 2}], "
                f"got {cutoff}"
            )
        self._front_sos = sps.butter(
            4, cutoff / (self.audio_rate / 2.0), btype="lowpass", output="sos"
        )
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
        self.latency_samples = self._calibrate_latency()

    def _chain(self, audio):
        """Mic front-end → FM → RF channel → demodulator.

        With observability enabled, demodulator time lands in the
        ``relay.demod_s{relay=analog}`` histogram — the dominant
        receive-side cost of the chain.
        """
        from scipy import signal as sps

        shaped = sps.sosfilt(self._front_sos, audio)
        if self.mic_noise_rms > 0.0:
            rng = np.random.default_rng(self.seed + 1)
            shaped = shaped + self.mic_noise_rms * rng.standard_normal(
                shaped.size
            )
        baseband = self.modulator.modulate(shaped)
        impaired = self.channel.apply(baseband)
        if obs.enabled():
            t_start = time.perf_counter()
            demodulated = self.demodulator.demodulate(impaired)
            obs.get_registry().histogram("relay.demod_s",
                                         relay="analog").observe(
                time.perf_counter() - t_start)
            return demodulated
        return self.demodulator.demodulate(impaired)

    def _calibrate_latency(self):
        """Measure the fixed chain group delay with a chirp probe.

        Returns a *fractional* sample count: the correlation peak is
        refined with parabolic interpolation, because the discriminator
        and resamplers leave a sub-sample offset that would otherwise
        read as high-frequency error.
        """
        from scipy import signal as sps

        n = int(self.audio_rate * 0.25)
        t = np.arange(n) / self.audio_rate
        probe = sps.chirp(t, f0=100.0, f1=self.audio_rate * 0.4, t1=t[-1])
        out = self._chain(probe)
        m = min(probe.size, out.size)
        corr = sps.correlate(out[:m], probe[:m], mode="full")
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
        with obs.span("relay.forward", relay="analog", samples=audio.size):
            out = self._chain(audio)
            aligned = _advance(out, self.latency_samples)
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
