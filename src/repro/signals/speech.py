"""Synthetic speech sources.

The paper evaluates cancellation of male and female voices and relies on
speech *intermittency* (pauses between sentences) to motivate predictive
sound profiling.  Real recordings are unavailable offline, so this module
synthesizes speech with the classic source–filter model:

* a glottal pulse train at the speaker's pitch (male ≈ 120 Hz, female
  ≈ 210 Hz) with jitter,
* formant resonators (second-order IIR sections) whose center
  frequencies hop per-syllable through a vowel table,
* unvoiced fricative segments made of high-pass noise,
* syllable amplitude envelopes, word gaps, and sentence pauses.

The result has the spectral tilt, harmonic structure, formant peaks and
on/off temporal envelope that drive the paper's experiments, and every
sample is reproducible from the seed.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import SignalSource, normalize_rms

__all__ = ["SyntheticSpeech", "MaleVoice", "FemaleVoice", "VOWEL_FORMANTS"]

#: Approximate first/second formant center frequencies (Hz) for common
#: vowels (average adult values, Peterson & Barney).
VOWEL_FORMANTS = {
    "i": (270.0, 2290.0),
    "e": (530.0, 1840.0),
    "a": (730.0, 1090.0),
    "o": (570.0, 840.0),
    "u": (300.0, 870.0),
}


def _resonator_sos(center_hz, bandwidth_hz, sample_rate):
    """Second-order resonator section for one formant."""
    nyquist = sample_rate / 2.0
    center_hz = min(center_hz, nyquist * 0.95)
    r = np.exp(-np.pi * bandwidth_hz / sample_rate)
    theta = 2.0 * np.pi * center_hz / sample_rate
    # Difference equation poles at r * e^{±j theta}; unit numerator gain.
    a = [1.0, -2.0 * r * np.cos(theta), r * r]
    b = [1.0 - r, 0.0, 0.0]
    return np.hstack([b, a])


class SyntheticSpeech(SignalSource):
    """Formant-synthesized speech with sentence pauses.

    Parameters
    ----------
    pitch_hz:
        Mean fundamental frequency of the voice.
    speech_fraction:
        Long-run fraction of time spent talking (the rest is sentence
        pauses).  1.0 removes pauses entirely — useful when intermittency
        would confound an experiment.
    syllable_rate:
        Syllables per second while talking.
    sentence_length_s:
        Mean talk-burst length before a pause.
    pause_length_s:
        Mean pause length (exponential-ish, clipped).
    """

    name = "speech"

    def __init__(self, pitch_hz=120.0, speech_fraction=0.65,
                 syllable_rate=4.0, sentence_length_s=2.5, pause_length_s=1.2,
                 sample_rate=8000.0, level_rms=1.0, seed=0):
        super().__init__(sample_rate=sample_rate, level_rms=level_rms, seed=seed)
        if not 50.0 <= pitch_hz <= 400.0:
            raise ConfigurationError(
                f"pitch_hz should be a human pitch (50-400 Hz), got {pitch_hz}"
            )
        if not 0.0 < speech_fraction <= 1.0:
            raise ConfigurationError("speech_fraction must be in (0, 1]")
        self.pitch_hz = float(pitch_hz)
        self.speech_fraction = float(speech_fraction)
        self.syllable_rate = float(max(syllable_rate, 0.5))
        self.sentence_length_s = float(max(sentence_length_s, 0.2))
        self.pause_length_s = float(max(pause_length_s, 0.05))

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _glottal_pulses(self, n, rng):
        """Impulse train at pitch with 3% jitter, pre-emphasized."""
        from scipy import signal as sps

        out = np.zeros(n)
        period = self.sample_rate / self.pitch_hz
        pos = 0.0
        while pos < n:
            out[int(pos)] = 1.0
            pos += period * (1.0 + 0.03 * rng.standard_normal())
        # A touch of spectral tilt: integrate the impulses slightly.
        b, a = [1.0], [1.0, -0.94]
        return sps.lfilter(b, a, out)

    def _voiced_syllable(self, n, rng):
        from scipy import signal as sps

        vowel = rng.choice(list(VOWEL_FORMANTS))
        f1, f2 = VOWEL_FORMANTS[vowel]
        src = self._glottal_pulses(n, rng)
        sos = np.vstack([
            _resonator_sos(f1 * rng.uniform(0.92, 1.08), 90.0, self.sample_rate),
            _resonator_sos(f2 * rng.uniform(0.92, 1.08), 140.0, self.sample_rate),
        ])
        return sps.sosfilt(sos, src)

    def _fricative_syllable(self, n, rng):
        from scipy import signal as sps

        noise = rng.standard_normal(n)
        sos = sps.butter(2, 1800.0 / (self.sample_rate / 2.0),
                         btype="highpass", output="sos")
        # Fricatives carry far less power than voiced segments in real
        # speech; keep them audible but clearly secondary.
        return sps.sosfilt(sos, noise) * 0.12

    def _syllable_envelope(self, n):
        """Raised-cosine attack/decay over the syllable."""
        t = np.linspace(0.0, np.pi, n)
        return np.sin(t) ** 0.75

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _talk_schedule(self, n, rng):
        """Boolean activity mask alternating sentences and pauses."""
        if self.speech_fraction >= 1.0:
            return np.ones(n, dtype=bool)
        mask = np.zeros(n, dtype=bool)
        # Scale pause lengths so the long-run duty cycle matches.
        duty = self.speech_fraction
        mean_talk = self.sentence_length_s
        mean_pause = mean_talk * (1.0 - duty) / duty
        pos = 0
        talking = True
        while pos < n:
            if talking:
                seg = rng.uniform(0.6, 1.4) * mean_talk
            else:
                seg = rng.uniform(0.6, 1.4) * mean_pause
            length = max(int(seg * self.sample_rate), 1)
            if talking:
                mask[pos:pos + length] = True
            pos += length
            talking = not talking
        return mask

    def _raw_with_mask(self, n_samples, rng):
        mask = self._talk_schedule(n_samples, rng)
        out = np.zeros(n_samples)
        syllable_len = max(int(self.sample_rate / self.syllable_rate), 16)
        pos = 0
        while pos < n_samples:
            n = min(syllable_len, n_samples - pos)
            if mask[pos]:
                if rng.uniform() < 0.2:
                    syl = self._fricative_syllable(n, rng)
                else:
                    syl = self._voiced_syllable(n, rng)
                out[pos:pos + n] = syl * self._syllable_envelope(n)
            pos += n
        # Syllables that straddle a sentence boundary would otherwise
        # bleed into the pause; gate the waveform with the schedule
        # (short raised-cosine ramps avoid clicks).
        gate = mask.astype(np.float64)
        ramp = int(0.008 * self.sample_rate)
        if ramp > 1:
            kernel = np.hanning(2 * ramp + 1)
            gate = np.convolve(gate, kernel / kernel.sum(), mode="same")
        return out * gate, mask

    def _raw(self, n_samples, rng):
        waveform, _ = self._raw_with_mask(n_samples, rng)
        return waveform

    def generate_with_activity(self, duration):
        """Return ``(waveform, activity_mask)`` for profiling experiments.

        The mask marks samples where the talker is active; the Figure 17
        experiment uses it as ground truth for profile transitions.
        """
        n = int(round(duration * self.sample_rate))
        if n <= 0:
            raise ConfigurationError("duration too short")
        waveform, mask = self._raw_with_mask(n, self._rng())
        return normalize_rms(waveform, self.level_rms), mask


class MaleVoice(SyntheticSpeech):
    """Male-voice preset: ~120 Hz pitch."""

    name = "male voice"

    def __init__(self, sample_rate=8000.0, level_rms=1.0, seed=0, **kwargs):
        kwargs.setdefault("pitch_hz", 120.0)
        super().__init__(sample_rate=sample_rate, level_rms=level_rms,
                         seed=seed, **kwargs)


class FemaleVoice(SyntheticSpeech):
    """Female-voice preset: ~210 Hz pitch, slightly faster syllables."""

    name = "female voice"

    def __init__(self, sample_rate=8000.0, level_rms=1.0, seed=0, **kwargs):
        kwargs.setdefault("pitch_hz", 210.0)
        kwargs.setdefault("syllable_rate", 4.5)
        super().__init__(sample_rate=sample_rate, level_rms=level_rms,
                         seed=seed, **kwargs)
