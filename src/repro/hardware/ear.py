"""Ear-canal coupling — cancellation at the eardrum vs. at the error mic.

Paper §6: "We have aimed at achieving noise cancellation at the
measurement microphone, under the assumption that the ear-drum is also
located close to the error microphone.  Bose, Sony ... utilize
anatomical ear models (e.g., KEMAR head) and design for cancellation at
the human ear-drum."

The physics: the eardrum sits ~25 mm down the canal from where an
open-ear device's error microphone can be.  Ambient noise and the
anti-noise speaker's output do **not** couple into the canal
identically — they arrive from different directions and distances, so
their canal transfer functions differ by a small delay and spectral
tilt.  Perfect cancellation at the error mic therefore leaves a residual
at the drum that grows with frequency (phase error ∝ f·Δτ), exactly the
kind of mismatch KEMAR-based design calibrates out.

:class:`EarCanalCoupling` models the two paths:

* noise → drum: canal resonance only;
* speaker → drum: canal resonance *plus* a mismatch delay and tilt.

``drum_pressure()`` composes what the eardrum hears given the ambient
and anti-noise components measured at the error-mic reference point, and
``calibrated()`` returns the coupling with the mismatch dialed out (the
KEMAR-fit ideal).
"""

from __future__ import annotations

import numpy as np

from ..acoustics.propagation import fractional_delay_filter
from ..errors import ConfigurationError
from ..utils import fastconv, filters
from ..utils.validation import check_non_negative, check_positive, check_waveform

__all__ = ["EarCanalCoupling"]


class EarCanalCoupling:
    """Error-mic-to-eardrum coupling with a speaker-path mismatch.

    Parameters
    ----------
    sample_rate:
        Audio rate (Hz).
    canal_resonance_hz / resonance_gain_db:
        First quarter-wave resonance of the open canal (~2.7 kHz, up to
        ~+10 dB at the drum).
    mismatch_delay_s:
        Extra propagation delay of the *speaker's* sound into the canal
        relative to the ambient field (tens of microseconds).
    mismatch_tilt_db:
        Gentle high-frequency gain difference of the speaker path
        (positive = speaker couples hotter at high frequency).
    """

    def __init__(self, sample_rate=8000.0, canal_resonance_hz=2700.0,
                 resonance_gain_db=8.0, mismatch_delay_s=35e-6,
                 mismatch_tilt_db=1.5):
        self.sample_rate = check_positive("sample_rate", sample_rate)
        nyquist = self.sample_rate / 2.0
        if not 0.0 < canal_resonance_hz < nyquist:
            raise ConfigurationError(
                f"canal_resonance_hz must be in (0, {nyquist})"
            )
        self.canal_resonance_hz = float(canal_resonance_hz)
        self.resonance_gain_db = check_non_negative(
            "resonance_gain_db", resonance_gain_db
        )
        self.mismatch_delay_s = check_non_negative(
            "mismatch_delay_s", mismatch_delay_s
        )
        self.mismatch_tilt_db = float(mismatch_tilt_db)
        self._canal_fir = self._design_canal()
        self._mismatch_fir = self._design_mismatch()

    # ------------------------------------------------------------------
    # Filter design
    # ------------------------------------------------------------------
    def _design_canal(self, n_taps=65):
        grid = np.linspace(0.0, self.sample_rate / 2.0, 256)
        gain = 1.0 + (10.0 ** (self.resonance_gain_db / 20.0) - 1.0) \
            * np.exp(-((grid - self.canal_resonance_hz)
                       / (0.35 * self.canal_resonance_hz)) ** 2)
        return filters.firwin2(n_taps, grid, gain, fs=self.sample_rate)

    def _design_mismatch(self, n_taps=33):
        grid = np.linspace(0.0, self.sample_rate / 2.0, 128)
        tilt = 10.0 ** (self.mismatch_tilt_db / 20.0
                        * (grid / (self.sample_rate / 2.0)))
        tilt_fir = filters.firwin2(n_taps, grid, tilt, fs=self.sample_rate)
        delay = self.mismatch_delay_s * self.sample_rate
        delay_fir = fractional_delay_filter(delay + n_taps // 2,
                                            n_taps=n_taps)
        combined = np.convolve(tilt_fir, delay_fir)
        # Remove the two linear-phase centering delays so only the
        # physical mismatch delay remains.
        center = (n_taps - 1) // 2 + n_taps // 2
        return combined[center:]

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def ambient_to_drum(self, ambient):
        """Ambient pressure at the error-mic point → at the drum."""
        ambient = check_waveform("ambient", ambient)
        out = fastconv.fir_apply(ambient, self._canal_fir, mode="full")
        d = (self._canal_fir.size - 1) // 2
        return out[d: d + ambient.size]

    def speaker_to_drum(self, anti_noise):
        """Anti-noise at the error-mic point → at the drum (mismatched)."""
        anti_noise = check_waveform("anti_noise", anti_noise)
        through_mismatch = fastconv.fir_apply(anti_noise, self._mismatch_fir,
                                              mode="same")
        return self.ambient_to_drum(through_mismatch)

    def drum_pressure(self, ambient, anti_noise):
        """Total eardrum signal from the two components at the mic point.

        ``ambient + anti_noise`` is what the error microphone reads (and
        what LANC drives to zero); the drum hears each through its own
        path, so it keeps a mismatch residual.
        """
        ambient, anti_noise = (check_waveform("ambient", ambient),
                               check_waveform("anti_noise", anti_noise))
        if ambient.size != anti_noise.size:
            raise ConfigurationError(
                "ambient and anti_noise must share a length"
            )
        return self.ambient_to_drum(ambient) + self.speaker_to_drum(
            anti_noise)

    def calibrated(self):
        """The KEMAR-fit ideal: no speaker-path mismatch."""
        return EarCanalCoupling(
            sample_rate=self.sample_rate,
            canal_resonance_hz=self.canal_resonance_hz,
            resonance_gain_db=self.resonance_gain_db,
            mismatch_delay_s=0.0,
            mismatch_tilt_db=0.0,
        )

    def mismatch_residual_db(self, freqs):
        """Closed-form residual at the drum for perfect mic cancellation.

        If the mic reads zero (anti-noise = −ambient there), the drum
        hears ``H_canal·(1 − H_mismatch)·ambient``; this returns
        ``20·log10 |1 − H_mismatch|`` — the per-frequency floor the
        mismatch imposes.
        """
        freqs = np.asarray(freqs, dtype=float)
        h = filters.freqz(self._mismatch_fir,
                          2.0 * np.pi * freqs / self.sample_rate)
        return 20.0 * np.log10(np.maximum(np.abs(1.0 - h), 1e-9))
