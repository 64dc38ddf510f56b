"""Amplitude modulation baseline.

The paper justifies FM over AM (§4.1): RF noise and power-amplifier
nonlinearity corrupt *amplitude* directly, while FM hides the audio in
the phase.  This AM implementation exists to make that comparison
quantitative (the ``bench_ablation_fm_vs_am`` benchmark).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..utils.validation import check_in_range, check_positive, check_waveform
from .fm import ZeroPhaseDecimator, resample

__all__ = ["AmModulator", "AmDemodulator"]


class AmModulator:
    """Conventional (DSB full-carrier) AM at complex baseband.

    ``x(t) = Ap * (1 + mu * m(t)) `` with ``|m| <= 1`` assumed; inputs are
    normalized by their peak so the modulation index is honored.
    """

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 modulation_index=0.8, amplitude=1.0):
        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.modulation_index = check_in_range(
            "modulation_index", modulation_index, 0.0, 1.0, inclusive=True
        )
        if self.modulation_index == 0.0:
            raise ConfigurationError("modulation_index must be > 0")
        self.amplitude = check_positive("amplitude", amplitude)

    def modulate(self, audio):
        """Modulate audio onto a complex-baseband AM envelope."""
        audio = check_waveform("audio", audio)
        peak = np.max(np.abs(audio))
        normalized = audio / peak if peak > 0 else audio
        rf_audio = resample(normalized, self.audio_rate, self.rf_rate)
        # Envelope built in place on the full-rate buffer we own; the
        # complex cast is the only remaining full-rate copy (the output
        # itself).
        np.clip(rf_audio, -1.0, 1.0, out=rf_audio)
        rf_audio *= self.modulation_index
        rf_audio += 1.0
        rf_audio *= self.amplitude
        out = np.zeros(rf_audio.size, dtype=np.complex128)
        out.real = rf_audio
        return out


class AmDemodulator:
    """Envelope detector: magnitude, DC removal, then the FM receiver's
    zero-phase low-pass and decimation (:class:`ZeroPhaseDecimator`)."""

    def __init__(self, audio_rate=8000.0, rf_rate=96000.0,
                 modulation_index=0.8):
        self.audio_rate = check_positive("audio_rate", audio_rate)
        self.rf_rate = check_positive("rf_rate", rf_rate)
        self.modulation_index = check_positive(
            "modulation_index", modulation_index
        )
        self._decimator = ZeroPhaseDecimator(self.rf_rate, self.audio_rate)
        #: Shortest baseband the receive filter accepts.
        self.min_samples = self._decimator.min_samples

    def demodulate(self, baseband):
        """Recover audio from the AM envelope."""
        baseband = check_waveform("baseband", baseband,
                                  min_length=self.min_samples,
                                  allow_complex=True)
        envelope = np.abs(baseband)
        envelope -= np.mean(envelope)
        audio = self._decimator(envelope)
        audio /= self.modulation_index
        return audio
