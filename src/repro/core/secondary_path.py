"""Secondary-path (``h_se``) estimation.

The channel from the anti-noise speaker to the error microphone *can* be
measured directly — the system controls the speaker, so it plays a known
probe and identifies the response (the paper: "h_se^{-1} can be
estimated by sending a known preamble from the anti-noise speaker and
measuring the response at the error microphone").  Estimation quality
degrades gracefully with ambient noise present during the probe; the
returned report carries the residual so callers can decide to re-probe.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ChannelError
from ..utils.validation import (
    check_impulse_response,
    check_non_negative,
    check_positive,
    check_positive_int,
)
from .adaptive.lms import LmsFilter

__all__ = ["SecondaryPathEstimate", "estimate_secondary_path"]


@dataclasses.dataclass(frozen=True)
class SecondaryPathEstimate:
    """Result of a probe measurement.

    Attributes
    ----------
    impulse_response:
        The estimated ``ĥ_se``.
    residual_rms:
        RMS of the final prediction error (0 = perfect fit).
    probe_rms:
        Probe level used, for SNR bookkeeping.
    """

    impulse_response: np.ndarray
    residual_rms: float
    probe_rms: float

    @property
    def quality_db(self):
        """Fit quality: probe-to-residual ratio in dB (higher = better)."""
        if self.residual_rms <= 0:
            return float("inf")
        return 20.0 * np.log10(self.probe_rms / self.residual_rms)


def estimate_secondary_path(true_channel, n_taps, probe_duration_s=1.0,
                            sample_rate=8000.0, ambient_noise_rms=0.0,
                            probe_rms=1.0, mu=0.8, n_passes=3, seed=0):
    """Identify ``h_se`` by playing a white-noise probe through it.

    Parameters
    ----------
    true_channel:
        The physical speaker→error-mic impulse response being measured
        (in a deployment this is the unknown; in the simulation we own
        it).
    n_taps:
        Length of the estimate; should cover the channel's support.
    probe_duration_s / probe_rms:
        Probe length and level.
    ambient_noise_rms:
        Ambient noise at the error mic during the probe (uncorrelated
        with the probe), which limits estimate quality.
    mu, n_passes:
        NLMS step and number of passes over the probe recording.

    Returns
    -------
    SecondaryPathEstimate
    """
    true_channel = check_impulse_response("true_channel", true_channel)
    n_taps = check_positive_int("n_taps", n_taps)
    probe_duration_s = check_positive("probe_duration_s", probe_duration_s)
    sample_rate = check_positive("sample_rate", sample_rate)
    ambient_noise_rms = check_non_negative("ambient_noise_rms",
                                           ambient_noise_rms)
    probe_rms = check_positive("probe_rms", probe_rms)
    n_passes = check_positive_int("n_passes", n_passes)

    n_samples = int(probe_duration_s * sample_rate)
    if n_samples < n_taps * 4:
        raise ChannelError(
            f"probe of {n_samples} samples too short to identify "
            f"{n_taps} taps; use at least {n_taps * 4} samples"
        )
    rng = np.random.default_rng(seed)
    probe = probe_rms * rng.standard_normal(n_samples)
    measured = np.convolve(probe, true_channel)[:n_samples]
    if ambient_noise_rms > 0.0:
        measured = measured + ambient_noise_rms * rng.standard_normal(
            n_samples
        )

    lms = LmsFilter(n_taps=n_taps, mu=mu, normalized=True)
    result = None
    for __ in range(n_passes):
        result = lms.run(probe, measured)
    return SecondaryPathEstimate(
        impulse_response=result.taps,
        residual_rms=result.converged_error(),
        probe_rms=probe_rms,
    )
