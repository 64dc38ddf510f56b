"""Lookahead accounting — Eq. 3 and Eq. 4 of the paper.

Two numbers rule the system:

* the **lag**: how far the reference the relay delivers leads the ear,
  the acoustic lead ``(d_e − d_r) / v`` (Eq. 4) less any delay the relay
  leaves in its stream;
* the **pipeline latency**: ADC + DSP + DAC + speaker (Eq. 3's right
  side).

Every driver aligns through one ledger, :func:`align`: ``N = ⌊lag −
pipeline⌋`` anti-causal taps, and no run at all when the lag cannot
cover the pipeline.  The Figure 16 *delayed line buffer* keeps the
alignment and lowers the tap cap.  :class:`LookaheadBudget` reports the
same ledger in seconds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..acoustics.constants import SPEED_OF_SOUND
from ..errors import ConfigurationError, LookaheadError
from ..utils.validation import check_non_negative, check_positive

__all__ = ["lookahead_seconds", "lookahead_samples", "align",
           "LookaheadBudget"]


def lookahead_seconds(de_m, dr_m, speed=SPEED_OF_SOUND):
    """Paper Eq. 4: ``(d_e − d_r) / v``.

    Positive when the relay is closer to the source than the ear; 1 m of
    advantage ≈ 3 ms.  May legitimately be negative (relay behind the
    user) — that is what relay selection detects and rejects.
    """
    de_m = check_non_negative("de_m", de_m)
    dr_m = check_non_negative("dr_m", dr_m)
    speed = check_positive("speed", speed)
    return (de_m - dr_m) / speed


def lookahead_samples(de_m, dr_m, sample_rate, speed=SPEED_OF_SOUND):
    """Eq. 4 in whole samples (floor — partial samples don't buy a tap)."""
    sample_rate = check_positive("sample_rate", sample_rate)
    return math.floor(lookahead_seconds(de_m, dr_m, speed) * sample_rate)


def align(forwarded, lag, pipeline_latency_s, sample_rate, n_future_max):
    """Paper Eq. 3: the reference a ``lag``-sample lead buys, and its N.

    ``forwarded`` (the stream as the relay delivers it) is delayed by
    ``lag`` whole samples, zeros before the shift: all zeros when ``lag``
    is at least its length.  ``N = min(n_future_max, ⌊lag − pipeline⌋)``
    never exceeds the usable lead, and ``N = 0`` still runs.  Raises
    :class:`~repro.errors.LookaheadError` when ``lag`` is shorter than
    the pipeline.  Returns ``(reference, n_future)``.
    """
    forwarded = np.asarray(forwarded, dtype=np.float64)
    lag = int(lag)
    sample_rate = check_positive("sample_rate", sample_rate)
    pipeline_latency_s = check_non_negative("pipeline_latency_s",
                                            pipeline_latency_s)
    n_future = _future_taps(lag, pipeline_latency_s, sample_rate)
    if n_future < 0:
        usable_ms = (lag / sample_rate - pipeline_latency_s) * 1e3
        raise LookaheadError(
            f"usable lookahead {usable_ms:.2f} ms is negative — reposition "
            "the relay (or let relay selection reject it)"
        )
    reference = np.zeros_like(forwarded)
    if lag < forwarded.size:
        reference[lag:] = forwarded[: forwarded.size - lag]
    return reference, min(int(n_future_max), n_future)


def _future_taps(lag, pipeline_latency_s, sample_rate):
    """Eq. 3 on the sample grid: ``⌊lag − pipeline · fs⌋``, the taps a
    whole-sample ``lag`` leaves once the pipeline is paid (negative when
    it cannot pay it).  The pipeline is read back to 6 decimals of a
    sample, so a whole-sample pipeline given in seconds is that whole
    number (``7 / 48000 · 48000`` lands one ulp above 7)."""
    return math.floor(lag - round(pipeline_latency_s * sample_rate, 6))


@dataclasses.dataclass(frozen=True)
class LookaheadBudget:
    """The lookahead ledger of one relay↔ear configuration, in seconds.

    The report form of :func:`align`: ``summary``, ``obs-report`` and
    the timing experiment read it.

    Parameters
    ----------
    acoustic_lead_s:
        How far the delivered reference leads the ear (possibly
        negative): the Eq. 4 lead less any relay delay.
    pipeline_latency_s:
        The Eq. 3 sum for the ear device.
    """

    acoustic_lead_s: float
    pipeline_latency_s: float = 0.0

    def __post_init__(self):
        if self.pipeline_latency_s < 0:
            raise ConfigurationError(
                "pipeline latency must be >= 0, "
                f"got {self.pipeline_latency_s}"
            )

    @property
    def usable_lookahead_s(self):
        """Lookahead left after the pipeline is paid."""
        return self.acoustic_lead_s - self.pipeline_latency_s

    def usable_future_taps(self, sample_rate):
        """``N`` — anti-causal taps LANC may use (≥ 0), as :func:`align`
        counts them: ``⌊lag − pipeline · fs⌋`` with ``lag`` the lead in
        whole samples.  A lead within rounding of a whole number of
        samples (``lag / fs`` read back) is that number.
        """
        sample_rate = check_positive("sample_rate", sample_rate)
        lag = math.floor(round(self.acoustic_lead_s * sample_rate, 6))
        return max(_future_taps(lag, self.pipeline_latency_s, sample_rate),
                   0)

    @property
    def meets_deadline(self):
        """Eq. 3: lookahead covers the pipeline (timing bottleneck gone)."""
        return self.usable_lookahead_s >= 0.0

    @property
    def playback_lag_s(self):
        """Residual anti-noise lateness when the deadline is missed.

        Zero for MUTE (Figure 5b); the phase-error source for
        conventional headphones (Figure 5a).
        """
        return max(-self.usable_lookahead_s, 0.0)
