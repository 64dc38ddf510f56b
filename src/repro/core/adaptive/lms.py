"""Classical LMS / NLMS adaptive filters (causal, single-channel).

These are the textbook engines (Haykin & Widrow, cited as [32] in the
paper) used for tasks *around* the headline algorithm: secondary-path
identification, generic system ID in tests, and as the conventional-ANC
inner loop.  The lookahead-aware variant lives in :mod:`.lanc`.
"""

from __future__ import annotations

import time

import numpy as np

from ... import obs
from ...utils.validation import (
    check_positive,
    check_positive_int,
    check_same_length,
    check_waveform,
)
from . import kernels
from .base import AdaptationResult, mse_curve, record_run_metrics

__all__ = ["LmsFilter", "identify_system"]


class LmsFilter:
    """Causal transversal LMS/NLMS filter.

    Predicts a desired signal ``d(t)`` from the recent input window
    ``[x(t), ..., x(t - n_taps + 1)]`` and adapts by stochastic gradient
    descent on the squared prediction error.

    Parameters
    ----------
    n_taps:
        Filter length.
    mu:
        Step size; with ``normalized=True`` this is the NLMS relative
        step (stable for ``0 < mu < 2``).
    normalized:
        Use NLMS (power-normalized step).  Strongly recommended for
        non-stationary inputs like speech.
    leak:
        Leaky-LMS coefficient decay per update (0 = none).
    """

    def __init__(self, n_taps, mu=0.5, normalized=True, leak=0.0):
        self.n_taps = check_positive_int("n_taps", n_taps)
        self.mu = check_positive("mu", mu)
        self.normalized = bool(normalized)
        if not 0.0 <= leak < 1.0:
            raise ValueError(f"leak must be in [0, 1), got {leak}")
        self.leak = float(leak)
        self.taps = np.zeros(self.n_taps)
        self._window = np.zeros(self.n_taps)  # newest first

    def reset(self):
        """Zero the taps and the input window."""
        self.taps[:] = 0.0
        self._window[:] = 0.0

    def run(self, x, d):
        """Adapt over whole waveforms; returns an :class:`AdaptationResult`.

        ``result.error`` here is the *prediction* error ``d - y`` (for
        system ID, the misadjustment); ``result.output`` the prediction.
        """
        x = check_waveform("x", x)
        d = check_waveform("d", d)
        check_same_length("x", x, "d", d)
        enabled = obs.enabled()
        t_start = time.perf_counter() if enabled else None
        predictions, errors = kernels.lms_run(
            x, d, self.taps, self._window, self.mu,
            normalized=self.normalized, leak=self.leak,
            context="LmsFilter",
        )
        if enabled:
            record_run_metrics("lmsfilter", errors, d,
                               time.perf_counter() - t_start)
        return AdaptationResult(
            error=errors,
            output=predictions,
            taps=self.taps.copy(),
            mse_trajectory=mse_curve(errors),
        )


def identify_system(x, d, n_taps, mu=0.5, n_passes=2):
    """Estimate the FIR system mapping ``x`` to ``d``.

    Runs NLMS over the data ``n_passes`` times (re-using the learned taps)
    and returns the tap estimate — the workhorse behind secondary-path
    estimation.
    """
    n_passes = check_positive_int("n_passes", n_passes)
    lms = LmsFilter(n_taps=n_taps, mu=mu, normalized=True)
    result = None
    for __ in range(n_passes):
        result = lms.run(x, d)
    return result.taps
