"""Recursive least squares — the fast-converging engine of §6.

Paper §6 (head mobility): convergence lag "has been alleviated by
bringing enhanced filtering methods known to converge faster."  RLS is
the canonical such method: it converges in ~2M samples where LMS needs
tens of M, at O(M²) cost per sample — affordable for the moderate tap
counts of tracking problems, not for the 500-tap cancellation filter
(which is why headphone-class DSPs run (N)LMS and why this library keeps
NLMS as the LANC engine).

The implementation is the standard exponentially-weighted RLS with
inverse-correlation recursion, plus the same ``identify_system``-style
convenience used in tests and the convergence ablation.
"""

from __future__ import annotations

import time

import numpy as np

from ... import obs
from ...utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
    check_same_length,
    check_waveform,
)
from . import kernels
from .base import AdaptationResult, mse_curve, record_run_metrics

__all__ = ["RlsFilter"]


class RlsFilter:
    """Exponentially-weighted recursive least squares (causal).

    Parameters
    ----------
    n_taps:
        Filter length ``M`` (per-sample cost is O(M²): keep moderate).
    forgetting:
        λ ∈ (0, 1]; 1 = infinite memory, ~0.99–0.9995 for tracking.
    delta:
        Initial inverse-correlation scale (``P(0) = I/delta``); small
        values start aggressive, large values start cautious.
    """

    def __init__(self, n_taps, forgetting=0.999, delta=1e-2):
        self.n_taps = check_positive_int("n_taps", n_taps)
        self.forgetting = check_in_range("forgetting", forgetting, 0.5, 1.0)
        self.delta = check_positive("delta", delta)
        self.taps = np.zeros(self.n_taps)
        self._window = np.zeros(self.n_taps)   # newest first
        self._P = np.eye(self.n_taps) / self.delta

    def reset(self):
        """Restore the power-up state."""
        self.taps[:] = 0.0
        self._window[:] = 0.0
        self._P = np.eye(self.n_taps) / self.delta

    def run(self, x, d):
        """Adapt over whole waveforms (same contract as LmsFilter.run)."""
        x = check_waveform("x", x)
        d = check_waveform("d", d)
        check_same_length("x", x, "d", d)
        enabled = obs.enabled()
        t_start = time.perf_counter() if enabled else None
        predictions, errors = kernels.rls_run(
            x, d, self.taps, self._window, self._P, self.forgetting,
            context="RlsFilter",
        )
        if enabled:
            record_run_metrics("rlsfilter", errors, d,
                               time.perf_counter() - t_start)
        return AdaptationResult(
            error=errors,
            output=predictions,
            taps=self.taps.copy(),
            mse_trajectory=mse_curve(errors),
        )

    def convergence_samples(self, x, d, threshold_db=-20.0):
        """First sample index where the windowed MSE stays below
        ``threshold_db`` relative to the disturbance power.

        Returns ``None`` if never reached — the comparison metric of the
        convergence ablation.
        """
        d = check_waveform("d", d)
        result = self.run(x, d)
        target = np.mean(d ** 2) * 10.0 ** (threshold_db / 10.0)
        below = result.mse_trajectory < target
        if not below.any():
            return None
        # First index from which it stays below for good.
        last_above = np.flatnonzero(~below)
        if last_above.size == 0:
            return 0
        idx = int(last_above[-1]) + 1
        return idx if idx < d.size else None
