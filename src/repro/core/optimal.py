"""Wiener-optimal LANC bounds — how good could the filter possibly be?

Adaptive results always carry misadjustment and convergence transients;
to separate "LANC hasn't converged" from "no linear filter of this shape
can do better", this module computes the least-squares-optimal two-sided
tap vector for given signals::

    w* = argmin_w  || d + Σ_k w(k) · (s ∗ x)(· − k) ||²,   k ∈ [−N, L)

via the Toeplitz normal equations (solved with Levinson recursion in
``scipy.linalg.solve_toeplitz``), plus the residual it achieves.  The
minimizer depends on the filtered reference ``v = s ∗ x`` because the
anti-noise passes through the secondary path before reaching the error
microphone; linearity lets the convolutions commute.

Uses: experiments report "adaptive vs optimal" gaps; the Figure 16
sweep's optimal curve isolates the *causality* limit from adaptation
noise; tests pin LANC's converged error to within a factor of the bound.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ConfigurationError
from ..utils.fastconv import fft_convolve
from ..utils.validation import (
    check_impulse_response,
    check_non_negative_int,
    check_positive_int,
    check_same_length,
    check_waveform,
)

__all__ = ["WienerSolution", "wiener_lanc", "optimal_cancellation_db"]


@dataclasses.dataclass(frozen=True)
class WienerSolution:
    """The optimal tap vector and its achieved residual."""

    taps: np.ndarray          # future-first, LancFilter-compatible
    residual: np.ndarray      # e*(t) = d(t) + (s * y*)(t)
    n_future: int
    n_past: int

    @property
    def residual_rms(self):
        return float(np.sqrt(np.mean(self.residual ** 2)))

    def cancellation_db(self, disturbance):
        """Broadband optimal cancellation against ``disturbance``."""
        from ..utils.units import cancellation_db

        return cancellation_db(disturbance, self.residual)


def _correlations(v, d, n_future, n_past):
    """Autocorrelation of v and cross-correlation v↔d on the tap grid."""
    T = v.size
    M = n_future + n_past
    # r_v[m] = sum_t v(t) v(t - m) for m = 0..M-1 (symmetric).
    full = fft_convolve(v, v[::-1])
    mid = T - 1
    r_v = full[mid: mid + M]
    # p[k] = sum_t d(t) v(t - k) for k = -n_future .. n_past-1.
    cross = fft_convolve(d, v[::-1])
    p = cross[mid - n_future: mid + n_past]
    return r_v, p


def wiener_lanc(reference, disturbance, secondary_path, n_future, n_past,
                regularization=1e-8):
    """Solve for the optimal two-sided canceler on these signals.

    Parameters mirror :class:`repro.core.LancFilter` (aligned reference,
    disturbance at the error mic, true secondary path, tap shape).

    Returns
    -------
    WienerSolution
        ``taps`` is directly loadable into a :class:`LancFilter` via
        ``set_taps`` (same future-first convention).
    """
    from scipy import linalg

    x = check_waveform("reference", reference, min_length=64)
    d = check_waveform("disturbance", disturbance, min_length=64)
    check_same_length("reference", x, "disturbance", d)
    s = check_impulse_response("secondary_path", secondary_path)
    n_future = check_non_negative_int("n_future", n_future)
    n_past = check_positive_int("n_past", n_past)
    M = n_future + n_past
    if M > x.size // 4:
        raise ConfigurationError(
            f"{M} taps need far more than {x.size} samples to estimate"
        )

    v = fft_convolve(x, s)[: x.size]
    r_v, p = _correlations(v, d, n_future, n_past)
    r_v = r_v.copy()
    r_v[0] += regularization * max(r_v[0], 1e-12)

    # Normal equations: R w = -p, with R Toeplitz from r_v.  The tap
    # grid's two-sidedness only shifts which cross-correlation lags feed
    # p; the Gram matrix structure is unchanged.
    try:
        w = linalg.solve_toeplitz((r_v, r_v), -p)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            f"normal equations are singular: {exc}"
        ) from exc

    # w is ordered by k = -n_future .. n_past-1; future-first storage
    # wants index 0 ↔ k = -n_future — already the case.
    y = _two_sided_filter(x, w, n_future)
    residual = d + fft_convolve(y, s)[: d.size]
    return WienerSolution(taps=w, residual=residual,
                          n_future=n_future, n_past=n_past)


def _two_sided_filter(x, taps, n_future):
    """y(t) = Σ_k taps[k + n_future] · x(t − k)."""
    full = np.convolve(x, taps)
    # taps[i] multiplies x(t - (i - n_future)); plain convolution puts
    # taps[i] against x(t - i), so the wanted output is the convolution
    # advanced by n_future samples.  len(full) = len(x) + M - 1 and
    # M - 1 >= n_future (n_past >= 1), so the slice always fits.
    return full[n_future: n_future + x.size]


def optimal_cancellation_db(reference, disturbance, secondary_path,
                            n_future, n_past, settle_fraction=0.25):
    """Convenience: the optimal broadband cancellation for this scene."""
    solution = wiener_lanc(reference, disturbance, secondary_path,
                           n_future, n_past)
    from ..utils.units import cancellation_db

    start = int(disturbance.size * settle_fraction)
    return cancellation_db(disturbance[start:], solution.residual[start:])
