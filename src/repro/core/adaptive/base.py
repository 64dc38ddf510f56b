"""Shared machinery for the adaptive filters.

Tap-index convention (matches the paper's Algorithm 1): a filter has
``n_future`` anti-causal taps and ``n_past`` causal taps, indexed
``k ∈ [-n_future, n_past - 1]``; its output is::

    y(t) = sum_k  w[k] * x(t - k)

so ``k = -n_future`` multiplies the most futuristic sample
``x(t + n_future)``.  Internally taps are stored oldest-*future*-first:
``taps[0] ↔ k = -n_future`` ... ``taps[-1] ↔ k = n_past - 1``, so
``y(t) = taps · window`` with ``window[i] = x(t + n_future - i)``.  The
kernels read the reverse: row ``t`` of a sliding window over the
reference a :class:`~repro.core.adaptive.kernels.KernelState` holds is
the oldest-first span ``x(t - n_past + 1) … x(t + n_future)``, which
they dot with the reversed taps.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ... import obs
from ...errors import ConfigurationError, ConvergenceError
from ...utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

__all__ = ["TapVector", "AdaptationResult", "record_run_metrics",
           "record_block_metrics"]

#: Error magnitude beyond which a filter is declared divergent.
DIVERGENCE_LIMIT = 1e6


@dataclasses.dataclass
class TapVector:
    """A two-sided tap vector with paper-style indexing helpers."""

    n_future: int
    n_past: int
    values: np.ndarray | None = None

    def __post_init__(self):
        check_non_negative_int("n_future", self.n_future)
        check_positive_int("n_past", self.n_past)
        if self.values is None:
            self.values = np.zeros(self.n_future + self.n_past)
        else:
            self.values = np.asarray(self.values, dtype=np.float64)
            if self.values.shape != (self.n_future + self.n_past,):
                raise ConvergenceError(
                    "tap vector has wrong length "
                    f"{self.values.shape} != ({self.n_future + self.n_past},)"
                )

    def __len__(self):
        return self.values.size

    def tap(self, k):
        """Tap value at paper index ``k ∈ [-n_future, n_past - 1]``."""
        return float(self.values[k + self.n_future])

    def set_tap(self, k, value):
        """Set tap at paper index ``k``."""
        self.values[k + self.n_future] = value

    def copy(self):
        """Deep copy (used by the profile cache)."""
        return TapVector(self.n_future, self.n_past, self.values.copy())


@dataclasses.dataclass
class AdaptationResult:
    """Outcome of a batch adaptation run.

    Attributes
    ----------
    error:
        Residual at the error microphone, per sample.
    output:
        Filter output (the anti-noise fed to the speaker).
    taps:
        Final tap values.
    mse_trajectory:
        Windowed mean-square error over time (convergence curve,
        Figures 7/8).
    """

    error: np.ndarray
    output: np.ndarray
    taps: np.ndarray
    mse_trajectory: np.ndarray

    def converged_error(self, fraction=0.25):
        """RMS of the trailing ``fraction`` of the error (post-convergence)."""
        n = max(int(self.error.size * fraction), 1)
        tail = self.error[-n:]
        return float(np.sqrt(np.mean(np.square(tail))))


def mse_curve(error, window=256):
    """Sliding mean-square error (the convergence plots' y-axis)."""
    error = np.asarray(error, dtype=np.float64)
    window = min(max(int(window), 1), max(error.size, 1))
    squared = np.square(error)
    kernel = np.full(window, 1.0 / window)
    return np.convolve(squared, kernel, mode="same")


def guard_divergence(error_sample, context):
    """Raise :class:`ConvergenceError` when adaptation blows up."""
    if not np.isfinite(error_sample) or abs(error_sample) > DIVERGENCE_LIMIT:
        raise ConvergenceError(
            f"{context}: error sample {error_sample!r} exceeds divergence "
            "limit — reduce the step size mu"
        )


def check_leak(leak):
    """Validate a leaky-LMS decay: a real number in ``[0, 1)``."""
    leak = check_non_negative("leak", leak)
    if leak >= 1.0:
        raise ConfigurationError(f"leak must be in [0, 1), got {leak}")
    return leak


def effective_step(mu, window, normalized, epsilon=1e-8):
    """Step size, optionally normalized by instantaneous window power."""
    mu = check_positive("mu", mu)
    check_non_negative("epsilon", epsilon)
    if not normalized:
        return mu
    power = float(np.dot(window, window))
    return mu / (power + epsilon)


def record_run_metrics(engine, errors, desired, wall_s):
    """Record one batch adaptation run in the obs metrics registry.

    Call **only when** :func:`repro.obs.enabled` — computing the
    misadjustment costs two reductions the disabled path must not pay.

    Emits, labeled ``engine=<name>``:

    * ``adaptive.samples`` (counter) — samples processed;
    * ``adaptive.run_s`` (histogram) — wall time of the run;
    * ``adaptive.misadjustment`` (gauge) — trailing-quarter error power
      over desired/disturbance power (< 1 once adaptation is winning,
      → 0 as it converges).
    """
    registry = obs.get_registry()
    registry.counter("adaptive.samples", engine=engine).inc(errors.size)
    registry.histogram("adaptive.run_s", engine=engine).observe(wall_s)
    tail = errors[-max(errors.size // 4, 1):]
    reference_power = float(np.mean(np.square(desired)))
    if reference_power > 0.0:
        registry.gauge("adaptive.misadjustment", engine=engine).set(
            float(np.mean(np.square(tail))) / reference_power
        )


def record_block_metrics(engine, wall_s, n_samples):
    """Record one streaming block update in the obs metrics registry.

    The tail of ``StreamingLanc.process``: one observation in the
    ``adaptive.block_update_s`` latency histogram — what the
    timing-budget report compares against the real-time deadline — and
    the processed-sample counter.  Labeled ``engine=<name>``.  Call
    **only when** :func:`repro.obs.enabled`.
    """
    registry = obs.get_registry()
    registry.histogram("adaptive.block_update_s",
                       engine=engine).observe(wall_s)
    registry.counter("adaptive.samples", engine=engine).inc(n_samples)
