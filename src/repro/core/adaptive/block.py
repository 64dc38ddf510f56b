"""Block LANC — throughput for the paper's "faster DSP" remark.

The paper caps cancellation at 4 kHz because its DSP can only finish the
per-sample LANC update within a 125 µs sampling interval, and notes that
"a faster DSP will ease the problem".  The classic way to buy that speed
in software is *block* adaptive filtering: freeze the taps for a block
of ``B`` samples, generate the block's anti-noise with one convolution,
and apply one accumulated gradient update per block.  For block lengths
well below the filter's convergence time the trajectory closely tracks
the sample-by-sample algorithm, at a fraction of the cost — in this
implementation, one-to-two orders of magnitude faster than
:class:`LancFilter.run` thanks to vectorized convolutions.

The block update is the standard Block-FxLMS gradient::

    grad(k) = Σ_{t∈block} e(t) · x'(t − k),     k ∈ [−N, L)

computed with a single correlation, normalized by the block's average
filtered-reference power.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import signal as sps

from ... import obs
from ...errors import ConfigurationError
from ...utils.validation import (
    check_impulse_response,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_same_length,
    check_waveform,
)
from .base import AdaptationResult, mse_curve, record_run_metrics

__all__ = ["BlockLancFilter"]


class BlockLancFilter:
    """Block-updating lookahead-aware FxLMS.

    Parameters match :class:`LancFilter` plus ``block_size``.  The taps
    are stored future-first exactly like :class:`LancFilter`, so tap
    vectors can be moved between the two (the profile cache does not
    care which engine produced them).

    Why this engine stays outside :mod:`repro.core.adaptive.kernels`:
    it is a different algorithm, not a second copy of the per-sample
    recursion.  The taps are frozen for a whole block and one
    accumulated, block-power-normalized gradient is applied per block,
    whereas :func:`~repro.core.adaptive.kernels.fxlms_block` updates the
    taps after every sample.  Routing this class through
    ``fxlms_block`` would change its outputs (and its convergence
    trajectory), so it keeps its own convolution-based loop.
    """

    def __init__(self, n_future, n_past, secondary_path, mu=0.2,
                 block_size=64, leak=0.0):
        self.n_future = check_non_negative_int("n_future", n_future)
        self.n_past = check_positive_int("n_past", n_past)
        self.secondary_path = check_impulse_response(
            "secondary_path", secondary_path
        )
        self.mu = check_positive("mu", mu)
        self.block_size = check_positive_int("block_size", block_size)
        if not 0.0 <= leak < 1.0:
            raise ConfigurationError(f"leak must be in [0, 1), got {leak}")
        self.leak = float(leak)
        self.n_taps = self.n_future + self.n_past
        self.taps = np.zeros(self.n_taps)

    def get_taps(self):
        """Copy of the tap vector (future-first, LancFilter-compatible)."""
        return self.taps.copy()

    def set_taps(self, values):
        """Overwrite the taps (e.g. from a LancFilter or a cache)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_taps,):
            raise ConfigurationError(
                f"expected {self.n_taps} taps, got shape {values.shape}"
            )
        self.taps = values.copy()

    def reset(self):
        """Zero the taps."""
        self.taps[:] = 0.0

    def _kernel(self):
        """Convolution kernel for the forward path.

        With the reference segment ``seg[p] = x(start + p − L + 1)``,
        ``np.convolve(seg, taps, 'valid')[j] = Σ_i taps[i]·x(t + N − i)``
        at ``t = start + j`` — exactly the two-sided filter output, with
        the future-first tap storage acting as the kernel directly.
        """
        return self.taps

    def run(self, reference, disturbance, secondary_path_true=None):
        """Run the block ANC loop over aligned waveforms.

        Same signal contract as :meth:`LancFilter.run`; returns an
        :class:`AdaptationResult`.
        """
        x = check_waveform("reference", reference)
        d = check_waveform("disturbance", disturbance)
        check_same_length("reference", x, "disturbance", d)
        s_true = (
            self.secondary_path if secondary_path_true is None
            else check_impulse_response("secondary_path_true",
                                        secondary_path_true)
        )
        T = x.size
        B = self.block_size
        N, L = self.n_future, self.n_past

        # Filtered reference (x' = s_hat * x), padded like the reference.
        xf = np.convolve(x, self.secondary_path)[:T]
        x_pad = np.concatenate([np.zeros(L - 1), x, np.zeros(N)])
        xf_pad = np.concatenate([np.zeros(L - 1), xf, np.zeros(N)])

        errors = np.empty(T)
        outputs = np.empty(T)
        zi = np.zeros(max(s_true.size - 1, 0))

        enabled = obs.enabled()
        block_hist = (
            obs.get_registry().histogram("adaptive.block_update_s",
                                         engine="blocklancfilter")
            if enabled else None
        )
        run_start = time.perf_counter() if enabled else None

        for start in range(0, T, B):
            if enabled:
                block_start = time.perf_counter()
            stop = min(start + B, T)
            n = stop - start
            # Reference slice covering taps k ∈ [-N, L) for this block:
            # acoustic times [start - L + 1, stop - 1 + N].
            seg = x_pad[start: stop + L - 1 + N]
            kernel = self._kernel()
            y = np.convolve(seg, kernel, mode="valid")[:n]
            outputs[start:stop] = y
            if zi.size:
                through, zi = sps.lfilter(s_true, [1.0], y, zi=zi)
            else:
                through = s_true[0] * y
            e = d[start:stop] + through
            errors[start:stop] = e
            if not np.all(np.isfinite(e)) or np.max(np.abs(e)) > 1e6:
                from ...errors import ConvergenceError

                raise ConvergenceError(
                    "BlockLancFilter diverged — reduce mu or block_size"
                )
            # Accumulated gradient: grad[k] = sum_t e(t) xf(t-k).
            segf = xf_pad[start: stop + L - 1 + N]
            grad = np.correlate(segf, e, mode="valid")[: self.n_taps][::-1]
            power = float(np.dot(segf, segf)) / max(segf.size, 1) \
                * self.n_taps
            step = self.mu / (power + 1e-8)
            if self.leak:
                self.taps *= (1.0 - self.leak) ** n
            self.taps -= step * grad
            if enabled:
                block_hist.observe(time.perf_counter() - block_start)

        if enabled:
            record_run_metrics("blocklancfilter", errors, d,
                               time.perf_counter() - run_start)
        return AdaptationResult(
            error=errors,
            output=outputs,
            taps=self.taps.copy(),
            mse_trajectory=mse_curve(errors),
        )
