"""Channel inversion: the theory behind the lookahead advantage.

Section 3.2 of the paper argues that the optimal ANC filter contains the
*inverse* of the noise→reference channel, ``h_nr^{-1}``; room responses
are non-minimum-phase (Neely & Allen), so that inverse is non-causal and
a causal system can only realize a truncated — hence suboptimal —
version.  This module makes those statements computable:

* :func:`is_minimum_phase` tests the zero locations of an FIR channel;
* :func:`delayed_inverse` designs the least-squares inverse with a given
  modeling delay (the classic way to "buy" causality with latency);
* :func:`noncausal_inverse_taps` designs a two-sided inverse and
  :func:`truncation_error` measures how much error is left when only
  ``n_future`` of its anti-causal taps are kept — the quantitative form
  of the paper's claim that more lookahead → better inverse filtering.
"""

from __future__ import annotations

import numpy as np

from ..errors import ChannelError
from ..utils.validation import (
    check_impulse_response,
    check_non_negative_int,
    check_positive_int,
)

__all__ = [
    "is_minimum_phase",
    "delayed_inverse",
    "inversion_residual",
    "noncausal_inverse_taps",
    "truncation_error",
]


def is_minimum_phase(ir, tolerance=1e-8):
    """Whether all zeros of the FIR channel lie inside the unit circle.

    Minimum-phase channels have stable causal inverses; room impulse
    responses almost never do.
    """
    ir = check_impulse_response("ir", ir)
    trimmed = np.trim_zeros(ir, "f")
    if trimmed.size <= 1:
        return True
    roots = np.roots(trimmed)
    return bool(np.all(np.abs(roots) < 1.0 + tolerance))


def _convolution_matrix(ir, n_taps):
    """Tall Toeplitz matrix ``C`` with ``C @ g = ir * g`` for len-n_taps g."""
    from scipy import linalg

    n_out = ir.size + n_taps - 1
    col = np.zeros(n_out)
    col[: ir.size] = ir
    row = np.zeros(n_taps)
    row[0] = ir[0]
    return linalg.toeplitz(col, row)


def delayed_inverse(ir, n_taps, delay, regularization=1e-8):
    """Least-squares causal inverse with modeling delay.

    Solves ``min_g || ir * g - delta(delay) ||^2`` over causal ``g`` of
    length ``n_taps``.  Larger ``delay`` yields a dramatically better
    inverse for non-minimum-phase channels — this is exactly the resource
    that lookahead provides to LANC.

    Returns
    -------
    numpy.ndarray
        The inverse filter ``g``.
    """
    from scipy import linalg

    ir = check_impulse_response("ir", ir)
    n_taps = check_positive_int("n_taps", n_taps)
    delay = check_non_negative_int("delay", delay)
    C = _convolution_matrix(ir, n_taps)
    if delay >= C.shape[0]:
        raise ChannelError(
            f"delay {delay} exceeds achievable output length {C.shape[0]}"
        )
    target = np.zeros(C.shape[0])
    target[delay] = 1.0
    gram = C.T @ C + regularization * np.eye(n_taps)
    g = linalg.solve(gram, C.T @ target, assume_a="pos")
    return g


def inversion_residual(ir, inverse, delay):
    """Normalized residual ``|| ir * g - delta(delay) || / || delta ||``.

    0 means perfect inversion; 1 means no better than doing nothing.
    """
    ir = check_impulse_response("ir", ir)
    inverse = check_impulse_response("inverse", inverse)
    delay = check_non_negative_int("delay", delay)
    achieved = np.convolve(ir, inverse)
    target = np.zeros_like(achieved)
    if delay >= target.size:
        raise ChannelError("delay beyond the convolved length")
    target[delay] = 1.0
    return float(np.linalg.norm(achieved - target))


def noncausal_inverse_taps(ir, n_future, n_past, regularization=1e-8):
    """Two-sided least-squares inverse with ``n_future`` anti-causal taps.

    Equivalent to designing a causal inverse of length
    ``n_future + n_past`` with modeling delay ``n_future`` and then
    re-indexing taps to ``k ∈ [-n_future, n_past)``; returned oldest
    (most anti-causal) tap first.
    """
    n_future = check_non_negative_int("n_future", n_future)
    n_past = check_positive_int("n_past", n_past)
    return delayed_inverse(ir, n_future + n_past, n_future,
                           regularization=regularization)


def truncation_error(ir, n_future_list, n_past, regularization=1e-8):
    """Residual inversion error as a function of available future taps.

    For each ``n_future`` in ``n_future_list``, design the best two-sided
    inverse and report the residual.  Monotonically non-increasing in
    ``n_future`` for non-minimum-phase channels — the curve behind the
    paper's Figure 16 trend.

    Returns
    -------
    list of (n_future, residual) tuples.
    """
    out = []
    for n_future in n_future_list:
        g = noncausal_inverse_taps(ir, n_future, n_past,
                                   regularization=regularization)
        out.append((int(n_future), inversion_residual(ir, g, int(n_future))))
    return out
