"""Kernel state: the reference/filtered-reference history every engine shares.

A :class:`KernelState` is the *signal* half of an adaptive run — the
aligned reference, its filtered-x companion ``x' = ŝ * x``, the true
secondary path the anti-noise rings through, and the two-sided tap
geometry in the paper's convention ``k ∈ [-n_future, n_past - 1]``
(``k = -n_future`` multiplies the most futuristic sample
``x(t + n_future)``).  The *algorithm* half — how that state is walked
— lives in :mod:`.vector`.

Samples arrive through :meth:`KernelState.extend`, which maintains the
filtered reference incrementally with :func:`scipy.signal.lfilter`
state; :attr:`time` / :attr:`y_recent` carry the processed-sample clock
and the anti-noise still ringing through the secondary path between
blocks.  A whole-signal run is the same state fed ``x ⊕ 0`` (the
reference plus ``n_future`` zeros) and walked as one block, so every
driver reads the same filtered reference past the signal's end:
``ŝ * (x ⊕ 0)``.
"""

from __future__ import annotations

import numpy as np

from ....errors import ConfigurationError
from ....utils.validation import (
    check_impulse_response,
    check_non_negative_int,
    check_positive_int,
    check_waveform,
)

__all__ = ["KernelState"]


class KernelState:
    """Signal state for a two-sided (lookahead-aware) FxLMS kernel.

    Parameters
    ----------
    n_future / n_past:
        Tap geometry: ``k ∈ [-n_future, n_past - 1]``.
    secondary_estimate:
        ``ŝ`` — the filter's model of the speaker→error-mic path, used
        to build the filtered reference.
    secondary_true:
        ``s`` — the physical path the anti-noise actually rings through
        (defaults to ``secondary_estimate``).

    Attributes
    ----------
    x / xf:
        Raw aligned reference and filtered reference delivered so far
        (unpadded, error-mic time base).
    y_recent:
        Anti-noise output history, newest first — what is still ringing
        through ``secondary_true``.  A fresh state starts from silence.
    time:
        Number of error-mic samples processed so far.
    """

    def __init__(self, n_future, n_past, secondary_estimate,
                 secondary_true=None):
        self.n_future = check_non_negative_int("n_future", n_future)
        self.n_past = check_positive_int("n_past", n_past)
        self.secondary_estimate = check_impulse_response(
            "secondary_estimate", secondary_estimate
        )
        self.secondary_true = (
            self.secondary_estimate if secondary_true is None
            else check_impulse_response("secondary_true", secondary_true)
        )
        self.n_taps = self.n_future + self.n_past
        self.x = np.zeros(0)
        self.xf = np.zeros(0)
        self.y_recent = np.zeros(self.secondary_true.size)
        self.time = 0
        # scipy.signal.lfilter carry for the incremental filtered-x.
        self._zi = (
            np.zeros(self.secondary_estimate.size - 1)
            if self.secondary_estimate.size > 1 else np.zeros(0)
        )

    def extend(self, reference_block):
        """Append newly arrived aligned-reference samples.

        Maintains ``xf = ŝ * x`` incrementally (filter state carried in
        ``lfilter`` initial conditions).
        """
        block = check_waveform("reference_block", reference_block,
                               min_length=1)
        from scipy import signal as sps

        if self._zi.size:
            filtered, self._zi = sps.lfilter(
                self.secondary_estimate, [1.0], block, zi=self._zi
            )
        else:
            filtered = self.secondary_estimate[0] * block
        self.x = np.concatenate([self.x, block])
        self.xf = np.concatenate([self.xf, filtered])

    def fed(self):
        """Number of reference samples delivered so far."""
        return self.x.size

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self):
        """The complete mutable signal state, as private array copies.

        Everything a mid-run kernel state owns beyond its construction
        parameters: the delivered reference and its filtered-x
        companion, the processed-sample clock, the ringing anti-noise
        buffer, and the ``lfilter`` carry.  Restoring the returned
        mapping with :meth:`restore` on an identically constructed
        state resumes processing **bit-identically** — the contract the
        serving checkpoint layer (``repro.serving.checkpoint``) builds
        on, property-tested in ``tests/test_checkpoint.py`` on the
        kernels and on the oracle's reference walk.
        """
        return {
            "x": self.x.copy(),
            "xf": self.xf.copy(),
            "time": int(self.time),
            "y_recent": self.y_recent.copy(),
            "zi": self._zi.copy(),
        }

    def restore(self, snapshot):
        """Apply a :meth:`snapshot` taken from an equivalent state.

        The state must have been constructed with the same geometry
        (``n_future``/``n_past``) and secondary paths as the snapshot's
        origin; only the mutable signal state is replaced.
        """
        y_recent = np.asarray(snapshot["y_recent"], dtype=np.float64)
        if y_recent.shape != self.y_recent.shape:
            raise ConfigurationError(
                f"snapshot y_recent has shape {y_recent.shape}; this "
                f"state expects {self.y_recent.shape} "
                "(secondary-path length mismatch)"
            )
        zi = np.asarray(snapshot["zi"], dtype=np.float64)
        if zi.shape != self._zi.shape:
            raise ConfigurationError(
                f"snapshot zi has shape {zi.shape}; this state expects "
                f"{self._zi.shape} (secondary-estimate length mismatch)"
            )
        self.x = np.asarray(snapshot["x"], dtype=np.float64).copy()
        self.xf = np.asarray(snapshot["xf"], dtype=np.float64).copy()
        self.time = int(snapshot["time"])
        self.y_recent = y_recent.copy()
        self._zi = zi.copy()

    def peek_future(self, n_samples):
        """The next ``n_samples`` of not-yet-processed reference."""
        start = self.time
        return self.x[start: start + int(n_samples)].copy()
