"""Preallocated scratch arena for the batched serving kernel.

:func:`repro.core.adaptive.kernels.fxlms_block_batch` needs a dozen
``(S, ·)`` scratch arrays per tick — stacked reference segments, the
padded output timeline, the running sums behind the step sizes, the
tap-update products, divergence masks.  Allocating them fresh every
block dominated the serving steady state (in a stage profile of the
tick): at 64 sessions each sample of the kernel is a handful of
row-wise NumPy calls, and ``np.zeros`` of the big stacks was a
measurable fraction of the tick.

:class:`BatchWorkspace` owns all of them, sized once for a maximum
batch geometry, and hands out capacity-sliced views per call.  The
kernel *writes* (``fill``, ``out=``, ``np.copyto``) instead of
allocating, so the steady-state block loop performs zero per-tick
array-data allocations (asserted with ``tracemalloc`` in
``tests/test_serving.py``).

The arena changes *where* results live, never *what* they are: the
kernel runs the identical instruction sequence over arena views and
fresh arrays, so arena output is bit-identical to fresh-allocation
output (property-tested).  Callers must treat arrays returned from a
workspace-backed call as borrowed — valid until the next call on the
same workspace.
"""

from __future__ import annotations

import numpy as np

from ....errors import ConfigurationError

__all__ = ["BatchWorkspace"]


class BatchWorkspace:
    """Reusable scratch buffers for one batched-kernel geometry.

    Parameters
    ----------
    max_sessions:
        Largest batch size ``S`` the arena must serve.
    block_size:
        Block length ``B`` of each tick.
    n_future / n_past:
        Two-sided window geometry (``n_taps = n_future + n_past``).
    s_len:
        Secondary-path FIR length.

    Calls with any ``S' <= max_sessions`` reuse the same arena via
    leading-axis slices; every other dimension must match exactly
    (checked by :meth:`fits`).
    """

    def __init__(self, max_sessions, block_size, n_future, n_past, s_len):
        if max_sessions < 1 or block_size < 1:
            raise ConfigurationError(
                "BatchWorkspace needs max_sessions >= 1 and block_size >= 1"
            )
        if n_future < 0 or n_past < 1 or s_len < 1:
            raise ConfigurationError(
                "BatchWorkspace needs n_future >= 0, n_past >= 1, s_len >= 1"
            )
        self.max_sessions = int(max_sessions)
        self.block_size = int(block_size)
        self.n_future = int(n_future)
        self.n_past = int(n_past)
        self.n_taps = self.n_future + self.n_past
        self.s_len = int(s_len)

        S, B = self.max_sessions, self.block_size
        L = (self.n_past - 1) + B + self.n_future
        self.seg_len = L
        # Stacked per-session inputs the server fills in place.
        self.seg = np.zeros((S, L))
        self.segf = np.zeros((S, L))
        self.s_rev = np.zeros((S, self.s_len))
        self.opad = np.zeros((S, B + self.s_len - 1))
        self.taps_fwd = np.zeros((S, self.n_taps))
        #: Caller-facing stacks — the server fills these in place
        #: instead of ``np.stack``-ing fresh arrays every tick.
        self.taps_io = np.zeros((S, self.n_taps))
        self.d = np.zeros((S, B))
        self.mu = np.zeros(S)
        # Per-call intermediates.  ``energy`` holds the running sums of
        # the window powers: whole chunks of ``n_taps`` covering the
        # segment.
        self.errors = np.empty((S, B))
        self.steps = np.empty((S, B))
        self.energy = np.empty((S, -(-L // self.n_taps) * self.n_taps))
        self.decay = np.empty((S, 1))
        # Per-sample row vectors.
        self.coef = np.empty(S)
        self.tmp_taps = np.empty((S, self.n_taps))
        # Gates and divergence scratch.
        self.inactive = np.empty(S, dtype=bool)
        self.frozen = np.empty(S, dtype=bool)
        self.bad = np.empty((S, B), dtype=bool)
        self.bad2 = np.empty((S, B), dtype=bool)
        self.diverged = np.empty(S, dtype=bool)

    def fits(self, n_sessions, block_size, n_future, n_past, s_len):
        """Whether a batch of this geometry can run inside the arena."""
        return (n_sessions <= self.max_sessions
                and block_size == self.block_size
                and n_future == self.n_future
                and n_past == self.n_past
                and s_len == self.s_len)

    @property
    def nbytes(self):
        """Total bytes held by the arena (for observability surfaces)."""
        return sum(
            getattr(self, name).nbytes
            for name in ("seg", "segf", "s_rev", "opad", "taps_fwd",
                         "taps_io", "d", "mu", "errors", "steps", "energy",
                         "decay", "coef", "tmp_taps", "inactive", "frozen",
                         "bad", "bad2", "diverged")
        )
