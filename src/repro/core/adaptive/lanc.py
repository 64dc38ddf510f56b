"""LANC — Lookahead-Aware Noise Cancellation (the paper's Algorithm 1).

LANC is filtered-x LMS whose adaptive filter carries *non-causal* taps:
``h_AF(k)`` for ``k ∈ [-N, L-1]``, where the ``N`` anti-causal taps
multiply reference samples up to ``x(t + N)``.  Those samples exist at
the ear-device because the IoT relay forwards the waveform over RF,
which outruns the acoustic wavefront by the lookahead
``(d_e - d_r) / v`` (paper Eq. 4).  The anti-causal taps are what let
the filter realize the non-causal inverse ``h_nr^{-1}`` inside the
optimal solution ``h_AF = -h_se^{-1} * h_ne * h_nr^{-1}`` (paper Eq. 2).

Indexing contract
-----------------
The ``reference`` given to :meth:`LancFilter.run` and to a
:class:`StreamingLanc` session must be *aligned to the error
microphone's time base*: ``reference[t]`` is the reference-mic sample
whose wavefront reaches the error mic at time ``t``.  The paper's
device finds that alignment with GCC-PHAT, as
:class:`repro.core.OnlineMuteDevice` does;
:class:`repro.core.system.MuteSystem` instead shifts by the acoustic
lead of its image-source geometry (``channels.acoustic_lead_samples``).
Under this alignment, "N future samples" are physically available
whenever ``N ≤ acoustic lead − pipeline latency``.

:meth:`LancFilter.run` walks the whole signal as one block;
:class:`StreamingLanc` walks the same state block by block, for every
driver that acts between blocks.

With ``n_future = 0`` the class *is* conventional causal FxLMS — the
baselines use it that way.
"""

from __future__ import annotations

import time

import numpy as np

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
from . import kernels
from .base import (
    AdaptationResult,
    check_leak,
    mse_curve,
    record_block_metrics,
    record_run_metrics,
)

__all__ = ["LancFilter", "FxlmsFilter"]


class LancFilter:
    """Lookahead-aware filtered-x LMS adaptive canceler.

    Parameters
    ----------
    n_future:
        ``N`` — number of anti-causal taps (0 = conventional FxLMS).
    n_past:
        ``L`` — number of causal taps (including the ``k = 0`` tap).
    secondary_path:
        Estimate of ``h_se`` (speaker→error-mic), used to filter the
        reference for the update (the "filtered-x" of FxLMS) — the paper
        estimates it a priori with a preamble probe.
    mu:
        Adaptation step; normalized (NLMS-style) by default.
    normalized:
        Normalize the step by the filtered-reference window power.
    leak:
        Leaky-LMS decay, guards against tap drift on narrowband inputs.
    """

    def __init__(self, n_future, n_past, secondary_path, mu=0.5,
                 normalized=True, leak=0.0):
        self.n_future = check_non_negative_int("n_future", n_future)
        self.n_past = check_positive_int("n_past", n_past)
        self.secondary_path = check_impulse_response(
            "secondary_path", secondary_path
        )
        self.mu = check_positive("mu", mu)
        self.normalized = bool(normalized)
        self.leak = check_leak(leak)
        self.n_taps = self.n_future + self.n_past
        #: Tap values, stored future-first: ``taps[i] ↔ k = i - n_future``.
        self.taps = np.zeros(self.n_taps)

    # ------------------------------------------------------------------
    # Tap access in the paper's indexing
    # ------------------------------------------------------------------
    def tap(self, k):
        """Tap ``h_AF(k)``, ``k ∈ [-n_future, n_past - 1]``."""
        if not -self.n_future <= k < self.n_past:
            raise ConfigurationError(
                f"tap index {k} outside [-{self.n_future}, {self.n_past - 1}]"
            )
        return float(self.taps[k + self.n_future])

    def get_taps(self):
        """Copy of the tap vector (future-first storage order)."""
        return self.taps.copy()

    def set_taps(self, values):
        """Overwrite the tap vector — the profile cache's "load" operation."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_taps,):
            raise ConfigurationError(
                f"expected {self.n_taps} taps, got shape {values.shape}"
            )
        self.taps = values.copy()

    def reset(self):
        """Zero the taps."""
        self.taps[:] = 0.0

    # ------------------------------------------------------------------
    # Whole-signal physical simulation
    # ------------------------------------------------------------------
    def run(self, reference, disturbance, secondary_path_true=None,
            adapt=True, adapt_mask=None):
        """Run the full ANC loop over aligned waveforms.

        Per sample (paper Algorithm 1): compute the anti-noise
        ``α(t) = Σ_k h_AF(k) x(t-k)``; the speaker output passes through
        the *true* secondary path to the error mic, where it sums with
        the disturbance ``d(t)``; the measured error drives the filtered-x
        gradient update ``h_AF(k) ← h_AF(k) − µ e(t) x'(t−k)``.

        The whole signal is one block of the streaming kernel, over a
        fresh state fed ``x ⊕ 0`` (the reference plus ``n_future``
        zeros) — the state every streaming driver feeds, so the last
        ``n_future`` updates see the filtered reference ``ŝ ∗ (x ⊕ 0)``.

        Parameters
        ----------
        reference:
            Error-mic-time-aligned reference ``x`` (see module docstring).
        disturbance:
            ``d(t) = (h_ne * n)(t)`` — noise at the error mic with the
            canceler off.
        secondary_path_true:
            Physical ``h_se``; defaults to the filter's estimate (i.e. a
            perfectly identified secondary path).
        adapt:
            If false, taps are frozen (evaluation of a cached profile).
        adapt_mask:
            Optional per-sample boolean; adaptation only where true.

        Returns
        -------
        AdaptationResult
            ``error`` is the residual at the error mic (what the ear
            hears), ``output`` the anti-noise waveform.
        """
        x = check_waveform("reference", reference)
        d = check_waveform("disturbance", disturbance)
        check_same_length("reference", x, "disturbance", d)
        s_true = (
            self.secondary_path if secondary_path_true is None
            else check_impulse_response("secondary_path_true",
                                        secondary_path_true)
        )
        if adapt_mask is not None:
            adapt_mask = np.asarray(adapt_mask, dtype=bool)
            if adapt_mask.shape != x.shape:
                raise ConfigurationError(
                    "adapt_mask must match the signal length"
                )

        enabled = obs.enabled()
        t_start = time.perf_counter() if enabled else None

        state = kernels.KernelState(
            self.n_future, self.n_past, self.secondary_path, s_true
        )
        state.extend(np.concatenate([x, np.zeros(self.n_future)]))
        errors, outputs = kernels.fxlms_block(
            state, self.taps, d, self.mu,
            normalized=self.normalized, leak=self.leak, adapt=adapt,
            adapt_mask=adapt_mask, context="LancFilter",
        )

        if enabled:
            record_run_metrics(type(self).__name__.lower(), errors, d,
                               time.perf_counter() - t_start)
        return AdaptationResult(
            error=errors,
            output=outputs,
            taps=self.taps.copy(),
            mse_trajectory=mse_curve(errors),
        )


class FxlmsFilter(LancFilter):
    """Conventional causal filtered-x LMS (``n_future = 0``).

    The algorithm inside today's ANC headphones; exists as a named type
    so baselines read as what they are.
    """

    def __init__(self, n_taps, secondary_path, mu=0.5, normalized=True,
                 leak=0.0):
        super().__init__(n_future=0, n_past=n_taps,
                         secondary_path=secondary_path, mu=mu,
                         normalized=normalized, leak=leak)


class StreamingLanc:
    """One LANC session: a filter walked block by block over one reference.

    Every block driver runs the paper's Algorithm 1 through a session:
    ``MuteSystem.run_resilient``, the serving runtime's
    ``DeviceSession``, ``OnlineMuteDevice`` (one session per relay
    assignment) and the profile-switching experiments.  The session
    owns the :class:`~.kernels.KernelState`, fed ``reference ⊕
    zeros(n_future)`` up front — the ``x ⊕ 0`` that :meth:`LancFilter.run`
    walks, so any split of the disturbance into blocks gives ``run``'s
    residual and taps bit for bit — and a residual bank preallocated to
    the reference's length.  Drivers act only between blocks: a
    degradation controller gates the next block, a profile switcher or
    a relay handoff loads cached taps into :attr:`filter`.

    Typical loop::

        session = StreamingLanc(lanc_filter, reference,
                                secondary_path_true=s)
        for t0 in range(0, reference.size, block):
            session.process(disturbance[t0 : t0 + block])
        residual = session.residual()

    Parameters
    ----------
    lanc_filter : LancFilter
        The filter whose taps the session adapts in place.
    reference : array_like
        The whole error-mic-time-aligned reference (see the module
        docstring).
    secondary_path_true : array_like, optional
        Physical ``h_se``; defaults to the filter's estimate.
    """

    def __init__(self, lanc_filter, reference, secondary_path_true=None):
        if not isinstance(lanc_filter, LancFilter):
            raise ConfigurationError("lanc_filter must be a LancFilter")
        x = check_waveform("reference", reference)
        self.filter = lanc_filter
        #: Signal history: the fed reference, its filtered-x companion,
        #: the ringing anti-noise and the acoustic clock.
        self.state = kernels.KernelState(
            lanc_filter.n_future, lanc_filter.n_past,
            lanc_filter.secondary_path, secondary_path_true,
        )
        self.state.extend(np.concatenate([x, np.zeros(lanc_filter.n_future)]))
        self._residual = np.zeros(x.size)
        self._banked = 0

    @property
    def time(self):
        """Number of acoustic samples processed so far."""
        return self.state.time

    def process(self, disturbance_block, adapt=True, active=True):
        """Process a block of acoustic time; returns the error block.

        Parameters
        ----------
        disturbance_block : array_like
            ``d(t)`` samples for the block.
        adapt : bool
            If false, taps are frozen for the block (the degradation
            controller's *feedback* mode).
        active : bool
            If false, the anti-noise speaker is not driven this block:
            the filter output is zero, though anti-noise already in
            flight still rings through the secondary path (the
            controller's *passive* mode).  Time advances regardless.

        Notes
        -----
        With observability enabled, each call is one observation in the
        ``adaptive.block_update_s{engine=streaminglanc}`` histogram —
        the per-block latency the timing-budget report compares against
        the real-time deadline.
        """
        d = check_waveform("disturbance_block", disturbance_block,
                           min_length=1)
        enabled = obs.enabled()
        t_start = time.perf_counter() if enabled else None
        f = self.filter
        errors, __ = kernels.fxlms_block(
            self.state, f.taps, d, f.mu,
            normalized=f.normalized, leak=f.leak, adapt=adapt,
            active=active, context="StreamingLanc",
        )
        self.record(errors)
        if enabled:
            record_block_metrics("streaminglanc",
                                 time.perf_counter() - t_start, d.size)
        return errors

    def record(self, errors):
        """Bank the residual block that ends at the current time.

        :meth:`process` banks its own blocks.  The batched server calls
        this after :func:`~.kernels.fxlms_block_batch` has advanced
        :attr:`state`, and a checkpoint restore calls it once with the
        whole residual banked before the checkpoint.  ``errors`` may be
        a view into a reused buffer: the bank copies it.
        """
        end = self.state.time
        self._residual[end - np.size(errors): end] = errors
        self._banked = end

    def residual(self):
        """View of the residual banked so far."""
        return self._residual[: self._banked]
