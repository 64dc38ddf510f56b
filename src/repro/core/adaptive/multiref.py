"""Multi-reference LANC — toward the paper's multi-source future work.

Paper §6: "With multiple noise sources, the problem is involved,
requiring either multiple microphones (one for each noise channel), or
source separation ... We believe the benefits of looking ahead into
future samples will be valuable for multiple sources as well."

This module implements the first approach the paper names: **one
reference microphone (relay) per noise source**.  The anti-noise becomes
the sum of per-reference two-sided filters,

    α(t) = Σ_m Σ_k  w_m(k) · x_m(t − k),       k ∈ [−N_m, L)

and the filtered-x gradient update runs on every branch against the one
shared error signal — the standard multiple-input FxLMS, here with each
branch allowed its own anti-causal budget ``N_m`` (relays at different
distances offer different lookaheads).
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
    check_waveform,
)
from . import kernels
from .base import (
    AdaptationResult,
    check_leak,
    mse_curve,
    record_run_metrics,
)

__all__ = ["MultiRefLancFilter"]


class MultiRefLancFilter:
    """LANC with one reference branch per relay/noise source.

    Parameters
    ----------
    n_futures:
        Anti-causal tap count per branch (sequence; one entry per
        reference).
    n_past:
        Causal tap count, shared by all branches.
    secondary_path:
        Estimate of ``h_se`` (one speaker, one error mic — the update
        filter is shared).
    mu:
        NLMS step, normalized by the *total* filtered-reference window
        power across branches (keeps the coupled update stable).
    leak:
        Leaky-LMS decay.
    """

    def __init__(self, n_futures, n_past, secondary_path, mu=0.2,
                 normalized=True, leak=0.0):
        if not n_futures:
            raise ConfigurationError("need at least one reference branch")
        self.n_futures = [check_non_negative_int("n_future", n)
                          for n in n_futures]
        self.n_past = check_positive_int("n_past", n_past)
        self.secondary_path = check_impulse_response(
            "secondary_path", secondary_path
        )
        self.mu = check_positive("mu", mu)
        self.normalized = bool(normalized)
        self.leak = check_leak(leak)
        #: Per-branch tap vectors, each stored future-first.
        self.taps = [np.zeros(n + self.n_past) for n in self.n_futures]

    @property
    def n_branches(self):
        """Number of reference branches."""
        return len(self.n_futures)

    def get_taps(self):
        """Copies of every branch's tap vector."""
        return [t.copy() for t in self.taps]

    def set_taps(self, taps_list):
        """Overwrite all branches (profile-cache load)."""
        if len(taps_list) != self.n_branches:
            raise ConfigurationError(
                f"expected {self.n_branches} tap vectors, got "
                f"{len(taps_list)}"
            )
        for i, (current, new) in enumerate(zip(self.taps, taps_list)):
            new = np.asarray(new, dtype=np.float64)
            if new.shape != current.shape:
                raise ConfigurationError(
                    f"branch {i}: expected shape {current.shape}, got "
                    f"{new.shape}"
                )
            self.taps[i] = new.copy()

    def reset(self):
        """Zero every branch."""
        for taps in self.taps:
            taps[:] = 0.0

    def run(self, references, disturbance, secondary_path_true=None,
            adapt=True):
        """Run the multi-reference ANC loop.

        Parameters
        ----------
        references:
            Sequence of aligned reference waveforms, one per branch,
            all the same length as ``disturbance``.  Alignment contract
            per branch matches :class:`LancFilter`.
        disturbance:
            Noise mixture at the error microphone.
        secondary_path_true:
            Physical ``h_se`` (defaults to the estimate).

        Returns
        -------
        AdaptationResult
            ``taps`` holds the *concatenated* final tap vectors.
        """
        if len(references) != self.n_branches:
            raise ConfigurationError(
                f"expected {self.n_branches} references, got "
                f"{len(references)}"
            )
        d = check_waveform("disturbance", disturbance)
        xs = []
        for i, ref in enumerate(references):
            x = check_waveform(f"references[{i}]", ref)
            if x.size != d.size:
                raise ConfigurationError(
                    f"references[{i}] length {x.size} != disturbance "
                    f"length {d.size}"
                )
            xs.append(x)
        s_true = (
            self.secondary_path if secondary_path_true is None
            else check_impulse_response("secondary_path_true",
                                        secondary_path_true)
        )

        enabled = obs.enabled()
        t_start = time.perf_counter() if enabled else None

        states = []
        for x, n_future in zip(xs, self.n_futures):
            state = kernels.KernelState(n_future, self.n_past,
                                        self.secondary_path, s_true)
            state.extend(np.concatenate([x, np.zeros(n_future)]))
            states.append(state)
        errors, outputs = kernels.multiref_run(
            states, self.taps, d, self.mu,
            normalized=self.normalized, leak=self.leak, adapt=adapt,
            context="MultiRefLancFilter",
        )

        if enabled:
            record_run_metrics("multireflancfilter", errors, d,
                               time.perf_counter() - t_start)
        return AdaptationResult(
            error=errors,
            output=outputs,
            taps=np.concatenate(self.taps),
            mse_trajectory=mse_curve(errors),
        )
