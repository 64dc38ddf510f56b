"""Adaptive-filter kernels: the inner loops every engine runs.

The engines in :mod:`repro.core.adaptive` own configuration, validation
and observability; the *inner loops* all live here, behind a small API:

* :class:`KernelState` — reference / filtered-reference history in the
  paper's tap convention ``k ∈ [-n_future, n_past - 1]``, fed through
  ``extend``;
* :func:`fxlms_block` — two-sided FxLMS over one block of a state, with
  ``adapt``, ``adapt_mask`` and ``active``; a whole-signal run
  (``LancFilter.run``) is one block over a state fed ``x ⊕ 0``;
* :func:`fxlms_block_batch` — one lock-step block across a batch of
  states (the serving runtime's kernel);
* :func:`lms_run` / :func:`rls_run` / :func:`apa_run` /
  :func:`multiref_run` — the causal-baseline and multi-reference
  walks.

There is one implementation of each, in :mod:`.vector` (sliding-window
views, precomputed recursions, raw BLAS in the sequential loops).  The
per-sample reference formulations it replaced live in the test oracle
(``tests/oracle.py``), which the equivalence contracts and the
``bench_kernels`` / ``bench_pipeline`` "before" legs run against.  See
``docs/KERNELS.md`` for the full contract.

Engines (and :class:`repro.serving.SessionServer`) call the kernels
through this module's attributes — ``kernels.fxlms_block(...)`` — so a
profiler or the test oracle can wrap or replace one entry point in one
place.
"""

from __future__ import annotations

import numpy as np

from ....errors import ConfigurationError
from . import vector
from .state import KernelState
from .vector import apa_run, lms_run, multiref_run, rls_run
from .workspace import BatchWorkspace

__all__ = [
    "KernelState",
    "BatchWorkspace",
    "fxlms_block",
    "fxlms_block_batch",
    "lms_run",
    "rls_run",
    "apa_run",
    "multiref_run",
]


def _check_underrun(state, block):
    """Processing sample ``t`` needs the aligned reference to ``t + N``."""
    needed = state.time + block + state.n_future
    if state.x.size < needed:
        raise ConfigurationError(
            f"reference underrun: need {needed} fed samples, "
            f"have {state.x.size}"
        )


def fxlms_block(state, taps, d, mu, **kwargs):
    """One FxLMS block; returns ``(errors, outputs)``.

    Checks for a reference underrun before any state is touched, then
    runs :func:`vector.fxlms_block`.
    """
    _check_underrun(state, d.size)
    return vector.fxlms_block(state, taps, d, mu, **kwargs)


def fxlms_block_batch(states, taps, d, mu, workspace=None, **kwargs):
    """One lock-step FxLMS block across a batch of kernel states.

    The cross-session kernel behind :mod:`repro.serving`; returns
    ``(errors, diverged)`` — see :func:`vector.fxlms_block_batch`.
    Serial serving calls the same kernel with singleton batches (that
    is what makes serial == batched bit-identical).  Homogeneity, shape,
    underrun and workspace-fit validation happens here so the hot
    kernel can assume clean inputs.
    """
    if not states:
        raise ConfigurationError("fxlms_block_batch needs >= 1 state")
    st0 = states[0]
    for st in states:
        if (st.n_future, st.n_past) != (st0.n_future, st0.n_past) \
                or st.secondary_true.size != st0.secondary_true.size:
            raise ConfigurationError(
                "fxlms_block_batch needs homogeneous session geometry "
                f"(n_future={st0.n_future}, n_past={st0.n_past}, "
                f"s_len={st0.secondary_true.size})"
            )
    taps = np.asarray(taps)
    d = np.asarray(d)
    if d.ndim != 2 or d.shape[0] != len(states):
        raise ConfigurationError(
            f"d must be (n_sessions, block); got {d.shape}"
        )
    if taps.shape != (len(states), st0.n_taps):
        raise ConfigurationError(
            f"taps must be ({len(states)}, {st0.n_taps}); "
            f"got {taps.shape}"
        )
    for st in states:
        _check_underrun(st, d.shape[1])
    ws = workspace
    S, B = d.shape
    n_future, n_past = st0.n_future, st0.n_past
    s_len = st0.secondary_true.size
    if ws is not None and not ws.fits(S, B, n_future, n_past, s_len):
        raise ConfigurationError(
            f"workspace sized for (S<={ws.max_sessions}, B={ws.block_size}, "
            f"n_future={ws.n_future}, n_past={ws.n_past}, "
            f"s_len={ws.s_len}) cannot serve a batch of "
            f"(S={S}, B={B}, n_future={n_future}, n_past={n_past}, "
            f"s_len={s_len})"
        )
    return vector.fxlms_block_batch(states, taps, d, mu,
                                    workspace=workspace, **kwargs)
