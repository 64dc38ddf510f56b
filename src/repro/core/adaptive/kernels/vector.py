"""The kernels: sliding-window views + precomputed recursions.

The per-sample FxLMS / LMS / RLS / APA recursions (the reference
formulations are kept in the test oracle, ``tests/oracle.py``),
restructured for throughput:

* windows come from :func:`numpy.lib.stride_tricks.sliding_window_view`
  over the fed reference, left-padded with zeros before the signal's
  start — zero copies, zero per-sample slicing
  logic (taps are kept in *forward* (oldest-first) order locally so the
  window rows need no per-sample reversal);
* everything that does not depend on the adapting taps is precomputed
  and vectorized: the filtered reference, the per-sample NLMS window
  powers (one ``einsum``; running sums in the batched kernel, see
  :func:`_window_powers`), and the secondary-path ringing layout (one
  growing output array read through a sliding view instead of a
  shift-register copy per sample);
* the *inactive* (muted speaker) and *frozen-tap* (``adapt=False``)
  paths contain no Python loop at all — output and ringing collapse to
  one matvec plus one sliding-window dot;
* only the inherently sequential tap recursion — each sample's output
  depends on taps updated by the previous sample — remains a Python
  loop, stripped to three raw BLAS calls per sample (``ddot`` for the
  output and the ringing, ``daxpy`` for the in-place tap update) so the
  per-call overhead of the ufunc machinery never enters the hot path.
  The calls are positional, ``ddot(seg, taps, n, i)``: the wrapper
  reads ``seg[i:i + n]`` in place from a contiguous float64 segment,
  so no per-sample window view is built and no keyword is parsed.
  The routines are SciPy's Fortran BLAS wrappers, the ones
  :mod:`scipy.linalg.blas` re-exports, taken straight from its
  ``_fblas`` extension (:func:`_fblas`): the walks never run the
  ``scipy`` or ``scipy.linalg`` package init, which adds about 23 MB
  of peak RSS to the extension's 2.7 MB.  The batched serving kernel
  uses NumPy only — per sample, two ``matmul`` row dots over plain row
  slices of its stacked segments, one multiply for the steps, and an
  ``einsum`` plus a subtraction for the tap update.

Divergence is checked per :data:`GUARD_INTERVAL` samples rather than
per sample: the same :class:`repro.errors.ConvergenceError` is raised
for the same first offending sample, just a few hundred samples of
(ignored) arithmetic later.

Contract: every entry point matches the oracle's per-sample walk to
≤ 1e-10 absolute on errors/outputs/taps (property-tested in
``tests/test_kernels.py``); it is *not* bit-identical — summation
orders differ.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..base import DIVERGENCE_LIMIT, guard_divergence

__all__ = ["fxlms_block", "fxlms_block_batch", "lms_run", "rls_run",
           "apa_run", "multiref_run", "GUARD_INTERVAL"]

#: Samples between divergence checks in the sequential paths.
GUARD_INTERVAL = 256

_EPS = 1e-8  # NLMS step regularizer (matches base.effective_step)

#: SciPy's Fortran BLAS extension, under the name SciPy itself gives it.
_FBLAS = "scipy.linalg._fblas"


def _fblas():
    """SciPy's ``_fblas`` extension module, without SciPy's package init.

    Execs ``scipy/linalg/_fblas<suffix>`` under its own module name and
    keeps it in :data:`sys.modules`, or reuses the module already there,
    so a later ``import scipy.linalg.blas`` shares it and an earlier one
    is shared: ``scipy.linalg.blas.ddot`` is the walks' ``ddot`` either
    way.
    """
    module = sys.modules.get(_FBLAS)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_fblas" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_FBLAS, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_FBLAS] = module
                return module
    raise ModuleNotFoundError(f"the BLAS walks need SciPy's {_FBLAS}",
                              name=_FBLAS)


def _guard_block(errors, lo, hi, context):
    """Raise like :func:`guard_divergence` on the first bad sample."""
    seg = errors[lo:hi]
    if seg.size == 0:
        return
    bad = ~np.isfinite(seg) | (np.abs(seg) > DIVERGENCE_LIMIT)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        guard_divergence(float(seg[first]), context)


def _steps(windows, mu, normalized):
    """Per-sample (N)LMS step sizes — one einsum instead of T dots."""
    if not normalized:
        return np.full(windows.shape[0], float(mu))
    powers = np.einsum("ij,ij->i", windows, windows)
    return mu / (powers + _EPS)


def _ringing(opad, s_rev):
    """Secondary-path contribution per sample from the padded outputs."""
    return sliding_window_view(opad, s_rev.size) @ s_rev


def _segments(state, B):
    """Reference and filtered-reference segments covering ``B`` windows.

    Row ``i`` of ``sliding_window_view(seg, state.n_taps)`` — equally,
    ``seg[i:i + n_taps]`` — is the forward window of sample
    ``t = state.time + i``; samples before the signal's start read as
    zeros.  Both come back as contiguous float64 arrays, which the BLAS
    wrappers read in place at an offset (any other layout is copied on
    every call).
    """
    lo = state.time - (state.n_past - 1)
    hi = state.time + B + state.n_future
    seg = state.x[max(lo, 0): hi]
    segf = state.xf[max(lo, 0): hi]
    if lo < 0:
        pad = np.zeros(-lo)
        seg = np.concatenate([pad, seg])
        segf = np.concatenate([pad, segf])
    return (np.ascontiguousarray(seg, dtype=np.float64),
            np.ascontiguousarray(segf, dtype=np.float64))


def fxlms_block(state, taps, d, mu, normalized=True, leak=0.0, adapt=True,
                active=True, adapt_mask=None, context="StreamingLanc"):
    """One block of two-sided FxLMS over a fed :class:`KernelState`.

    Returns ``(errors, outputs)``; ``taps`` (future-first) is updated in
    place and ``state.time`` / ``state.y_recent`` advance by the block.
    ``adapt=False`` freezes the taps, ``adapt_mask`` (one flag per
    sample of the block) adapts only where true, and ``active=False``
    mutes the speaker for the block while anti-noise already in flight
    keeps ringing through the secondary path.  A whole-signal run is
    one block over a fresh state fed ``x ⊕ 0``.
    """
    blas = _fblas()
    daxpy, ddot = blas.daxpy, blas.ddot

    B = d.size
    n_taps = state.n_taps
    s_true = state.secondary_true
    s_len = s_true.size
    s_rev = np.ascontiguousarray(s_true[::-1])

    # Padded output timeline: opad[j] = y(time - (s_len-1) + j), the
    # first s_len-1 entries being anti-noise already in flight.
    opad = np.zeros(B + s_len - 1)
    if s_len > 1:
        opad[:s_len - 1] = state.y_recent[:s_len - 1][::-1]

    if not active:
        # Muted speaker: only the in-flight anti-noise rings out.
        errors = d + _ringing(opad, s_rev)
        state.y_recent[:] = opad[B - 1: B + s_len - 1][::-1]
        state.time += B
        return errors, np.zeros(B)

    seg, segf = _segments(state, B)
    taps_fwd = np.ascontiguousarray(taps[::-1])

    if not adapt:
        # Frozen taps: pure filtering, no loop at all.
        outputs = sliding_window_view(seg, n_taps) @ taps_fwd
        opad[s_len - 1:] = outputs
        errors = d + _ringing(opad, s_rev)
        _guard_block(errors, 0, B, context)
        state.y_recent[:] = opad[B - 1: B + s_len - 1][::-1]
        state.time += B
        return errors, outputs

    steps = _steps(sliding_window_view(segf, n_taps), mu, normalized)
    errors = np.empty(B)
    d_list = d.tolist()                            # python floats: the hot
    step_list = steps.tolist()                     # loop dodges np scalars
    mask_list = (None if adapt_mask is None
                 else np.asarray(adapt_mask, dtype=bool).tolist())
    decay = 1.0 - leak
    guard_at = GUARD_INTERVAL
    with np.errstate(all="ignore"):
        for i in range(B):
            # Positional (n, offset) BLAS calls on the whole segments:
            # the window seg[i:i + n_taps] without building a view, and
            # no keyword parsing.  Same routine, same memory, same bits.
            y = ddot(seg, taps_fwd, n_taps, i)
            opad[i + s_len - 1] = y
            e = d_list[i] + ddot(opad, s_rev, s_len, i)
            errors[i] = e
            if mask_list is None or mask_list[i]:
                if leak:
                    taps_fwd *= decay
                daxpy(segf, taps_fwd, n_taps, -(step_list[i] * e), i)
            if i + 1 == guard_at:
                _guard_block(errors, guard_at - GUARD_INTERVAL, guard_at,
                             context)
                guard_at += GUARD_INTERVAL
    _guard_block(errors, guard_at - GUARD_INTERVAL, B, context)
    taps[:] = taps_fwd[::-1]
    state.y_recent[:] = opad[B - 1: B + s_len - 1][::-1]
    state.time += B
    return errors, opad[s_len - 1:].copy()


def _window_powers(SEGF, n_taps, energy, out):
    """Energy of every ``n_taps`` window of each stacked row, in place.

    ``out[s, i] = Σ SEGF[s, i:i + n_taps]²`` for ``i < out.shape[1]``.
    Running sums inside chunks of ``n_taps`` samples: a window is the
    suffix sum of the chunk it starts in plus the prefix sum of the next
    chunk (a window that starts on a chunk boundary *is* one chunk).
    Every term is a square, so nothing is ever subtracted and each power
    keeps a direct dot's relative accuracy however loud the segment was
    before the window — the difference of one cumulative sum loses it
    when the reference goes loud and then quiet.  ``energy`` is
    ``(S, C·n_taps)`` scratch with ``C·n_taps >= SEGF.shape[1]``.
    """
    S, L = SEGF.shape
    B = out.shape[1]
    chunks = energy.reshape(S, -1, n_taps)
    energy[:, L:] = 0.0                 # unread padding, kept finite
    np.square(SEGF, out=energy[:, :L])
    np.cumsum(chunks, axis=2, out=chunks)
    np.copyto(out, energy[:, n_taps - 1: n_taps - 1 + B])
    np.square(SEGF, out=energy[:, :L])
    backward = chunks[:, :, ::-1]
    np.cumsum(backward, axis=2, out=backward)
    out += energy[:, :B]
    out[:, ::n_taps] = energy[:, :B:n_taps]


def fxlms_block_batch(states, taps, d, mu, normalized=True, leak=0.0,
                      adapt=None, active=None, context="SessionServer",
                      workspace=None):
    """One lock-step FxLMS block across a *batch* of kernel states.

    The cross-session kernel behind :mod:`repro.serving`: per-session
    tap vectors and reference histories are stacked on a leading
    session axis ``S`` so one vectorized NLMS update services every
    session in the block — per-sample work is a handful of row-wise
    NumPy calls over the ``(S, n_taps)`` stacks instead of ``S``
    Python-level kernel calls.

    Parameters
    ----------
    states:
        Sequence of ``S`` fed :class:`KernelState` objects with
        identical geometry (``n_future``/``n_past``/secondary-path
        length); each keeps its own reference history, clock, and
        ringing buffer, which are advanced in place.
    taps:
        ``(S, n_taps)`` tap matrix, future-first rows, adapted in
        place.
    d:
        ``(S, B)`` disturbance block.
    mu:
        Scalar step size, or per-session ``(S,)`` array.
    adapt / active:
        Optional per-session boolean masks (default: all true) — the
        degradation controller's gates, applied *per row* so one
        degraded session freezes or mutes without touching the rest.
        A muted row (``active`` false) also freezes its taps, as
        :func:`fxlms_block` does for ``active=False``.
    workspace:
        Optional :class:`~.workspace.BatchWorkspace` scratch arena
        that fits this batch (the dispatcher checks it).  With one,
        the call performs zero array-data allocations — every
        stack, intermediate, and mask is written in place — and the
        returned ``(errors, diverged)`` are *views into the arena*,
        valid until the next call on the same workspace.  Without one,
        a throwaway arena of exactly this batch's geometry is built, so
        both paths run the identical instruction sequence and arena
        output is bit-identical to fresh-allocation output.

    Returns
    -------
    (errors, diverged):
        ``errors`` is the ``(S, B)`` residual block; ``diverged`` a
        ``(S,)`` boolean mask of sessions whose residual went
        non-finite or past :data:`DIVERGENCE_LIMIT`.  Divergence is
        *reported*, not raised — isolating a runaway session is the
        server's job, and one bad row must not stall the batch.

    Determinism contract
    --------------------
    Every step is a row-wise NumPy operation (per-row ``matmul`` dots,
    per-row running sums, elementwise updates and gating), so each
    session's row is computed by exactly the same instruction sequence
    whether ``S == 1`` or ``S == 64`` — batched serving is
    *bit-identical* to serial serving that calls this kernel with
    singleton batches (property-tested in ``tests/test_serving.py``).
    Against the per-session :func:`fxlms_block` the usual kernel
    contract applies: ≤ 1e-10, not bit-identity (summation orders
    differ).
    """
    from .workspace import BatchWorkspace

    S = len(states)
    st0 = states[0]
    B = d.shape[1]
    n_future, n_past, n_taps = st0.n_future, st0.n_past, st0.n_taps
    s_len = st0.secondary_true.size

    ws = workspace
    if ws is None:
        ws = BatchWorkspace(S, B, n_future, n_past, s_len)

    # Gates, decided once per call: a muted row neither adapts nor
    # leaks, and the per-sample masking runs only if some row is gated.
    inactive = ws.inactive[:S]
    frozen = ws.frozen[:S]
    if active is None:
        inactive.fill(False)
    else:
        np.logical_not(active, out=inactive)
    if adapt is None:
        frozen.fill(False)
    else:
        np.logical_not(adapt, out=frozen)
    np.logical_or(frozen, inactive, out=frozen)
    muted = bool(inactive.any())
    gated = bool(frozen.any())
    ws.mu[:S] = mu
    mu_arr = ws.mu[:S]

    # Stacked, left-zero-padded reference segments: row s covers every
    # window of session s's block (same early-sample padding as the
    # single-session path); the window of sample i is SEG[s, i:i+n_taps].
    L = ws.seg_len
    SEG = ws.seg[:S]
    SEGF = ws.segf[:S]
    S_REV = ws.s_rev[:S]
    opad = ws.opad[:S]
    SEG.fill(0.0)
    SEGF.fill(0.0)
    opad.fill(0.0)
    for s, st in enumerate(states):
        lo0 = st.time - (n_past - 1)
        seg = st.x[max(lo0, 0): st.time + B + n_future]
        SEG[s, L - seg.size:] = seg
        segf = st.xf[max(lo0, 0): st.time + B + n_future]
        SEGF[s, L - segf.size:] = segf
        S_REV[s] = st.secondary_true[::-1]
        if s_len > 1:
            opad[s, :s_len - 1] = st.y_recent[:s_len - 1][::-1]

    taps_fwd = ws.taps_fwd[:S]
    taps_fwd[:, :] = taps[:, ::-1]

    steps = ws.steps[:S]
    if normalized:
        _window_powers(SEGF, n_taps, ws.energy[:S], out=steps)
        steps += _EPS
        np.divide(mu_arr[:, None], steps, out=steps)
    else:
        steps[:, :] = mu_arr[:, None]

    errors = ws.errors[:S]
    decay = ws.decay[:S]
    decay.fill(1.0 - leak)
    np.copyto(decay[:, 0], 1.0, where=frozen)
    coef, tmp_taps = ws.coef[:S], ws.tmp_taps[:S]
    # (S, 1, n) @ (S, n, 1) views: one dot per row, written straight
    # into its opad / errors column.
    SEG3 = SEG[:, None, :]
    taps_col = taps_fwd[:, :, None]
    opad3 = opad[:, None, :]
    s_col = S_REV[:, :, None]
    err3 = errors[:, None, :]
    with np.errstate(all="ignore"):
        for i in range(B):
            c = i + s_len - 1
            np.matmul(SEG3[:, :, i:i + n_taps], taps_col,
                      out=opad3[:, :, c:c + 1])
            if muted:
                np.copyto(opad[:, c], 0.0, where=inactive)
            np.matmul(opad3[:, :, i:i + s_len], s_col,
                      out=err3[:, :, i:i + 1])
            e = errors[:, i]
            e += d[:, i]
            np.multiply(steps[:, i], e, out=coef)
            if gated:
                np.copyto(coef, 0.0, where=frozen)
            if leak:
                taps_fwd *= decay
            np.einsum("s,sj->sj", coef, SEGF[:, i:i + n_taps],
                      out=tmp_taps)
            taps_fwd -= tmp_taps

    taps[:, :] = taps_fwd[:, ::-1]
    bad = np.isfinite(errors, out=ws.bad[:S])
    np.logical_not(bad, out=bad)
    np.abs(errors, out=steps)                      # steps spent; reuse
    np.greater(steps, DIVERGENCE_LIMIT, out=ws.bad2[:S])
    np.logical_or(bad, ws.bad2[:S], out=bad)
    diverged = np.any(bad, axis=1, out=ws.diverged[:S])
    for s, st in enumerate(states):
        st.y_recent[:] = opad[s, B - 1: B + s_len - 1][::-1]
        st.time += B
    return errors, diverged


def lms_run(x, d, taps, window, mu, normalized=True, leak=0.0,
            context="LmsFilter"):
    """Causal (N)LMS predict-then-adapt over whole waveforms.

    ``window`` is the engine's newest-first shift register; both it and
    ``taps`` are updated in place so a later run resumes where this one
    left off.  Returns ``(predictions, errors)``.
    """
    blas = _fblas()
    daxpy, ddot = blas.daxpy, blas.ddot

    T = x.size
    n = taps.size
    # Extend with the shift-register history so mid-stream runs resume
    # exactly; ext[t + 1:t + 1 + n] is the forward window after x[t]
    # arrives.
    ext = np.ascontiguousarray(np.concatenate([window[::-1], x]),
                               dtype=np.float64)
    steps = _steps(sliding_window_view(ext, n)[1:], mu, normalized)
    taps_fwd = np.ascontiguousarray(taps[::-1])
    predictions = np.empty(T)
    errors = np.empty(T)
    d_list = d.tolist()
    step_list = steps.tolist()
    decay = 1.0 - leak
    guard_at = GUARD_INTERVAL
    with np.errstate(all="ignore"):
        for t in range(T):
            y = ddot(ext, taps_fwd, n, t + 1)
            e = d_list[t] - y
            predictions[t] = y
            errors[t] = e
            if leak:
                taps_fwd *= decay
            daxpy(ext, taps_fwd, n, step_list[t] * e, t + 1)
            if t + 1 == guard_at:
                _guard_block(errors, guard_at - GUARD_INTERVAL, guard_at,
                             context)
                guard_at += GUARD_INTERVAL
    _guard_block(errors, guard_at - GUARD_INTERVAL, T, context)
    taps[:] = taps_fwd[::-1]
    window[:] = ext[-n:][::-1]
    return predictions, errors


def rls_run(x, d, taps, window, P, forgetting, context="RlsFilter"):
    """Exponentially-weighted RLS with BLAS symmetric rank-1 updates.

    The O(M²) inverse-correlation recursion is inherently sequential;
    this walk removes the per-sample shift register by working
    in forward order (``P`` conjugated by the flip permutation, which
    leaves its identity initialization invariant) and keeps ``P`` as a
    **lower-triangular Fortran-ordered** operand for raw BLAS:

    * ``dsymv`` for ``P·u`` (half the matvec flops of ``P @ u``),
    * ``dsyr`` for the rank-1 downdate ``P -= Pu·Puᵀ/denom`` in place —
      the update *is* symmetric (``gain·Puᵀ = Pu·Puᵀ/denom``), so the
      explicit re-symmetrization the general-form loop needs per sample
      collapses to one triangle mirror after the walk.

    ``taps``, ``window`` (newest-first) and ``P`` are updated in place.
    Contract vs the oracle's general-form walk: ≤ 1e-10 on
    predictions/errors/taps/``P``.
    """
    blas = _fblas()
    daxpy, ddot = blas.daxpy, blas.ddot
    dsymv, dsyr = blas.dsymv, blas.dsyr

    T = x.size
    n = taps.size
    ext = np.ascontiguousarray(np.concatenate([window[::-1], x]),
                               dtype=np.float64)
    taps_fwd = np.ascontiguousarray(taps[::-1])
    P_fwd = np.asfortranarray(P[::-1, ::-1])
    Pu = np.zeros(n)
    lam = float(forgetting)
    inv_lam = 1.0 / lam
    predictions = np.empty(T)
    errors = np.empty(T)
    guard_at = GUARD_INTERVAL
    with np.errstate(all="ignore"):
        for t in range(T):
            # u = ext[t + 1:t + 1 + n]; every call positional, offsets
            # included.  dsymv(alpha, a, x, beta, y, offx, incx, offy,
            # incy, lower, overwrite_y) writes P·u into Pu in place.
            y = ddot(taps_fwd, ext, n, 0, 1, t + 1)
            e = d[t] - y
            predictions[t] = y
            errors[t] = e
            dsymv(1.0, P_fwd, ext, 0.0, Pu, t + 1, 1, 0, 1, 1, 1)
            denom = lam + ddot(ext, Pu, n, t + 1)
            daxpy(Pu, taps_fwd, n, e / denom)
            # dsyr(alpha, x, lower, incx, offx, n, a, overwrite_a)
            dsyr(-1.0 / denom, Pu, 1, 1, 0, n, P_fwd, 1)
            P_fwd *= inv_lam
            if t + 1 == guard_at:
                _guard_block(errors, guard_at - GUARD_INTERVAL, guard_at,
                             context)
                guard_at += GUARD_INTERVAL
    _guard_block(errors, guard_at - GUARD_INTERVAL, T, context)
    taps[:] = taps_fwd[::-1]
    window[:] = ext[-n:][::-1]
    # Only the lower triangle was maintained; mirror it once.
    P_full = np.tril(P_fwd) + np.tril(P_fwd, -1).T
    P[:] = P_full[::-1, ::-1]
    return predictions, errors


def apa_run(x, d, taps, window, U, d_ring, mu, epsilon,
            context="ApaFilter"):
    """Affine projection; windows and rings precomputed as views.

    The per-sample P×P Gram solve stays (it involves the adapting
    taps), via :func:`numpy.linalg.solve` instead of the scipy wrapper.
    """
    T = x.size
    n = taps.size
    order = U.shape[0]
    ext = np.concatenate([window[::-1], x])
    V = sliding_window_view(ext, n)[1:]
    ext_d = np.concatenate([d_ring[::-1], d])
    Dv = sliding_window_view(ext_d, order)[1:]     # forward desired rows
    preU = np.ascontiguousarray(U[:, ::-1])        # prior windows, forward
    pre_d = d_ring.copy()
    taps_fwd = np.ascontiguousarray(taps[::-1])
    eye = epsilon * np.eye(order)
    predictions = np.empty(T)
    errors = np.empty(T)
    guard_at = GUARD_INTERVAL
    with np.errstate(all="ignore"):
        for t in range(T):
            if t >= order - 1:
                rows = V[t - order + 1: t + 1][::-1]   # newest first
                dvec = Dv[t][::-1]
            else:
                rows = np.concatenate([V[t::-1], preU[:order - 1 - t]])
                dvec = np.concatenate([d[t::-1], pre_d[:order - 1 - t]])
            y = np.dot(taps_fwd, V[t])
            e = d[t] - y
            predictions[t] = y
            errors[t] = e
            e_vec = dvec - rows @ taps_fwd
            gram = rows @ rows.T + eye
            try:
                solved = np.linalg.solve(gram, e_vec)
            except np.linalg.LinAlgError:  # pragma: no cover - eps guards
                solved = np.linalg.lstsq(gram, e_vec, rcond=None)[0]
            taps_fwd += mu * (rows.T @ solved)
            if t + 1 == guard_at:
                _guard_block(errors, guard_at - GUARD_INTERVAL, guard_at,
                             context)
                guard_at += GUARD_INTERVAL
    _guard_block(errors, guard_at - GUARD_INTERVAL, T, context)
    taps[:] = taps_fwd[::-1]
    window[:] = ext[-n:][::-1]
    # Rebuild the rings (newest first) from the tail of the run.
    for m in range(order):
        tm = T - 1 - m
        if tm >= 0:
            U[m] = V[tm][::-1]
            d_ring[m] = ext_d[tm + order]
        else:
            U[m] = preU[-tm - 1][::-1]
            d_ring[m] = pre_d[-tm - 1]
    return predictions, errors


def multiref_run(states, taps_list, d, mu, normalized=True, leak=0.0,
                 adapt=True, context="MultiRefLancFilter"):
    """Multi-reference two-sided FxLMS: one fresh fed state per branch.

    Each branch's state holds its reference plus its own ``n_future``
    zeros, read through the windows :func:`fxlms_block` uses.  All
    branches share the error signal and the (true) secondary path of
    ``states[0]``; the NLMS step is normalized by the *total*
    filtered-window power across branches.  Each branch's taps are
    updated in place.  Returns ``(errors, outputs)``.
    """
    blas = _fblas()
    daxpy, ddot = blas.daxpy, blas.ddot

    T = d.size
    s_true = states[0].secondary_true
    s_len = s_true.size
    s_rev = np.ascontiguousarray(s_true[::-1])
    taps_fwd = [np.ascontiguousarray(taps[::-1]) for taps in taps_list]
    branches = [(tf, *_segments(st, T), st.n_taps)
                for tf, st in zip(taps_fwd, states)]

    if not adapt:
        outputs = np.zeros(T)
        for tf, seg, __, n in branches:
            outputs += sliding_window_view(seg, n) @ tf
        opad = np.concatenate([np.zeros(s_len - 1), outputs])
        errors = d + _ringing(opad, s_rev)
        _guard_block(errors, 0, T, context)
        return errors, outputs

    # Total filtered-window power across branches, summed branch order.
    total_power = np.zeros(T)
    for __, __, segf, n in branches:
        Wf = sliding_window_view(segf, n)
        total_power += np.einsum("ij,ij->i", Wf, Wf)
    steps = (mu / (total_power + _EPS) if normalized
             else np.full(T, float(mu)))

    opad = np.zeros(T + s_len - 1)
    errors = np.empty(T)
    d_list = d.tolist()
    step_list = steps.tolist()
    decay = 1.0 - leak
    guard_at = GUARD_INTERVAL
    with np.errstate(all="ignore"):
        for t in range(T):
            # Positional (n, offset) BLAS, as in fxlms_block.
            y = 0.0
            for tf, seg, __, n in branches:
                y += ddot(seg, tf, n, t)
            opad[t + s_len - 1] = y
            e = d_list[t] + ddot(opad, s_rev, s_len, t)
            errors[t] = e
            c = step_list[t] * e
            for tf, __, segf, n in branches:
                if leak:
                    tf *= decay
                daxpy(segf, tf, n, -c, t)
            if t + 1 == guard_at:
                _guard_block(errors, guard_at - GUARD_INTERVAL, guard_at,
                             context)
                guard_at += GUARD_INTERVAL
    _guard_block(errors, guard_at - GUARD_INTERVAL, T, context)
    for taps, tf in zip(taps_list, taps_fwd):
        taps[:] = tf[::-1]
    return errors, opad[s_len - 1:].copy()
