"""Fault injection: apply a :class:`FaultPlan` to the relay path.

:class:`FaultyRelay` is a *decorator around an unmodified relay* —
anything with a ``forward(audio)`` method
(:class:`~repro.wireless.relay.IdealRelay`,
:class:`~repro.wireless.relay.AnalogRelay`,
:class:`~repro.wireless.digital.DigitalRelay`) — and applies the plan's
events to the *forwarded audio*.

The wrapped relay's hot path is untouched — no flags, no branches
added to :mod:`repro.wireless`; the wrapper owns every fault branch.
Attribute access falls through to the wrapped object, so
``latency_samples``, ``audio_snr_db`` and friends keep working.

Determinism contract
--------------------
* An **empty plan is the identity**: ``FaultyRelay(relay, FaultPlan())``
  returns exactly what ``relay.forward`` returned — the same array
  object, bit-identical, no copy.
* Stochastic events draw from ``default_rng([plan.seed, event_index])``,
  so results are reproducible across processes and independent of
  injection order or other events in the plan.
* Each ``forward()`` call is treated as ``t = 0`` (plans describe one
  run; MUTE experiments forward one waveform per run).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..utils.validation import check_positive
from .events import (
    BurstInterference,
    ClockDrift,
    FaultPlan,
    PacketLoss,
    PacketReorder,
    RelayHandoff,
    RelayOutage,
    SnrFade,
)

__all__ = ["FaultyRelay", "wrap_relay"]


def _event_rng(plan, index):
    """The rng owned by event ``index`` of ``plan`` (order-independent)."""
    return np.random.default_rng([int(plan.seed) & 0xFFFFFFFF, index])


def _apply_silence(out, lo, hi):
    out[lo:hi] = 0.0


def _apply_snr_fade(out, lo, hi, event, rng):
    """Additive white noise scaled to the in-window signal power."""
    if not np.isfinite(event.snr_db):
        return
    power = float(np.mean(np.square(out[lo:hi])))
    if power <= 0.0:
        return
    noise_power = power / (10.0 ** (event.snr_db / 10.0))
    out[lo:hi] += np.sqrt(noise_power) * rng.standard_normal(hi - lo)


def _apply_burst(out, lo, hi, event, rng):
    if event.level_rms == 0.0:
        return
    out[lo:hi] += event.level_rms * rng.standard_normal(hi - lo)


def _frame_bounds(lo, hi, frame_samples):
    """Frame start indices covering ``[lo, hi)``."""
    return list(range(lo, hi, frame_samples))


def _apply_packet_loss(out, lo, hi, event, rng, sample_rate):
    frame = max(int(round(event.frame_s * sample_rate)), 1)
    starts = _frame_bounds(lo, hi, frame)
    lost = rng.uniform(size=len(starts)) < event.loss_rate
    for i in np.flatnonzero(lost):
        start = starts[int(i)]
        out[start: min(start + frame, hi)] = 0.0


def _apply_packet_reorder(out, lo, hi, event, rng, sample_rate):
    frame = max(int(round(event.frame_s * sample_rate)), 1)
    starts = _frame_bounds(lo, hi, frame)
    # Swap disjoint adjacent pairs: (0,1), (2,3), ... — a late packet
    # arriving after its successor.
    for pair in range(0, len(starts) - 1, 2):
        if rng.uniform() >= event.swap_rate:
            continue
        a, b = starts[pair], starts[pair + 1]
        b_end = min(b + frame, hi)
        if b_end - b != frame or b - a != frame:
            continue  # ragged tail frame: leave it in place
        block_a = out[a: a + frame].copy()
        out[a: a + frame] = out[b: b_end]
        out[b: b_end] = block_a


def _apply_clock_drift(out, lo, hi, event, sample_rate):
    """Resample the window along a linear drift ramp.

    Sample ``i`` inside the window reads the stream at
    ``i - ppm·1e-6·(i - lo)`` — the forwarded audio slips progressively
    later (positive ppm) until the window closes (resync).
    """
    if event.ppm == 0.0 or hi - lo < 2:
        return
    idx = np.arange(lo, hi, dtype=np.float64)
    drift = event.ppm * 1e-6 * (idx - lo)
    source = np.clip(idx - drift, 0.0, out.size - 1.0)
    out[lo:hi] = np.interp(source, np.arange(out.size), out)


class FaultyRelay:
    """A relay wrapped with a :class:`FaultPlan` on its forwarded audio.

    Parameters
    ----------
    relay : object
        Anything exposing ``forward(audio) -> ndarray`` —
        ``IdealRelay``, ``AnalogRelay``, ``DigitalRelay``, or another
        wrapper.
    plan : FaultPlan
        The fault schedule.  ``None`` is treated as the empty plan.
    sample_rate : float
        Audio rate of the forwarded waveform (Hz) — converts event
        windows to sample indices.

    Notes
    -----
    Attribute access (``latency_samples``, ``audio_snr_db``,
    ``stores_samples``, …) falls through to the wrapped relay, so a
    ``FaultyRelay`` drops into every ``MuteConfig.relay`` slot
    unchanged.  :class:`~repro.core.system.MuteSystem.run_resilient`
    builds one automatically from ``fault_plan=``.
    """

    def __init__(self, relay, plan, sample_rate=8000.0):
        if not hasattr(relay, "forward"):
            raise ConfigurationError(
                "relay must expose forward(audio)"
            )
        plan = plan if plan is not None else FaultPlan()
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError("plan must be a FaultPlan")
        self.relay = relay
        self.plan = plan
        self.sample_rate = check_positive("sample_rate", sample_rate)

    def __getattr__(self, name):
        # Only reached for names not found on the wrapper itself.
        return getattr(self.relay, name)

    def forward(self, audio):
        """Forward through the wrapped relay, then inject the plan.

        Returns
        -------
        numpy.ndarray
            The impaired forwarded waveform.  With an empty plan this
            is *exactly* the wrapped relay's return value (same array,
            bit-identical).
        """
        out = self.relay.forward(audio)
        if self.plan.empty:
            return out
        return self._inject(np.array(out, dtype=np.float64, copy=True))

    def _inject(self, out):
        fs = self.sample_rate
        n = out.size
        for index, event in enumerate(self.plan.events):
            lo, hi = event.window(fs, n)
            if hi <= lo:
                continue
            if isinstance(event, (RelayOutage, RelayHandoff)):
                _apply_silence(out, lo, hi)
            elif isinstance(event, SnrFade):
                _apply_snr_fade(out, lo, hi, event,
                                _event_rng(self.plan, index))
            elif isinstance(event, BurstInterference):
                _apply_burst(out, lo, hi, event,
                             _event_rng(self.plan, index))
            elif isinstance(event, PacketLoss):
                _apply_packet_loss(out, lo, hi, event,
                                   _event_rng(self.plan, index), fs)
            elif isinstance(event, PacketReorder):
                _apply_packet_reorder(out, lo, hi, event,
                                      _event_rng(self.plan, index), fs)
            elif isinstance(event, ClockDrift):
                _apply_clock_drift(out, lo, hi, event, fs)
            else:  # pragma: no cover - new event types must be wired here
                raise ConfigurationError(
                    f"FaultyRelay cannot inject {type(event).__name__}"
                )
        return out


def wrap_relay(relay, plan, sample_rate):
    """Wrap ``relay`` with ``plan`` — or return it untouched.

    The convenience entry point :meth:`MuteSystem.run_resilient` uses:
    ``plan=None`` (no injection requested) returns the relay itself, so
    the unfaulted path never gains a wrapper object.
    """
    if plan is None:
        return relay
    return FaultyRelay(relay, plan, sample_rate=sample_rate)
