"""repro.faults — fault injection and graceful degradation for the relay path.

MUTE hangs on a wireless relay delivering the noise reference *ahead of
time*; this package is the robustness axis: what happens when that
relay path fails, and how the system degrades gracefully instead of
diverging.  Full guide: ``docs/FAULTS.md``.

Three layers:

* :mod:`~repro.faults.events` — the deterministic fault model:
  :class:`FaultEvent` subtypes (outage, SNR fade, burst interference,
  packet loss/reorder, clock drift, handoff blackout) composed into a
  content-addressed :class:`FaultPlan`;
* :mod:`~repro.faults.injector` — the :class:`FaultyRelay` wrapper
  that applies a plan around an unmodified relay ``forward()``;
* :mod:`~repro.faults.monitor` — the
  :class:`ReferenceHealthMonitor` watchdog and the
  :class:`DegradationController` that walks
  ``mute → feedback → passive`` and back, snapshotting/restoring taps
  for fast re-convergence.

Minimal session::

    from repro import faults

    plan = faults.outage_plan(duration_s=8.0, fraction=0.25)
    result = system.run_resilient(noise, fault_plan=plan)
    result.transitions          # degrade -> recover mode changes
    result.mean_cancellation_db()

The ``resilience`` experiment (``python -m repro run resilience``)
sweeps outage fraction and packet-loss rate into cancellation curves.
"""

from __future__ import annotations

from .events import (
    BurstInterference,
    ClockDrift,
    FaultEvent,
    FaultPlan,
    PacketLoss,
    PacketReorder,
    RelayHandoff,
    RelayOutage,
    SnrFade,
    outage_plan,
    packet_loss_plan,
)
from .injector import FaultyRelay, wrap_relay
from .monitor import (
    DEGRADED,
    HEALTHY,
    LOST,
    MODE_FEEDBACK,
    MODE_MUTE,
    MODE_PASSIVE,
    DegradationController,
    ModeTransition,
    ReferenceHealthMonitor,
)

__all__ = [
    # events
    "FaultEvent",
    "RelayOutage",
    "SnrFade",
    "BurstInterference",
    "PacketLoss",
    "PacketReorder",
    "ClockDrift",
    "RelayHandoff",
    "FaultPlan",
    "outage_plan",
    "packet_loss_plan",
    # injector
    "FaultyRelay",
    "wrap_relay",
    # monitor
    "HEALTHY",
    "DEGRADED",
    "LOST",
    "MODE_MUTE",
    "MODE_FEEDBACK",
    "MODE_PASSIVE",
    "ReferenceHealthMonitor",
    "ModeTransition",
    "DegradationController",
]
