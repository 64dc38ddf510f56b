"""Deadline circuit breakers: block-latency budgets from the paper's Eq. 3.

MUTE's timing analysis (paper §3.1, Eq. 3) is what makes serving
possible at all: the RF reference reaches the server ``n_future``
samples ahead of the acoustic wavefront, so a block of anti-noise is
*on time* as long as it is produced within that lookahead window —
``n_future / sample_rate`` seconds.  A session whose blocks repeatedly
miss that budget is not cancelling, it is playing stale anti-noise
*into* the ear; the right response is the same graded ladder the
fault layer already walks (``mute → feedback → passive``), driven by
latency instead of reference health.

:class:`DeadlineCircuitBreaker` is a classic three-state breaker over
that ladder:

``closed``
    Full MUTE operation.  ``miss_threshold`` *consecutive* deadline
    misses trip it open.
``open``
    The session is clamped to a degradation floor — ``feedback``
    (taps frozen, last converged solution keeps playing) on the first
    trip, ``passive`` from the :data:`ESCALATE_TRIPS`-th trip on — for
    a cooldown that doubles on every re-trip, up to
    :data:`MAX_COOLDOWN_BLOCKS`.
``half-open``
    Cooldown expired: the next block runs at full capability as a
    **recovery probe**.  Meeting the deadline closes the breaker
    (adaptation resumes from the frozen taps — warm, no cold-start
    transient); missing re-opens it with an escalated cooldown.

The server derives each breaker's deadline at admission from the
session geometry, as Eq. 3's lookahead window ``n_future /
sample_rate`` — a property of the device, not a setting.

Determinism: the breaker observes only *simulated* latency
(chaos-injected stalls), never wall time, so zero-chaos serving output
is bit-identical with breakers enabled — wall-clock jitter on a loaded
machine cannot flip a run's bits.
"""

from __future__ import annotations

import dataclasses

from .. import obs
from ..errors import ConfigurationError
from ..faults.monitor import MODE_FEEDBACK, MODE_MUTE, MODE_PASSIVE

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "ESCALATE_TRIPS",
    "MAX_COOLDOWN_BLOCKS",
    "DeadlineConfig",
    "DeadlineCircuitBreaker",
]

#: Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


#: Trip count from which an open breaker clamps to ``passive``.
ESCALATE_TRIPS = 2
#: Ceiling of the cooldown, which doubles on every re-trip.
MAX_COOLDOWN_BLOCKS = 64


@dataclasses.dataclass(frozen=True)
class DeadlineConfig:
    """Breaker thresholds of one server's sessions.

    Parameters
    ----------
    miss_threshold:
        Consecutive misses that trip a closed breaker.
    cooldown_blocks:
        Blocks a freshly tripped breaker stays open before probing;
        doubles per re-trip up to :data:`MAX_COOLDOWN_BLOCKS`.
    """

    miss_threshold: int = 3
    cooldown_blocks: int = 8

    def __post_init__(self):
        if self.miss_threshold < 1:
            raise ConfigurationError("miss_threshold must be >= 1")
        if self.cooldown_blocks < 1:
            raise ConfigurationError("cooldown_blocks must be >= 1")


class DeadlineCircuitBreaker:
    """One session's latency breaker (state machine in the module docs).

    The server calls :meth:`observe` once per processed block with that
    block's latency; :meth:`mode_floor` is consulted *before* the next
    block and combined (worst-wins) with the
    :class:`~repro.faults.DegradationController`'s health-driven mode
    in :meth:`DeviceSession.gates`.
    """

    def __init__(self, deadline_s, config=None):
        if deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be > 0, got {deadline_s}")
        self.deadline_s = float(deadline_s)
        self.config = config or DeadlineConfig()
        self.state = BREAKER_CLOSED
        self.consecutive_misses = 0
        self.cooldown_remaining = 0
        self.trips = 0
        self.misses_total = 0
        self.probes = 0
        self.recoveries = 0

    def mode_floor(self):
        """The degradation floor the *next* block must respect.

        ``mute`` (no clamp) when closed or probing half-open;
        ``feedback`` when open; ``passive`` when open after
        :data:`ESCALATE_TRIPS` trips.
        """
        if self.state != BREAKER_OPEN:
            return MODE_MUTE
        if self.trips >= ESCALATE_TRIPS:
            return MODE_PASSIVE
        return MODE_FEEDBACK

    def observe(self, latency_s):
        """Record one block's latency; advance the state machine.

        Returns the state after the observation.
        """
        missed = latency_s > self.deadline_s
        if missed:
            self.misses_total += 1
        if self.state == BREAKER_CLOSED:
            if missed:
                self.consecutive_misses += 1
                if self.consecutive_misses >= self.config.miss_threshold:
                    self._trip()
            else:
                self.consecutive_misses = 0
        elif self.state == BREAKER_OPEN:
            self.cooldown_remaining -= 1
            if self.cooldown_remaining <= 0:
                self.state = BREAKER_HALF_OPEN
        elif self.state == BREAKER_HALF_OPEN:
            # This observation *is* the recovery probe.
            self.probes += 1
            if obs.enabled():
                obs.get_registry().counter("serving.breaker.probes").inc()
            if missed:
                self._trip()
            else:
                self.state = BREAKER_CLOSED
                self.consecutive_misses = 0
                self.recoveries += 1
                if obs.enabled():
                    obs.get_registry().counter(
                        "serving.breaker.recoveries").inc()
        return self.state

    def _trip(self):
        self.trips += 1
        self.consecutive_misses = 0
        self.cooldown_remaining = int(min(
            self.config.cooldown_blocks * 2 ** (self.trips - 1),
            MAX_COOLDOWN_BLOCKS))
        self.state = BREAKER_OPEN
        if obs.enabled():
            obs.get_registry().counter("serving.breaker.trips").inc()

    def summary(self):
        """JSON-able breaker bookkeeping (rides on ``SessionResult``)."""
        return {
            "state": self.state,
            "deadline_s": self.deadline_s,
            "trips": self.trips,
            "misses": self.misses_total,
            "probes": self.probes,
            "recoveries": self.recoveries,
        }
