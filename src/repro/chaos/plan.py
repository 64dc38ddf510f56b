"""Chaos events and plans: deterministic crash/stall schedules for serving.

The fault layer (:mod:`repro.faults`) impairs the *signal path* — what
a degraded relay delivers.  This module impairs the *serving process*
itself: sessions that crash mid-block, kernels that stall past the
paper's Eq. 3 deadline.  Same design rules as
:class:`~repro.faults.FaultPlan`:

* a :class:`ChaosEvent` is one scheduled process-level mishap, indexed
  by **serving block** (the server's unit of work), not by seconds —
  a crash "at block 7" is meaningful across block sizes and replay;
* a :class:`ChaosPlan` is a frozen, content-addressed
  (:meth:`ChaosPlan.plan_key`) tuple of events plus a seed — pure
  data, picklable, reproducible;
* applying a plan is the job of :class:`SessionChaosInjector`, the
  small mutable object a :class:`~repro.serving.session.DeviceSession`
  carries (``workload.chaos``) and the server consults before every
  block.

One-shot semantics
------------------
Injected events fire **once in wall time, not once per replay**: after
a supervised restore rewinds a session to its checkpoint, the replayed
blocks do *not* re-raise the crash that killed them (the injector's
fired-set travels to the replacement session by reference).  That is
exactly a real crash's semantics — the bug happened, the supervisor
recovered, the world moved on — and it is what makes crash-recovery
runs bit-identical to uncrashed ones (``tests/test_chaos.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ConfigurationError, InjectedCrashError
from ..utils.store import content_key

__all__ = [
    "ChaosEvent",
    "CrashAt",
    "StallAt",
    "ChaosPlan",
    "SessionChaosInjector",
    "soak_plans",
]


@dataclasses.dataclass(frozen=True)
class ChaosEvent:
    """One scheduled process-level mishap of a serving session.

    Parameters
    ----------
    block : int
        Serving block index (0-based) at which the event fires.
    """

    block: int

    def __post_init__(self):
        if self.block < 0:
            raise ConfigurationError(
                f"{type(self).__name__}: block must be >= 0, "
                f"got {self.block}"
            )


@dataclasses.dataclass(frozen=True)
class CrashAt(ChaosEvent):
    """The session's worker raises just before processing ``block``.

    Surfaces as :class:`~repro.errors.InjectedCrashError` from the
    injector's :meth:`~SessionChaosInjector.before_block` — the typed
    stand-in for a segfaulting codec, an OOM kill, a bug.  Fires once
    (see the module's one-shot note).
    """


@dataclasses.dataclass(frozen=True)
class StallAt(ChaosEvent):
    """Blocks ``[block, block + blocks)`` each take ``stall_s`` too long.

    The stand-in for a preempted worker or a page-cache miss storm:
    the block *completes correctly* but late.  The injected latency is
    **simulated** — fed to the session's deadline circuit breaker, not
    slept — so chaos soaks stay fast and deterministic.

    Parameters
    ----------
    stall_s : float
        Extra latency per stalled block, seconds.
    blocks : int
        Number of consecutive stalled blocks (breakers trip on
        *consecutive* misses, so one-block stalls rarely trip anything).
    """

    stall_s: float = 0.05
    blocks: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.stall_s <= 0:
            raise ConfigurationError("stall_s must be > 0")
        if self.blocks < 1:
            raise ConfigurationError("blocks must be >= 1")

    def covers(self, block):
        """Does this stall window include ``block``?"""
        return self.block <= block < self.block + self.blocks


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """A deterministic, content-addressed schedule of chaos events.

    Mirrors :class:`~repro.faults.FaultPlan`: frozen, events stored
    sorted, hashable by content via :meth:`plan_key`, and the empty
    plan is the identity — a session carrying it behaves exactly like
    one carrying no injector at all.
    """

    events: tuple = ()
    seed: int = 0

    def __post_init__(self):
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, ChaosEvent):
                raise ConfigurationError(
                    f"plan events must be ChaosEvent instances, "
                    f"got {type(event).__name__}"
                )
        ordered = tuple(sorted(
            events, key=lambda e: (e.block, type(e).__name__)
        ))
        object.__setattr__(self, "events", ordered)

    def __len__(self):
        return len(self.events)

    @property
    def empty(self):
        """True when the plan injects nothing (the identity plan)."""
        return not self.events

    def plan_key(self):
        """Deterministic SHA-256 content key (stable across processes):
        the :func:`~repro.utils.store.content_key` of the plan, tagged
        ``repro.chaos/v1``."""
        return content_key("repro.chaos/v1", self)

    def events_of(self, *types):
        """The plan's events that are instances of the given types."""
        return tuple(e for e in self.events if isinstance(e, types))

    def describe(self):
        """One line per event — for soak reports and logs."""
        if self.empty:
            return "ChaosPlan: (no events)"
        lines = [f"ChaosPlan seed={self.seed} key={self.plan_key()[:12]}"]
        for event in self.events:
            lines.append(f"  {event!r}")
        return "\n".join(lines)


class SessionChaosInjector:
    """Applies one :class:`ChaosPlan` to one serving session.

    The mutable half of the chaos layer: it owns the fired-set that
    gives events their one-shot semantics, and it is carried **by
    reference** onto checkpoint-restored replacement sessions
    (:meth:`repro.serving.CheckpointStore.restore_session`), so a
    restore never re-fires the crash it is recovering from.
    """

    def __init__(self, plan):
        if not isinstance(plan, ChaosPlan):
            raise ConfigurationError(
                f"expected a ChaosPlan, got {type(plan).__name__}")
        self.plan = plan
        self._fired = set()
        self.crashes = 0
        self.stalls = 0

    def before_block(self, session):
        """Consult the plan for ``session``'s upcoming block.

        Raises :class:`~repro.errors.InjectedCrashError` if an unfired
        :class:`CrashAt` is scheduled here; otherwise returns the
        injected stall latency (seconds, ``0.0`` if none) for the
        session's deadline breaker to observe.
        """
        block = session.block_index
        stall_s = 0.0
        for index, event in enumerate(self.plan.events):
            if isinstance(event, CrashAt) and event.block == block:
                key = (index, event.block)
                if key not in self._fired:
                    self._fired.add(key)
                    self.crashes += 1
                    raise InjectedCrashError(
                        f"injected crash: session {session.session_id} "
                        f"({session.workload.name!r}) at block {block} "
                        f"[plan {self.plan.plan_key()[:12]}]"
                    )
            elif isinstance(event, StallAt) and event.covers(block):
                key = (index, block)
                if key not in self._fired:
                    self._fired.add(key)
                    self.stalls += 1
                    stall_s += event.stall_s
        return stall_s

    def stats(self):
        """Fired-event counters (for soak reports)."""
        return {"crashes": self.crashes, "stalls": self.stalls,
                "plan_key": self.plan.plan_key()}


def soak_plans(sessions, n_blocks, crash_prob=0.5, stall_prob=0.5,
               max_crashes=2, seed=0):
    """Per-session :class:`ChaosPlan` mix for a soak run.

    Session ``i`` draws from ``default_rng([seed, i])`` — adding a
    session never perturbs the chaos of the others (the same
    convention as :class:`~repro.faults.FaultPlan` event seeding).

    Parameters
    ----------
    sessions : int
        Number of sessions in the soak.
    n_blocks : int
        Blocks each session will process (events land in ``[1,
        n_blocks - 1]``, past admission so checkpoints exist).
    crash_prob / stall_prob : float
        Per-session probability of carrying crash / stall events.  A
        stall is one :class:`StallAt` of 4 consecutive blocks, 0.05 s
        each.
    max_crashes : int
        Crashes per crashing session are drawn from ``[1, max_crashes]``
        (exceeding the supervisor's ``max_restarts`` exercises the
        escalate-to-shed path).
    seed : int
        Root seed.

    Returns
    -------
    tuple of ChaosPlan
        One plan per session; sessions the dice spare get the empty
        (identity) plan.
    """
    if sessions < 1:
        raise ConfigurationError("sessions must be >= 1")
    if n_blocks < 2:
        raise ConfigurationError("n_blocks must be >= 2")
    if not 0.0 <= crash_prob <= 1.0 or not 0.0 <= stall_prob <= 1.0:
        raise ConfigurationError("probabilities must be in [0, 1]")
    if max_crashes < 1:
        raise ConfigurationError("max_crashes must be >= 1")
    plans = []
    for i in range(int(sessions)):
        rng = np.random.default_rng([int(seed), i])
        events = []
        if rng.random() < crash_prob:
            n_crashes = int(rng.integers(1, max_crashes + 1))
            blocks = rng.choice(
                np.arange(1, n_blocks),
                size=min(n_crashes, n_blocks - 1), replace=False)
            events.extend(CrashAt(int(b)) for b in blocks)
        if rng.random() < stall_prob:
            start = int(rng.integers(1, n_blocks))
            events.append(StallAt(start, stall_s=0.05, blocks=4))
        plans.append(ChaosPlan(events=tuple(events), seed=int(seed) + i))
    return tuple(plans)
