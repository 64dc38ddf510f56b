"""Supervised recovery: catch per-session crashes, restore, escalate.

A :class:`SessionSupervisor` keeps a failing *session* alive.  It sits
inside :class:`~repro.serving.server.SessionServer` (enabled via
``ServerConfig.supervision``) and owns the crash path:

1. a per-session exception during a tick (an injected
   :class:`~repro.errors.InjectedCrashError` from the chaos harness,
   or any real bug) is caught instead of sinking the whole batch;
2. the session is **restored from its latest checkpoint**
   (:mod:`repro.serving.checkpoint`) — filter taps, degradation mode,
   and workload cursor intact, so cancellation resumes converged
   instead of re-paying the cold-start transient — or cold-rebuilt if
   no intact snapshot exists;
3. the replacement sits out an **escalating backoff** before rejoining
   the batch — one tick after its first crash, doubling per
   consecutive crash up to :data:`MAX_BACKOFF_TICKS` — so a
   crash-looping session cannot monopolize the server;
4. after ``max_restarts`` crashes the session is **escalated to
   shedding**: marked :data:`~repro.serving.session.SHED` with the
   crash reason, deliberately — never silently dropped.

Everything is counted under the ``serving.recovery.*`` obs metrics
(crashes, restores, cold starts, checkpoints, escalations) and every
restore emits a ``serving.recovery.restore`` span, so a chaos soak's
recovery activity is visible in ``repro obs-report`` output.
Determinism: backoff is measured in server ticks (no wall clock, no
randomness), so supervised runs remain reproducible.
"""

from __future__ import annotations

import dataclasses

from .. import obs
from ..utils.validation import check_non_negative_int, check_positive_int
from .checkpoint import CheckpointStore
from .session import SHED

__all__ = ["MAX_BACKOFF_TICKS", "SupervisionConfig", "SessionSupervisor"]

#: Ceiling of the post-crash backoff (ticks), which starts at one tick
#: and doubles per consecutive crash.
MAX_BACKOFF_TICKS = 16


@dataclasses.dataclass(frozen=True)
class SupervisionConfig:
    """Checkpoint cadence and restart budget of one supervisor.

    Parameters
    ----------
    checkpoint_every_blocks:
        Snapshot a session every N processed blocks (plus once at
        admission, so even a block-0 crash has a defined restore
        point).
    max_restarts:
        Crashes tolerated per session before escalating to shed.
    checkpoint_dir:
        Directory for on-disk snapshots, or ``None`` (default) for the
        in-memory store — injected crashes do not kill the process, so
        in-process payloads are exactly as durable as the test needs;
        point this at real storage to survive process death.
    """

    checkpoint_every_blocks: int = 8
    max_restarts: int = 3
    checkpoint_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "checkpoint_every_blocks",
            check_positive_int("checkpoint_every_blocks",
                               self.checkpoint_every_blocks))
        object.__setattr__(
            self, "max_restarts",
            check_non_negative_int("max_restarts", self.max_restarts))


class SessionSupervisor:
    """Per-session crash bookkeeping + checkpoint/restore orchestration.

    Owned by a :class:`~repro.serving.server.SessionServer`; all entry
    points are driven by the server's tick loop, so the supervisor
    needs no clock of its own.
    """

    def __init__(self, config=None, store=None):
        self.config = config or SupervisionConfig()
        self.store = store or CheckpointStore(self.config.checkpoint_dir)
        self.failures = {}          #: session_id -> crash count
        self._not_before = {}       #: session_id -> earliest rejoin tick
        self.restores = 0
        self.cold_starts = 0
        self.escalations = 0

    # ------------------------------------------------------------------
    # Checkpoint cadence
    # ------------------------------------------------------------------
    def on_admit(self, session):
        """Admission hook: take the block-0 snapshot."""
        self.store.save(session)

    def after_block(self, session):
        """Post-block hook: snapshot at the configured cadence."""
        if session.block_index % self.config.checkpoint_every_blocks == 0:
            self.store.save(session)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def ready(self, session, tick):
        """Is the session past its post-crash backoff window?"""
        return tick >= self._not_before.get(session.session_id, 0)

    def on_crash(self, session, exc, tick):
        """Handle one caught per-session exception.

        Returns the replacement :class:`DeviceSession` (restored warm
        from the newest intact checkpoint, or cold-rebuilt), or
        ``None`` after the restart budget is exhausted — in which case
        the crashed session has been marked
        :data:`~repro.serving.session.SHED` with the crash reason and
        the server should retire it.
        """
        sid = session.session_id
        count = self.failures.get(sid, 0) + 1
        self.failures[sid] = count
        if obs.enabled():
            obs.get_registry().counter(
                "serving.recovery.crashes",
                kind=type(exc).__name__).inc()

        if count > self.config.max_restarts:
            session.status = SHED
            session.error = (
                f"escalated to shed after {count} crash(es); "
                f"last: {type(exc).__name__}: {exc}"
            )
            self.escalations += 1
            if obs.enabled():
                obs.get_registry().counter(
                    "serving.recovery.escalations").inc()
            return None

        replacement, warm = self.store.restore_session(session)
        replacement.status = session.status  # rejoin where it left off
        if warm:
            self.restores += 1
        else:
            self.cold_starts += 1
        backoff = min(2 ** (count - 1), MAX_BACKOFF_TICKS)
        self._not_before[sid] = tick + 1 + backoff
        if obs.enabled():
            registry = obs.get_registry()
            registry.counter("serving.recovery.restores",
                             warm=str(warm).lower()).inc()
            with obs.span("serving.recovery.restore",
                          session=sid,
                          block=replacement.block_index,
                          warm=warm,
                          failures=count,
                          backoff_ticks=backoff,
                          reason=type(exc).__name__):
                pass
        return replacement

    def stats(self):
        """Recovery counters (for soak reports)."""
        return {
            "restores": self.restores,
            "cold_starts": self.cold_starts,
            "escalations": self.escalations,
            "crashed_sessions": len(self.failures),
            "checkpoints": self.store.stats(),
        }
