"""The session server: lock-step blocks over a batched cross-session kernel.

:class:`SessionServer` advances every active session one block per
``tick``.  In **batched** mode the per-session tap vectors and
reference histories are stacked on a leading session axis and one
:func:`repro.core.adaptive.kernels.fxlms_block_batch` call services
the whole batch; in **serial** mode the *same kernel* is called once
per session with a singleton batch.  Because that kernel is built from
row-wise operations, the two schedules are **bit-identical** — the
serving analogue of the kernel-vs-oracle contract in ``docs/KERNELS.md``
(property-tested in ``tests/test_serving.py``).

Why batching is legitimate at all is the paper's point: the RF
reference arrives ``n_future`` samples *ahead* of the acoustic
wavefront (MUTE §3.1), so a server has a whole lookahead window — not
one sample period — to produce each block of anti-noise.  That budget
is what the ``serving.block_latency_s`` histogram is measured against.

Fault isolation: each session's
:class:`~repro.faults.DegradationController` gates only its own batch
row (freeze adaptation, mute output), and a diverged row is marked
``failed`` and dropped from the batch — one bad session never stalls
or corrupts its neighbors.

Crash safety is opt-in via two :class:`ServerConfig` fields:
``supervision`` (a :class:`~repro.serving.supervisor.SupervisionConfig`)
turns on checkpointing and supervised restart of sessions that raise
mid-tick, and ``deadline`` (a
:class:`~repro.serving.breaker.DeadlineConfig`) attaches a
:class:`~repro.serving.breaker.DeadlineCircuitBreaker` to every
admitted session, with the session's Eq. 3 lookahead window
``n_future / sample_rate`` as its block deadline.  Both default to
``None``, and with them off — or on but with no chaos injected — the
server's output is bit-identical to the unsupervised baseline
(property-tested in ``tests/test_chaos.py``).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .. import obs
from ..core.adaptive import kernels
from .breaker import DeadlineCircuitBreaker
from .manager import SessionManager
from .session import ACTIVE, DONE, FAILED, SessionConfig
from .supervisor import SessionSupervisor

__all__ = ["ServerConfig", "ServingReport", "SessionServer"]

#: ``kind`` discriminator of :meth:`ServingReport.to_dict` within the
#: ``repro.runtime.report/v2`` schema family.
SERVING_KIND = "serving"
_REPORT_SCHEMA = "repro.runtime.report/v2"


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """Knobs of one :class:`SessionServer`."""

    block_size: int = 256
    batched: bool = True            #: one stacked kernel call per tick?
    max_sessions: int = 64
    queue_depth: int = 256
    shed_policy: str = "reject"
    session: SessionConfig = dataclasses.field(default_factory=SessionConfig)
    #: Checkpoint/restart supervision (SupervisionConfig), or None.
    supervision: object | None = None
    #: Per-session deadline breakers (DeadlineConfig), or None.
    deadline: object | None = None


@dataclasses.dataclass
class ServingReport:
    """Everything one drained server produced."""

    results: list                 #: SessionResult per finished session
    shed: int                     #: sessions evicted under overload
    ticks: int
    session_blocks: int           #: session×block units processed
    block_size: int
    batched: bool
    sample_rate: float
    wall_s: float
    latencies_s: list             #: wall time of every kernel call
    recovery: dict | None = None  #: supervisor stats, when supervised

    def digests(self):
        """``session name -> residual SHA-256`` (bit-identity probe)."""
        return {r.name: r.digest() for r in self.results}

    def statuses(self):
        """``status -> count`` over the finished sessions."""
        counts = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    def throughput_blocks_per_s(self):
        """Processed session-blocks per wall second."""
        return self.session_blocks / self.wall_s if self.wall_s > 0 else 0.0

    def audio_seconds_per_s(self):
        """Simulated audio seconds served per wall second (the RT factor)."""
        audio_s = self.session_blocks * self.block_size / self.sample_rate
        return audio_s / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentiles(self):
        """``{p50, p99}`` of per-kernel-call wall time (seconds)."""
        if not self.latencies_s:
            return {"p50": 0.0, "p99": 0.0}
        arr = np.asarray(self.latencies_s)
        return {"p50": float(np.percentile(arr, 50)),
                "p99": float(np.percentile(arr, 99))}

    def to_dict(self):
        """JSON-able ``report/v2`` serving document (``kind: serving``)."""
        pct = self.latency_percentiles()
        return {
            "schema": _REPORT_SCHEMA,
            "kind": SERVING_KIND,
            "batched": self.batched,
            "block_size": self.block_size,
            "sample_rate": self.sample_rate,
            "ticks": self.ticks,
            "session_blocks": self.session_blocks,
            "shed": self.shed,
            "wall_s": self.wall_s,
            "blocks_per_s": self.throughput_blocks_per_s(),
            "audio_seconds_per_s": self.audio_seconds_per_s(),
            "block_latency_s": pct,
            "recovery": self.recovery,
            "sessions": [{
                "id": r.session_id,
                "name": r.name,
                "status": r.status,
                "blocks": r.blocks,
                "digest": r.digest(),
                "cancellation_db": r.cancellation_db(),
                "transitions": r.transitions,
                "mode_fractions": r.mode_fractions,
                "error": r.error,
                "breaker": r.breaker,
            } for r in self.results],
        }

    def report(self):
        """Terminal summary."""
        pct = self.latency_percentiles()
        mode = "batched" if self.batched else "serial"
        lines = [
            f"== serving: {len(self.results)} session(s), {mode}, "
            f"block={self.block_size}, {self.ticks} tick(s) ==",
            f"  throughput  {self.throughput_blocks_per_s():9.0f} "
            f"session-blocks/s ({self.audio_seconds_per_s():.1f}x "
            f"real time)",
            f"  latency     p50 {pct['p50'] * 1e3:.3f} ms   "
            f"p99 {pct['p99'] * 1e3:.3f} ms per kernel call",
            f"  shed        {self.shed}",
        ]
        if self.recovery is not None:
            lines.append(
                f"  recovery    {self.recovery['restores']} warm restore(s), "
                f"{self.recovery['cold_starts']} cold, "
                f"{self.recovery['escalations']} escalation(s)"
            )
        for r in self.results:
            modes = ", ".join(f"{m}={f:.2f}"
                              for m, f in sorted(r.mode_fractions.items()))
            lines.append(
                f"  {r.name:<12} {r.status:<7} {r.blocks:4d} blk  "
                f"{r.cancellation_db():6.1f} dB  [{modes}]"
            )
        return "\n".join(lines)


class SessionServer:
    """Admit, batch, and drain MUTE device sessions.

    Parameters
    ----------
    config:
        A :class:`ServerConfig`; defaults throughout if omitted.
    """

    def __init__(self, config=None):
        self.config = config or ServerConfig()
        self.manager = SessionManager(
            max_sessions=self.config.max_sessions,
            queue_depth=self.config.queue_depth,
            shed_policy=self.config.shed_policy,
            session_config=self.config.session,
            block_size=self.config.block_size,
        )
        self.active = []
        self.finished = []
        self.ticks = 0
        self.session_blocks = 0
        self.latencies_s = []
        self.supervisor = (
            SessionSupervisor(self.config.supervision)
            if self.config.supervision is not None else None)
        # Preallocated kernel scratch arena: every per-tick stack
        # (taps, disturbance, segments, intermediates) is written in
        # place instead of freshly allocated, so the steady-state block
        # loop performs zero per-tick array-data allocations (asserted
        # via tracemalloc in tests/test_serving.py).  Serial mode runs
        # singleton batches through the same arena.
        sess = self.config.session
        self._workspace = kernels.BatchWorkspace(
            self.config.max_sessions, self.config.block_size,
            sess.n_future, sess.n_past, len(sess.secondary_path))

    def submit(self, workload, request=None):
        """Queue one workload (see :meth:`SessionManager.submit`)."""
        return self.manager.submit(workload, request=request)

    def _admit(self):
        for session in self.manager.admit(len(self.active)):
            session.status = ACTIVE
            if self.config.deadline is not None:
                geometry = session.config
                session.breaker = DeadlineCircuitBreaker(
                    geometry.n_future / geometry.sample_rate,
                    self.config.deadline)
            if self.supervisor is not None:
                self.supervisor.on_admit(session)
            self.active.append(session)

    def _crash(self, session, exc):
        """Route one caught per-session exception through the supervisor.

        Unsupervised servers re-raise: swallowing a crash without a
        restore path would silently lose a session.  Supervised ones
        swap the crashed session for its checkpoint-restored
        replacement in place (same batch slot next tick), or retire it
        as shed once the restart budget is exhausted.
        """
        if self.supervisor is None:
            raise exc
        replacement = self.supervisor.on_crash(session, exc, self.ticks)
        idx = self.active.index(session)
        if replacement is None:
            self.finished.append(self.active.pop(idx))
        else:
            self.active[idx] = replacement

    def _advance(self, batch):
        """One lock-step block over ``batch`` (list of sessions)."""
        # Per-session prep: chaos injection (may raise a scheduled
        # crash) and degradation gating.  A crashing session drops out
        # of this block; its neighbours' rows are unaffected.
        prepped = []
        stalls = []
        for session in batch:
            try:
                stall_s = 0.0
                if session.chaos is not None:
                    stall_s = session.chaos.before_block(session)
                gate = session.gates()
            except Exception as exc:  # noqa: BLE001 — supervisor triages
                self._crash(session, exc)
                continue
            prepped.append((session, gate))
            stalls.append(stall_s)
        if not prepped:
            return
        batch = [p[0] for p in prepped]
        S = len(batch)
        adapt = [g[0] for __, g in prepped]
        act = [g[1] for __, g in prepped]
        states = [session.stream.state for session in batch]
        ws = self._workspace
        taps = ws.taps_io[:S]
        d = ws.d[:S]
        mu = ws.mu[:S]
        for i, session in enumerate(batch):
            taps[i] = session.filter.taps
            d[i] = session.next_block()[1]
            mu[i] = session.filter.mu

        started = time.perf_counter()
        errors, diverged = kernels.fxlms_block_batch(
            states, taps, d, mu,
            normalized=self.config.session.normalized,
            leak=self.config.session.leak,
            adapt=adapt, active=act,
            workspace=ws,
        )
        elapsed = time.perf_counter() - started
        self.latencies_s.append(elapsed)
        if obs.enabled():
            registry = obs.get_registry()
            registry.histogram("serving.block_latency_s").observe(elapsed)
            registry.counter("serving.blocks_total").inc(S)

        for i, session in enumerate(batch):
            session.filter.taps[:] = taps[i]
            if diverged[i]:
                session.fail(
                    f"kernel divergence at block {session.block_index}")
            else:
                session.record_block(errors[i])
                if self.supervisor is not None:
                    self.supervisor.after_block(session)
            if session.breaker is not None:
                # Injected stalls only, never wall time (see the
                # determinism note in repro.serving.breaker).
                session.breaker.observe(stalls[i])
        self.session_blocks += S

    def tick(self):
        """Admit, advance every active session one block; True if work ran.

        Batched mode stacks the whole active set into one kernel call;
        serial mode runs the same kernel per session.  Both schedules
        visit sessions in admission order, so their outputs are
        bit-identical.  Sessions inside a post-crash backoff window sit
        the tick out (the tick still counts, so their window expires);
        a tick with every session in backoff reports work done rather
        than draining the server with sessions still outstanding.
        """
        self._admit()
        if self.supervisor is not None:
            batch = [s for s in self.active
                     if self.supervisor.ready(s, self.ticks)]
        else:
            batch = list(self.active)
        waiting = len(self.active) - len(batch)
        if not batch and not waiting:
            return False
        if self.config.batched:
            if batch:
                self._advance(batch)
        else:
            for session in batch:
                self._advance([session])
        still_active = []
        for session in self.active:
            if session.status in (DONE, FAILED):
                self.finished.append(session)
            else:
                still_active.append(session)
        self.active = still_active
        self.ticks += 1
        if obs.enabled():
            obs.get_registry().gauge("serving.sessions_active").set(
                len(self.active))
        return True

    def run_until_drained(self, max_ticks=None):
        """Tick until queue and batch are empty; returns a report."""
        started = time.perf_counter()
        while self.manager.pending or self.active:
            if max_ticks is not None and self.ticks >= max_ticks:
                break
            if not self.tick():
                break
        wall_s = time.perf_counter() - started
        ordered = sorted(self.finished, key=lambda s: s.session_id)
        return ServingReport(
            results=[s.result() for s in ordered],
            shed=self.manager.shed_count,
            ticks=self.ticks,
            session_blocks=self.session_blocks,
            block_size=self.config.block_size,
            batched=self.config.batched,
            sample_rate=self.config.session.sample_rate,
            wall_s=wall_s,
            latencies_s=list(self.latencies_s),
            recovery=(self.supervisor.stats()
                      if self.supervisor is not None else None),
        )
