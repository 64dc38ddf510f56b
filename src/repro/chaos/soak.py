"""The chaos soak harness: crash a serving run on purpose, prove recovery.

:func:`run_soak` is the end-to-end verification loop of the crash-safety
layer (``docs/RESILIENCE.md``):

1. serve a fleet of synthetic sessions **without** chaos — the baseline
   residual digests;
2. serve the *same* fleet under a supervised server with a
   deterministic :func:`~repro.chaos.plan.soak_plans` mix of injected
   crashes and deadline stalls;
3. check the invariants that define "crash-safe":

   * **accounted** — every submitted session finishes ``done`` or is
     *deliberately* ``shed`` (escalation after repeated crashes);
     nothing hangs, nothing silently disappears;
   * **bit-identity** — every ``done`` session whose breaker never
     tripped produced **exactly** the baseline residual (taps intact,
     no cold-start transient: a crash + warm restore is invisible in
     the output bits);
   * **visible** — recovery activity shows up in the supervisor stats
     (and the ``serving.recovery.*`` obs counters when obs is on).

The resulting :class:`SoakReport` serializes to the
``repro.chaos.soak/v1`` JSON schema — ``repro chaos-soak --json`` emits
it, CI uploads it as an artifact.
"""

from __future__ import annotations

import dataclasses
import time

from ..errors import ConfigurationError
from ..serving import (
    DONE,
    SHED,
    DeadlineConfig,
    ServerConfig,
    SessionServer,
    SessionWorkload,
    SupervisionConfig,
)
from .plan import SessionChaosInjector, soak_plans

__all__ = ["SOAK_SCHEMA", "SoakReport", "run_soak"]

#: Schema identifier of :meth:`SoakReport.to_dict`.
SOAK_SCHEMA = "repro.chaos.soak/v1"


@dataclasses.dataclass
class SoakReport:
    """Everything one soak run measured, plus its pass/fail invariants."""

    sessions: int
    n_blocks: int                 #: blocks per session
    block_size: int
    batched: bool
    seed: int
    crashes_injected: int
    stalls_injected: int
    statuses: dict                #: status -> count over finished sessions
    recovery: dict                #: supervisor stats (restores, escalations)
    breaker_trips: int            #: total breaker trips across sessions
    verified_sessions: int        #: done sessions compared bit-for-bit
    skipped_sessions: int         #: done sessions exempt (breaker tripped)
    mismatches: list              #: session names whose digest diverged
    unaccounted: list             #: sessions still active/pending at stop
    wall_s: float

    def ok(self):
        """Did the soak meet every crash-safety invariant?"""
        clean = all(status in (DONE, SHED) for status in self.statuses)
        return (not self.mismatches and not self.unaccounted and clean)

    def to_dict(self):
        """JSON-able ``repro.chaos.soak/v1`` document."""
        return {
            "schema": SOAK_SCHEMA,
            "ok": self.ok(),
            "sessions": self.sessions,
            "n_blocks": self.n_blocks,
            "block_size": self.block_size,
            "batched": self.batched,
            "seed": self.seed,
            "crashes_injected": self.crashes_injected,
            "stalls_injected": self.stalls_injected,
            "statuses": dict(self.statuses),
            "recovery": dict(self.recovery),
            "breaker_trips": self.breaker_trips,
            "verified_sessions": self.verified_sessions,
            "skipped_sessions": self.skipped_sessions,
            "mismatches": list(self.mismatches),
            "unaccounted": list(self.unaccounted),
            "wall_s": self.wall_s,
        }

    def report(self):
        """Terminal summary."""
        verdict = "PASS" if self.ok() else "FAIL"
        lines = [
            f"== chaos soak: {self.sessions} session(s) x "
            f"{self.n_blocks} block(s), seed={self.seed} — {verdict} ==",
            f"  injected    {self.crashes_injected} crash(es), "
            f"{self.stalls_injected} stall(s)",
            f"  recovery    {self.recovery.get('restores', 0)} warm "
            f"restore(s), {self.recovery.get('cold_starts', 0)} cold, "
            f"{self.recovery.get('escalations', 0)} escalation(s)",
            f"  breakers    {self.breaker_trips} trip(s)",
            f"  statuses    " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.statuses.items())),
            f"  bit-ident   {self.verified_sessions} verified, "
            f"{self.skipped_sessions} exempt (breaker tripped), "
            f"{len(self.mismatches)} mismatch(es)",
        ]
        if self.unaccounted:
            lines.append(f"  UNACCOUNTED {', '.join(self.unaccounted)}")
        if self.mismatches:
            lines.append(f"  MISMATCHED  {', '.join(self.mismatches)}")
        return "\n".join(lines)


def _build_server(block_size, batched, sessions, supervision, deadline):
    config = ServerConfig(
        block_size=block_size,
        batched=batched,
        max_sessions=max(sessions, 1),
        supervision=supervision,
        deadline=deadline,
    )
    return SessionServer(config)


def run_soak(sessions=8, duration_s=0.5, block_size=128, *, seed=0,
             batched=True, crash_prob=0.5, stall_prob=0.5,
             supervision=None, deadline=None, max_ticks=None):
    """Run one chaos soak; returns its :class:`SoakReport`.

    Parameters
    ----------
    sessions / duration_s / block_size:
        Fleet geometry — ``sessions`` synthetic users of ``duration_s``
        seconds each, served in ``block_size``-sample lock-step blocks.
    seed:
        Root seed for the workloads *and* the chaos mix.
    batched:
        Batched vs serial scheduling of the supervised run.
    crash_prob / stall_prob:
        Per-session chaos probabilities (see
        :func:`~repro.chaos.plan.soak_plans`).
    supervision / deadline:
        Overrides for the supervised server's
        :class:`~repro.serving.SupervisionConfig` /
        :class:`~repro.serving.DeadlineConfig`; sensible chaos-friendly
        defaults when omitted.
    max_ticks:
        Hard tick ceiling on the supervised run — the no-hang
        guarantee.  Defaults to a generous bound derived from the
        restart budget; sessions still unfinished at the ceiling are
        reported as ``unaccounted`` (and fail :meth:`SoakReport.ok`).
    """
    sessions = int(sessions)
    block_size = int(block_size)
    if sessions < 1:
        raise ConfigurationError("sessions must be >= 1")
    supervision = supervision or SupervisionConfig(
        checkpoint_every_blocks=4, max_restarts=2)
    deadline = deadline or DeadlineConfig(
        miss_threshold=2, cooldown_blocks=4)

    def _workloads(plans=None):
        built = []
        for i in range(sessions):
            chaos = None
            if plans is not None and not plans[i].empty:
                chaos = SessionChaosInjector(plans[i])
            built.append(SessionWorkload.synthetic(
                f"soak{i}", duration_s=duration_s, seed=int(seed) + i,
                chaos=chaos))
        return built

    started = time.perf_counter()

    # Baseline: same fleet, no chaos, no supervision — the digests a
    # crash-free run produces.
    fleet = _workloads()
    n_blocks = fleet[0].reference.size // block_size
    if n_blocks < 2:
        raise ConfigurationError(
            f"soak needs >= 2 blocks per session; got {n_blocks} "
            f"(duration_s={duration_s}, block_size={block_size})"
        )
    baseline = _build_server(block_size, batched, sessions, None, None)
    for workload in fleet:
        baseline.submit(workload)
    baseline_digests = baseline.run_until_drained().digests()
    plans = soak_plans(sessions, n_blocks, crash_prob=crash_prob,
                       stall_prob=stall_prob,
                       max_crashes=supervision.max_restarts + 1,
                       seed=seed)
    injectors = []

    # Supervised run under chaos.
    server = _build_server(block_size, batched, sessions, supervision,
                           deadline)
    for workload in _workloads(plans):
        if workload.chaos is not None:
            injectors.append(workload.chaos)
        server.submit(workload)
    if max_ticks is None:
        # Worst case: every block replayed once per allowed restart,
        # plus the full backoff ladder per session, plus slack.
        max_ticks = (n_blocks * (supervision.max_restarts + 2)
                     + sessions * supervision.max_backoff_ticks + 64)
    chaos_report = server.run_until_drained(max_ticks=max_ticks)
    wall_s = time.perf_counter() - started

    unaccounted = sorted(
        s.workload.name for s in
        list(server.active) + list(server.manager.pending)
    )
    mismatches = []
    verified = 0
    skipped = 0
    breaker_trips = 0
    for result in chaos_report.results:
        if result.breaker is not None:
            breaker_trips += result.breaker["trips"]
        if result.status != DONE:
            continue
        if result.breaker is not None and result.breaker["trips"] > 0:
            # A tripped breaker legitimately changed the gating, so the
            # residual differs from baseline by design.
            skipped += 1
            continue
        verified += 1
        if result.digest() != baseline_digests.get(result.name):
            mismatches.append(result.name)

    return SoakReport(
        sessions=sessions,
        n_blocks=n_blocks,
        block_size=block_size,
        batched=bool(batched),
        seed=int(seed),
        crashes_injected=sum(inj.crashes for inj in injectors),
        stalls_injected=sum(inj.stalls for inj in injectors),
        statuses=chaos_report.statuses(),
        recovery=chaos_report.recovery or {},
        breaker_trips=breaker_trips,
        verified_sessions=verified,
        skipped_sessions=skipped,
        mismatches=mismatches,
        unaccounted=unaccounted,
        wall_s=wall_s,
    )
