"""Extension experiment: the chaos soak (crash-safe serving, verified).

Not a paper figure — the robustness extension's end-to-end probe.  The
paper's serving premise (the Eq. 3 lookahead budget) only matters if
the server *survives*: this experiment runs
:func:`repro.chaos.run_soak` — baseline the fleet, re-serve it under
injected crashes and deadline stalls, and verify every session ends
warm-restored **bit-identically** or deliberately shed — and records
the verdict in the experiment envelope, so ``repro run chaos`` and the
runtime executor both exercise the full recovery path.

Harness hooks
-------------
Two keyword-only parameters exist for the *executor's* resilience
tests, not for studying MUTE:

``sleep_s``
    Sleep before doing anything — how ``tests/test_chaos.py`` makes a
    job overrun the executor's per-job deadline.
``worker_kill_flag``
    Path to a sentinel file implementing **die-once** semantics: when
    the file does not exist yet, create it and kill the hosting
    *worker process* outright (``SIGKILL`` — a real worker death, not
    an exception), so the executor's worker-loss retry path runs; on
    the retry the file exists and the run proceeds.  In the *main*
    process (serial execution) a typed
    :class:`~repro.errors.InjectedCrashError` is raised instead —
    killing the caller's interpreter is never acceptable fallback
    behavior.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time

from ...errors import InjectedCrashError
from .registry import experiment_result

__all__ = ["ChaosResult", "run_chaos"]


@dataclasses.dataclass
class ChaosResult:
    """Results of one ``chaos`` experiment run."""

    sessions: int
    n_blocks: int
    batched: bool
    ok: bool                      #: every crash-safety invariant held
    crashes_injected: int
    stalls_injected: int
    statuses: dict                #: status -> count
    restores: int                 #: warm checkpoint restores
    cold_starts: int
    escalations: int              #: sessions escalated to shed
    breaker_trips: int
    verified_sessions: int        #: done sessions bit-compared to baseline
    mismatches: list              #: names whose digest diverged (must be [])
    soak_report: object           #: the full SoakReport

    def report(self):
        """Deterministic text summary (no wall-clock values)."""
        verdict = "PASS" if self.ok else "FAIL"
        mode = "batched" if self.batched else "serial"
        lines = [
            f"chaos soak: {self.sessions} session(s) x {self.n_blocks} "
            f"block(s), {mode} — {verdict}",
            f"injected {self.crashes_injected} crash(es), "
            f"{self.stalls_injected} stall(s); recovered with "
            f"{self.restores} warm restore(s), {self.cold_starts} cold, "
            f"{self.escalations} escalation(s), "
            f"{self.breaker_trips} breaker trip(s)",
            f"statuses: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.statuses.items())),
            f"bit-identity: {self.verified_sessions} verified, "
            f"{len(self.mismatches)} mismatch(es)",
        ]
        return "\n".join(lines)


def _maybe_die_once(flag_path):
    """Die-once worker kill (see the module docstring's harness notes)."""
    import multiprocessing

    if flag_path is None:
        return
    flag_path = str(flag_path)
    if os.path.exists(flag_path):
        return
    with open(flag_path, "w", encoding="utf-8") as fh:
        fh.write("died\n")
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    raise InjectedCrashError(
        "worker_kill_flag fired in the main process; raising instead of "
        "killing the interpreter"
    )


def run_chaos(duration_s=0.4, *, seed=0, scenario=None, sessions=6,
              block_size=128, crash_prob=0.5, stall_prob=0.5,
              batched=True, sleep_s=0.0, worker_kill_flag=None):
    """Run one chaos soak through the experiment registry.

    Parameters
    ----------
    duration_s:
        Simulated seconds of audio per session.
    seed:
        Root seed for workloads and chaos schedules.
    scenario:
        Accepted for signature uniformity; the soak synthesizes its
        own per-user workloads.
    sessions / block_size / crash_prob / stall_prob / batched:
        Soak geometry, passed through to :func:`repro.chaos.run_soak`.
    sleep_s / worker_kill_flag:
        Executor-test harness hooks — see the module docstring.
    """
    from ...chaos import run_soak

    del scenario  # synthesized workloads; kept for uniform signatures
    if sleep_s:
        time.sleep(float(sleep_s))
    _maybe_die_once(worker_kill_flag)

    soak = run_soak(sessions=int(sessions), duration_s=duration_s,
                    block_size=int(block_size), seed=int(seed),
                    batched=bool(batched), crash_prob=float(crash_prob),
                    stall_prob=float(stall_prob))
    results = ChaosResult(
        sessions=soak.sessions,
        n_blocks=soak.n_blocks,
        batched=soak.batched,
        ok=soak.ok(),
        crashes_injected=soak.crashes_injected,
        stalls_injected=soak.stalls_injected,
        statuses=soak.statuses,
        restores=soak.recovery.get("restores", 0),
        cold_starts=soak.recovery.get("cold_starts", 0),
        escalations=soak.recovery.get("escalations", 0),
        breaker_trips=soak.breaker_trips,
        verified_sessions=soak.verified_sessions,
        mismatches=soak.mismatches,
        soak_report=soak,
    )
    return experiment_result("chaos", {
        "duration_s": duration_s, "seed": seed, "sessions": sessions,
        "block_size": block_size, "crash_prob": crash_prob,
        "stall_prob": stall_prob, "batched": batched,
    }, results)
