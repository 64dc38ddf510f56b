"""Extension experiment: the multi-session serving runtime.

Not a paper figure — a scaling extension.  MUTE's lookahead (the RF
reference outrunning sound, §3.1) is exactly what makes *server-side*
noise cancellation viable: a whole block's deadline fits inside the
lookahead budget, so one machine can advance many user sessions in
lock-step through the batched cross-session kernel
(:mod:`repro.serving`).  This experiment serves ``sessions``
independent synthetic users — optionally with a fault plan on every
other session — both to measure cancellation under batch serving and
to lock the serial == batched bit-identity contract into the
experiment suite.

This experiment is also the end-to-end probe for
:class:`~repro.runtime.RunRequest` propagation: a request's ``params``
(here ``sessions``) must reach worker processes, and its
``fault_plan`` must reach the sessions (``tests/test_runtime.py``
asserts both).
"""

from __future__ import annotations

import dataclasses

from .registry import experiment_result

__all__ = ["ServingResult", "run_serving"]


@dataclasses.dataclass
class ServingResult:
    """Results of one ``serving`` experiment run."""

    sessions: int
    batched: bool
    block_size: int
    faulted_sessions: int      #: sessions that carried the fault plan
    statuses: dict             #: status -> count
    digests: dict              #: session name -> residual SHA-256
    cancellations_db: dict     #: session name -> mean cancellation
    mode_fractions: dict       #: session name -> degradation occupancy
    shed: int
    serving_report: object     #: the full ServingReport

    def mean_cancellation_db(self):
        """Mean cancellation over sessions that produced residual."""
        values = [v for v in self.cancellations_db.values() if v != 0.0]
        return sum(values) / len(values) if values else 0.0

    def report(self):
        """Deterministic text summary (no wall-clock values)."""
        mode = "batched" if self.batched else "serial"
        lines = [
            f"serving: {self.sessions} session(s), {mode}, "
            f"block={self.block_size}, "
            f"{self.faulted_sessions} faulted, shed={self.shed}",
            f"mean cancellation {self.mean_cancellation_db():.1f} dB",
        ]
        for name in sorted(self.digests):
            modes = ", ".join(
                f"{m}={f:.2f}"
                for m, f in sorted(self.mode_fractions[name].items()))
            lines.append(
                f"  {name:<12} {self.cancellations_db[name]:6.1f} dB  "
                f"digest={self.digests[name][:12]}  [{modes}]"
            )
        return "\n".join(lines)


def run_serving(duration_s=1.0, *, seed=0, scenario=None, sessions=8,
                fault_plan=None, batched=True, block_size=256):
    """Serve ``sessions`` concurrent synthetic users through the runtime.

    Parameters
    ----------
    duration_s:
        Simulated seconds of audio per session.
    seed:
        Base seed; session ``i`` uses ``seed + i`` (independent users).
    scenario:
        Accepted for signature uniformity with the other runners;
        serving synthesizes per-user workloads and does not use it.
    sessions:
        Number of concurrent device sessions.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` applied to every
        *other* session (odd indices) — a mixed healthy/degraded
        batch, exercising per-row fault isolation.
    batched:
        Batched (one stacked kernel call per block) vs serial
        scheduling; outputs are bit-identical either way.
    block_size:
        Lock-step block length in samples.
    """
    from ...serving import ServerConfig, SessionServer, SessionWorkload

    del scenario  # synthesized workloads; kept for uniform signatures
    sessions = int(sessions)
    config = ServerConfig(batched=bool(batched),
                          block_size=int(block_size),
                          max_sessions=max(sessions, 1))
    server = SessionServer(config)
    faulted = 0
    for i in range(sessions):
        plan = fault_plan if (fault_plan is not None and i % 2 == 1) \
            else None
        faulted += plan is not None
        server.submit(SessionWorkload.synthetic(
            f"user{i}", duration_s=duration_s, seed=int(seed) + i,
            sample_rate=config.session.sample_rate, fault_plan=plan))
    serving_report = server.run_until_drained()

    results = ServingResult(
        sessions=sessions,
        batched=bool(batched),
        block_size=int(block_size),
        faulted_sessions=faulted,
        statuses=serving_report.statuses(),
        digests=serving_report.digests(),
        cancellations_db={r.name: r.cancellation_db()
                          for r in serving_report.results},
        mode_fractions={r.name: r.mode_fractions
                        for r in serving_report.results},
        shed=serving_report.shed,
        serving_report=serving_report,
    )
    return experiment_result("serving", {
        "duration_s": duration_s, "seed": seed, "sessions": sessions,
        "fault_plan": fault_plan, "batched": batched,
        "block_size": block_size,
    }, results)
