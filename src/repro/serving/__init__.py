"""repro.serving — multi-session serving runtime with batched kernels.

The ROADMAP's production north-star is a service "serving heavy traffic
from millions of users"; this package is the first rung of that
ladder: many concurrent MUTE device sessions advanced in lock-step
blocks through one **batched cross-session kernel**
(:func:`repro.core.adaptive.kernels.fxlms_block_batch`), instead of
one ear-device at a time.  Full guide: ``docs/SERVING.md``.

Three layers:

* :mod:`~repro.serving.session` — :class:`DeviceSession`: one user's
  workload, adaptive state, and per-session
  :class:`~repro.faults.DegradationController` (faults injected
  through :class:`~repro.faults.FaultyRelay`, isolated to that row of
  the batch);
* :mod:`~repro.serving.manager` — :class:`SessionManager`: admission
  control and backpressure (``max_sessions``, ``queue_depth``, and a
  ``reject`` / ``shed-oldest`` overload policy raising
  :class:`~repro.errors.ServingOverloadError`);
* :mod:`~repro.serving.server` — :class:`SessionServer`: the
  lock-step scheduler.  ``batched=True`` stacks every session into
  one kernel call per block; ``batched=False`` runs the same kernel
  per session — **bit-identical** outputs either way.

Crash safety (``docs/RESILIENCE.md``) adds three more:

* :mod:`~repro.serving.checkpoint` — :class:`CheckpointStore`:
  digest-verified, atomically persisted session snapshots with warm
  bit-identical restore;
* :mod:`~repro.serving.supervisor` — :class:`SessionSupervisor`:
  catches per-session crashes, restarts from the latest checkpoint
  with escalating backoff, escalates to shedding after
  ``max_restarts`` (enable via ``ServerConfig.supervision``);
* :mod:`~repro.serving.breaker` — :class:`DeadlineCircuitBreaker`:
  per-session block-latency budgets from the paper's Eq. 3 lookahead
  window, tripping ``mute → feedback → passive`` with half-open
  recovery probes (enable via ``ServerConfig.deadline``).

Minimal session::

    from repro import serving

    server = serving.SessionServer()
    for i in range(8):
        server.submit(serving.SessionWorkload.synthetic(f"user{i}",
                                                        seed=i))
    report = server.run_until_drained()
    report.digests()                 # per-session residual fingerprints
    print(report.report())

``python -m repro serve-bench`` drives the same loop from the CLI;
``benchmarks/bench_serving.py`` sweeps sessions vs throughput into
``BENCH_serving.json``.
"""

from __future__ import annotations

from .breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DeadlineCircuitBreaker,
    DeadlineConfig,
)
from .checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    checkpoint_payload,
)
from .manager import SHED_POLICIES, SessionManager
from .server import ServerConfig, ServingReport, SessionServer
from .supervisor import SessionSupervisor, SupervisionConfig
from .session import (
    ACTIVE,
    DONE,
    FAILED,
    PENDING,
    SHED,
    DeviceSession,
    SessionConfig,
    SessionResult,
    SessionWorkload,
)

__all__ = [
    # session
    "PENDING",
    "ACTIVE",
    "DONE",
    "FAILED",
    "SHED",
    "SessionConfig",
    "SessionWorkload",
    "SessionResult",
    "DeviceSession",
    # manager
    "SHED_POLICIES",
    "SessionManager",
    # server
    "ServerConfig",
    "ServingReport",
    "SessionServer",
    # checkpoint
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "checkpoint_payload",
    # supervisor
    "SupervisionConfig",
    "SessionSupervisor",
    # breaker
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "DeadlineConfig",
    "DeadlineCircuitBreaker",
]
