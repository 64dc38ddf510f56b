"""Session admission, backpressure, and shedding.

The :class:`SessionManager` is the front door of the serving runtime:
:meth:`~SessionManager.submit` turns a workload (plus an optional
:class:`~repro.runtime.RunRequest` context) into a pending
:class:`~repro.serving.session.DeviceSession`, bounded by two knobs —
``max_sessions`` (the concurrent-batch ceiling) and ``queue_depth``
(how many submissions may wait).  When both are full the configured
shed policy decides who loses:

``"reject"``
    Refuse the new submission with
    :class:`~repro.errors.ServingOverloadError` — explicit
    backpressure the caller can retry against (the default; it never
    throws away accepted work).
``"shed-oldest"``
    Admit the newcomer by evicting the oldest *pending* session
    (marked :data:`~repro.serving.session.SHED`) — freshest-first
    service for load-test scenarios where stale queued work has lost
    its value.

Admission is deterministic — FIFO by submission order, no clocks, no
randomness — so a serial and a batched server drain identical
schedules (part of the serial == batched contract).
"""

from __future__ import annotations

import collections

from .. import obs
from ..errors import ConfigurationError, ServingOverloadError, SignalError
from ..utils.validation import check_positive_int
from .session import SHED, DeviceSession, SessionConfig, SessionWorkload

__all__ = ["SHED_POLICIES", "SessionManager"]

#: Recognized overload policies.
SHED_POLICIES = ("reject", "shed-oldest")


class SessionManager:
    """Admission control for a session server.

    Parameters
    ----------
    max_sessions:
        Ceiling on concurrently *active* sessions (the batch width the
        server may reach).
    queue_depth:
        Ceiling on *pending* (admitted-but-waiting) sessions.
    shed_policy:
        Overload behavior once the queue is full — see module docs.
    session_config:
        The :class:`~repro.serving.session.SessionConfig` every session
        is built with (batch homogeneity).
    block_size:
        Lock-step block length handed to each session.
    """

    def __init__(self, max_sessions=64, queue_depth=256,
                 shed_policy="reject", session_config=None,
                 block_size=256):
        self.max_sessions = check_positive_int("max_sessions", max_sessions)
        self.queue_depth = check_positive_int("queue_depth", queue_depth)
        if shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"unknown shed policy {shed_policy!r}; "
                f"available: {', '.join(SHED_POLICIES)}"
            )
        self.shed_policy = shed_policy
        self.session_config = session_config or SessionConfig()
        self.block_size = check_positive_int("block_size", block_size)
        self.pending = collections.deque()
        self.shed = []              #: sessions evicted under overload
        self.submitted = 0
        self._next_id = 0

    def submit(self, workload, request=None):
        """Queue one workload; returns its :class:`DeviceSession`.

        Parameters
        ----------
        workload:
            A :class:`~repro.serving.session.SessionWorkload`.
        request:
            Optional :class:`~repro.runtime.RunRequest`.  Its
            ``fault_plan`` is applied to this session when the
            workload does not already carry one — the same context
            object the experiment executor accepts, doing the same
            job here.

        Raises
        ------
        SignalError
            When the workload is shorter than one block: the server
            serves whole blocks only, so it would have nothing to
            serve.  Nothing is queued.
        ServingOverloadError
            Under the ``"reject"`` policy with a full queue.
        """
        n_samples = workload.reference.size
        if n_samples < self.block_size:
            raise SignalError(
                f"workload {workload.name!r} has {n_samples} samples, "
                f"fewer than one {self.block_size}-sample block"
            )
        if request is not None and request.fault_plan is not None \
                and workload.fault_plan is None:
            workload = SessionWorkload(
                name=workload.name,
                reference=workload.reference,
                disturbance=workload.disturbance,
                fault_plan=request.fault_plan,
                chaos=workload.chaos,
            )
        if len(self.pending) >= self.queue_depth:
            if self.shed_policy == "reject":
                raise ServingOverloadError(
                    f"session queue full ({self.queue_depth} pending, "
                    f"max_sessions={self.max_sessions}); rejecting "
                    f"{workload.name!r}"
                )
            victim = self.pending.popleft()
            victim.status = SHED
            self.shed.append(victim)
            if obs.enabled():
                obs.get_registry().counter(
                    "serving.shed", policy=self.shed_policy).inc()
        session = DeviceSession(self._next_id, workload,
                                self.session_config, self.block_size)
        self._next_id += 1
        self.submitted += 1
        self.pending.append(session)
        if obs.enabled():
            obs.get_registry().counter("serving.submitted").inc()
            obs.get_registry().gauge("serving.queue_depth").set(
                len(self.pending))
        return session

    def admit(self, active_count):
        """Pop pending sessions up to the ``max_sessions`` ceiling.

        Called by the server at every tick; FIFO, deterministic.
        """
        admitted = []
        while self.pending and \
                active_count + len(admitted) < self.max_sessions:
            admitted.append(self.pending.popleft())
        if admitted and obs.enabled():
            obs.get_registry().gauge("serving.queue_depth").set(
                len(self.pending))
        return admitted

    @property
    def shed_count(self):
        """How many sessions were evicted under overload."""
        return len(self.shed)
