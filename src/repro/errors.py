"""Exception hierarchy for the MUTE reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures without also catching unrelated bugs::

    try:
        system.run(noise)
    except repro.ReproError as exc:
        log.error("simulation failed: %s", exc)
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "UnknownParameterError",
    "SignalError",
    "ChannelError",
    "ConvergenceError",
    "LookaheadError",
    "RelaySelectionError",
    "ServingOverloadError",
    "CheckpointError",
    "InjectedCrashError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter or combination of parameters is invalid.

    Raised eagerly at construction time so misconfiguration is caught
    before a long simulation starts.
    """


class UnknownParameterError(ConfigurationError):
    """An override names a parameter the target does not accept.

    Carries the offending names so callers (the CLI, the executor) can
    print exactly what was wrong without parsing the message.

    Attributes
    ----------
    unknown:
        Sorted tuple of the unrecognized parameter names.
    valid:
        Tuple of the names that *are* accepted, in signature order.
    """

    def __init__(self, message, unknown=(), valid=()):
        super().__init__(message)
        self.unknown = tuple(unknown)
        self.valid = tuple(valid)


class SignalError(ReproError, ValueError):
    """A signal array has the wrong shape, dtype, or content."""


class ChannelError(ReproError, ValueError):
    """An acoustic or RF channel is invalid (e.g. empty impulse response)."""


class ConvergenceError(ReproError, RuntimeError):
    """An adaptive filter diverged (error grew without bound).

    LMS-family filters diverge when the step size exceeds the stability
    bound for the input power; the simulator raises this instead of
    silently returning NaNs.
    """


class LookaheadError(ReproError, ValueError):
    """The relay's lead cannot cover the pipeline: no usable lookahead.

    Raised by :func:`repro.core.lookahead.align` when the delivered
    reference leads the ear by less than the pipeline latency (Eq. 3) —
    a relay that relay selection would have rejected.
    """


class RelaySelectionError(ReproError, RuntimeError):
    """Relay selection could not produce a valid decision."""


class ServingOverloadError(ReproError, RuntimeError):
    """The session server refused an admission: capacity is exhausted.

    Raised by :meth:`repro.serving.SessionManager.submit` under the
    ``"reject"`` shed policy when both the active set and the pending
    queue are full — the serving layer's explicit backpressure signal.
    """


class CheckpointError(ReproError, RuntimeError):
    """A session checkpoint could not be written, read, or applied.

    Note that a *corrupt* stored checkpoint never raises on the read
    path — :meth:`repro.serving.CheckpointStore.latest` quarantines
    damaged snapshots (the :class:`repro.utils.store.Store` corruption
    policy) and falls back to the newest intact one (or a cold
    restart).  This error flags caller mistakes: checkpointing a
    session whose geometry does not match the payload, or restoring
    into the wrong workload.
    """


class InjectedCrashError(ReproError, RuntimeError):
    """A deliberate crash injected by the chaos harness.

    Raised by :class:`repro.chaos.SessionChaosInjector` at a scheduled
    block so the serving supervisor's catch/restore path is exercised
    by a *typed*, attributable failure.  A supervised server treats it
    exactly like any other per-session exception; an unsupervised
    server lets it propagate (chaos without supervision is a
    configuration mistake worth failing loudly on).
    """
