"""An online MUTE ear-device: block processing with relay handoff.

Paper §4.2: "Correlation is performed periodically to handle the
possibility that the sound source has moved to another location."  The
batch :class:`MuteSystem` picks one relay up front; this module runs the
device the way it would actually operate:

* consume the relay streams and the error-mic stream block by block;
* every ``reselect_interval_s``, GCC-PHAT the recent window of every
  relay against the ear and (re)select the best positive-lookahead
  relay — the *measured* correlation lag doubles as the alignment the
  canceler needs;
* on a handoff (or when the lag drifts), start a new LANC session
  (:class:`~repro.core.adaptive.lanc.StreamingLanc`) for the new
  relay/alignment, warm-starting from a per-assignment tap cache;
* when no relay offers usable lookahead, output silence (the residual is
  simply the ambient noise) until one does.

The simulation driver :meth:`OnlineMuteDevice.run_session` accepts a
*schedule* of (source position, waveform) segments, so the noise source
can jump around the room mid-session — the scenario the paper's periodic
correlation exists for.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ConfigurationError, LookaheadError
from ..hardware.dsp_board import tms320c6713
from ..utils.validation import check_positive, check_waveform
from .adaptive.lanc import LancFilter, StreamingLanc
from .lookahead import align
from .relay_selection import RelaySelector
from .scenario import Scenario
from .secondary_path import estimate_secondary_path

__all__ = ["HandoffEvent", "OnlineSessionResult", "OnlineMuteDevice"]


@dataclasses.dataclass(frozen=True)
class HandoffEvent:
    """One relay (re)selection decision."""

    sample_index: int
    relay: object            # relay index or None
    lag_samples: int
    warm_start: bool


@dataclasses.dataclass
class OnlineSessionResult:
    """Everything a session produced."""

    residual: np.ndarray
    disturbance: np.ndarray
    handoffs: list
    active_relay_timeline: np.ndarray   # per-sample relay index (-1 = none)

    def segment_cancellation_db(self, start, stop):
        """Broadband cancellation over ``[start, stop)`` samples."""
        from ..utils.units import cancellation_db

        return cancellation_db(self.disturbance[start:stop],
                               self.residual[start:stop])


class OnlineMuteDevice:
    """Block-streaming ear-device over a multi-relay scenario.

    Parameters
    ----------
    scenario:
        Room/relay/client layout (source positions come per segment).
    n_future_max / n_past / mu:
        LANC sizing; ``n_future`` is set per handoff from the measured
        lag minus the pipeline latency (:func:`~repro.core.lookahead.align`).
    block_s:
        Processing block (also the granularity of handoffs).
    reselect_interval_s:
        How often the device re-runs GCC-PHAT (the paper's "periodic").
    correlation_window_s:
        How much recent audio each correlation uses.
    """

    def __init__(self, scenario, n_future_max=64, n_past=384, mu=0.15,
                 block_s=0.05, reselect_interval_s=0.5,
                 correlation_window_s=0.5, dsp=None, seed=0):
        if not isinstance(scenario, Scenario):
            raise ConfigurationError("scenario must be a Scenario")
        self.scenario = scenario
        self.fs = scenario.sample_rate
        self.n_future_max = int(n_future_max)
        self.n_past = int(n_past)
        self.mu = check_positive("mu", mu)
        self.block = max(int(check_positive("block_s", block_s) * self.fs),
                         1)
        self.reselect_every = max(
            int(check_positive("reselect_interval_s", reselect_interval_s)
                * self.fs), 1)
        self.corr_window = max(
            int(check_positive("correlation_window_s",
                               correlation_window_s) * self.fs), 64)
        self.dsp = dsp or tms320c6713()
        self.seed = seed
        self.selector = RelaySelector(sample_rate=self.fs,
                                      min_confidence=3.0)

        # Secondary path is a property of the (static) client position.
        base = scenario.build_channels()
        self._h_se = base.h_se.ir
        estimate = estimate_secondary_path(
            self._h_se, n_taps=min(self._h_se.size, 128),
            probe_duration_s=1.0, sample_rate=self.fs,
            ambient_noise_rms=0.002, seed=seed)
        self._s_hat = estimate.impulse_response

    # ------------------------------------------------------------------
    # Simulation-side signal synthesis
    # ------------------------------------------------------------------
    def _synthesize(self, schedule):
        """Per-relay forwarded streams + ear stream for a schedule."""
        captures = [[] for __ in self.scenario.relays]
        ear = []
        boundaries = [0]
        for source, waveform in schedule:
            waveform = check_waveform("segment waveform", waveform)
            channels = self.scenario.with_source(source).build_channels()
            ear.append(channels.h_ne.apply(waveform))
            for i, h_nr in enumerate(channels.h_nr):
                captures[i].append(h_nr.apply(waveform))
            boundaries.append(boundaries[-1] + waveform.size)
        forwarded = [np.concatenate(chunks) for chunks in captures]
        return forwarded, np.concatenate(ear), boundaries

    # ------------------------------------------------------------------
    # The online loop
    # ------------------------------------------------------------------
    def _reselect(self, forwarded, ear, t):
        """GCC-PHAT over the recent window; returns (relay, lag) or None.

        Correlates against the *ambient* component of the ear signal.
        A real device reconstructs it as ``d_hat = e − ŝ∗α`` (it knows
        the anti-noise it played and its secondary-path estimate); the
        simulation hands it the ambient directly, which is the same
        signal up to the estimate's error.
        """
        start = max(t - self.corr_window, 0)
        if t - start < 64:
            return None
        window = {i: f[start:t] for i, f in enumerate(forwarded)}
        best, measurements = self.selector.select(window, ear[start:t],
                                                  max_lag_s=0.05)
        if best is None:
            return None
        lag = int(round(measurements[best].lag_s * self.fs))
        try:    # Eq. 3 through the ledger: N = 0 still runs
            align(window[best], lag, self.dsp.total_latency_s, self.fs, 0)
        except LookaheadError:
            return None
        return best, lag

    def _build_session(self, forwarded, relay, lag, cache):
        """The LANC session for one assignment, over its aligned reference."""
        reference, n_future = align(forwarded[relay], lag,
                                    self.dsp.total_latency_s, self.fs,
                                    self.n_future_max)
        lanc = LancFilter(n_future=n_future, n_past=self.n_past,
                          secondary_path=self._s_hat, mu=self.mu)
        cached = cache.get((relay, lag))
        warm = cached is not None
        if warm:
            lanc.set_taps(cached)
        session = StreamingLanc(lanc, reference,
                                secondary_path_true=self._h_se)
        return session, warm

    def _join(self, session, ear, t):
        """Bring a new session to time ``t`` as if its frozen taps had
        played over ``ear[:t]``.

        A frozen-tap output depends only on the taps and the reference,
        and the state keeps only the last ``len(h_se)`` outputs in
        flight, so a walk over that tail leaves what a walk over the
        whole prefix would: silence for a cold session, the in-flight
        anti-noise for a warm one.
        """
        start = max(t - self._h_se.size, 0)
        session.state.time = start
        if t > start:
            session.process(ear[start:t], adapt=False)

    def run_session(self, schedule):
        """Run the device over a (source, waveform) schedule.

        Returns an :class:`OnlineSessionResult`; handoffs record every
        relay decision the device made.
        """
        if not schedule:
            raise ConfigurationError("schedule must be non-empty")
        forwarded, ear, __ = self._synthesize(schedule)
        T = ear.size

        residual = np.empty(T)
        timeline = np.full(T, -1, dtype=int)
        handoffs = []
        cache = {}

        session = None
        assignment = None        # (relay, lag)
        since_reselect = self.reselect_every   # force a check at t=0

        t = 0
        while t < T:
            stop = min(t + self.block, T)
            if since_reselect >= self.reselect_every:
                since_reselect = 0
                decision = self._reselect(forwarded, ear, t)
                new_assignment = decision if decision else None
                drift = (
                    assignment is not None and new_assignment is not None
                    and assignment[0] == new_assignment[0]
                    and abs(assignment[1] - new_assignment[1]) <= 2
                )
                if new_assignment != assignment and not drift:
                    if session is not None:
                        cache[assignment] = session.filter.get_taps()
                    if new_assignment is None:
                        session = None
                    else:
                        session, warm = self._build_session(
                            forwarded, new_assignment[0],
                            new_assignment[1], cache)
                        self._join(session, ear, t)
                        handoffs.append(HandoffEvent(
                            sample_index=t, relay=new_assignment[0],
                            lag_samples=new_assignment[1],
                            warm_start=warm))
                    assignment = new_assignment
                    if new_assignment is None:
                        handoffs.append(HandoffEvent(
                            sample_index=t, relay=None, lag_samples=0,
                            warm_start=False))

            if session is None:
                residual[t:stop] = ear[t:stop]     # no anti-noise
            else:
                residual[t:stop] = session.process(ear[t:stop])
                timeline[t:stop] = assignment[0]
            since_reselect += stop - t
            t = stop

        return OnlineSessionResult(
            residual=residual,
            disturbance=ear,
            handoffs=handoffs,
            active_relay_timeline=timeline,
        )
