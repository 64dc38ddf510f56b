"""The full MUTE system simulator.

:class:`MuteSystem` wires every substrate together the way Figure 2's
bench does:

    noise source ──h_nr──► relay mic ──FM/RF──► ear-device DSP
        │                                         │ (aligned reference,
        └────────h_ne──► error mic ◄──h_se── anti-noise speaker
                              │                   │
                              └── error feedback ─┘ (LANC)

``run()`` produces the residual at the measurement microphone — the
quantity behind Figures 12, 14, 16 and 17 — along with the no-ANC
baseline, so cancellation spectra come straight off the result object.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..hardware.dsp_board import DspBoard, tms320c6713
from ..hardware.transducers import TransducerResponse, cheap_transducer
from ..utils import fastconv
from ..utils.spectral import cancellation_spectrum_db
from ..utils.validation import check_positive_int, check_waveform
from ..wireless.relay import IdealRelay
from .adaptive.lanc import LancFilter
from .lookahead import LookaheadBudget, align
from .scenario import Scenario
from .secondary_path import estimate_secondary_path

__all__ = ["MuteConfig", "PreparedSignals", "MuteRunResult",
           "ResilientRunResult", "MuteSystem"]


@dataclasses.dataclass
class MuteConfig:
    """Tuning of the ear-device and its periphery.

    Parameters
    ----------
    n_future / n_past:
        Requested LANC tap counts; ``n_future`` is clipped to what the
        lookahead budget allows.
    mu / leak:
        Adaptation step (normalized) and leak.
    relay:
        Relay model (``IdealRelay`` or ``AnalogRelay``); default ideal
        with light mic noise.
    dsp:
        Ear-device latency budget; default the paper's TMS320C6713.
    transducer:
        Anti-noise speaker (+mic) response in the cancellation path;
        ``None`` for ideal transducers.  Default: the paper's cheap
        hardware (Figure 13).
    earcup:
        Passive attenuation over the ear (``None`` = open ear —
        MUTE_Hollow; a :class:`PassiveEarcup` = MUTE+Passive).
    probe_secondary:
        Estimate ``h_se`` with a noisy probe (realistic); if false the
        filter receives the exact secondary path.
    probe_noise_rms:
        Ambient noise level during the secondary-path probe.
    seed:
        Randomness seed (probe noise etc.).
    """

    n_future: int = 64
    n_past: int = 192
    mu: float = 0.5
    leak: float = 0.0
    relay: object = None
    dsp: DspBoard = dataclasses.field(default_factory=tms320c6713)
    transducer: TransducerResponse = dataclasses.field(
        default_factory=cheap_transducer
    )
    earcup: object = None
    probe_secondary: bool = True
    probe_noise_rms: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.relay is None:
            self.relay = IdealRelay(mic_noise_rms=1e-3, seed=self.seed)
        if self.n_future < 0 or self.n_past <= 0:
            raise ConfigurationError(
                "need n_future >= 0 and n_past > 0, got "
                f"({self.n_future}, {self.n_past})"
            )


@dataclasses.dataclass
class PreparedSignals:
    """Signals and parameters ready for a LANC run (or a custom loop)."""

    reference: np.ndarray        # aligned reference at the DSP
    disturbance_open: np.ndarray  # noise at the ear, no device at all
    disturbance_at_ear: np.ndarray  # after the earcup (if any)
    secondary_path_true: np.ndarray
    secondary_path_estimate: np.ndarray
    n_future: int
    budget: LookaheadBudget
    sample_rate: float


@dataclasses.dataclass
class MuteRunResult:
    """Outcome of one MUTE simulation run."""

    residual: np.ndarray          # at the measurement mic, ANC on
    disturbance_open: np.ndarray  # no device (the "off" reference)
    disturbance_at_ear: np.ndarray
    antinoise: np.ndarray
    budget: LookaheadBudget
    n_future_used: int
    sample_rate: float

    def _settled(self, signal, settle_fraction):
        start = int(signal.size * settle_fraction)
        return signal[start:]

    def cancellation_spectrum(self, nperseg=512, settle_fraction=0.3):
        """(freqs, dB) — residual PSD over open-ear PSD (Figure 12 axes).

        The first ``settle_fraction`` of the run (adaptive-filter
        convergence) is excluded, as a bench measurement would.
        """
        before = self._settled(self.disturbance_open, settle_fraction)
        after = self._settled(self.residual, settle_fraction)
        return cancellation_spectrum_db(before, after, self.sample_rate,
                                        nperseg=nperseg)

    def mean_cancellation_db(self, f_low=0.0, f_high=None, nperseg=512,
                             settle_fraction=0.3):
        """Average cancellation over a band (negative = cancelling)."""
        freqs, spec = self.cancellation_spectrum(nperseg, settle_fraction)
        f_high = f_high if f_high is not None else self.sample_rate / 2.0
        mask = (freqs >= f_low) & (freqs <= f_high)
        if not np.any(mask):
            raise ConfigurationError(
                f"band [{f_low}, {f_high}] Hz contains no PSD bins"
            )
        return float(np.mean(spec[mask]))


@dataclasses.dataclass
class ResilientRunResult(MuteRunResult):
    """Outcome of a fault-injected :meth:`MuteSystem.run_resilient` run.

    Extends :class:`MuteRunResult` with the degradation history.  Note
    ``antinoise`` here is the anti-noise *as heard at the error mic*
    (``residual − disturbance_at_ear``): the streaming loop does not
    retain the raw speaker drive.

    Attributes
    ----------
    transitions : list of ModeTransition
        Every mode change the degradation controller performed.
    modes : list of str
        The mode each block ran under, in block order.
    mode_fractions : dict
        ``{mode: fraction of blocks}`` summary.
    block_size : int
        Samples per degradation-control block.
    plan_key : str or None
        Content address of the injected :class:`repro.faults.FaultPlan`
        (``None`` for an unfaulted run).
    """

    transitions: list = dataclasses.field(default_factory=list)
    modes: list = dataclasses.field(default_factory=list)
    mode_fractions: dict = dataclasses.field(default_factory=dict)
    block_size: int = 256
    plan_key: str | None = None

    @property
    def recovered(self):
        """True when the run ended back in full MUTE operation."""
        return not self.modes or self.modes[-1] == "mute"

    def window_cancellation_db(self, start_s, stop_s):
        """Broadband cancellation (dB, negative = cancelling) over a window.

        Time-domain RMS ratio of residual to open-ear disturbance over
        ``[start_s, stop_s)`` — the right tool for *localizing* fault
        impact (e.g. comparing cancellation inside and outside an outage
        window), where the settled-PSD view of
        :meth:`cancellation_spectrum` would smear the event.
        """
        lo = max(0, int(start_s * self.sample_rate))
        hi = min(self.residual.size, int(stop_s * self.sample_rate))
        if hi <= lo:
            raise ConfigurationError(
                f"window [{start_s}, {stop_s}] s selects no samples"
            )
        rms_after = float(np.sqrt(np.mean(self.residual[lo:hi] ** 2)))
        rms_before = float(np.sqrt(
            np.mean(self.disturbance_open[lo:hi] ** 2)))
        return 20.0 * np.log10(max(rms_after, 1e-12)
                               / max(rms_before, 1e-12))


class MuteSystem:
    """End-to-end MUTE simulation over a :class:`Scenario`.

    Parameters
    ----------
    scenario:
        Physical layout; channels are built once at construction.
    config:
        :class:`MuteConfig`; defaults give the paper's bench.
    relay_index:
        Which of the scenario's relays the client uses (relay
        *selection* is exercised separately via
        :mod:`repro.core.relay_selection`).
    """

    def __init__(self, scenario, config=None, relay_index=0):
        if not isinstance(scenario, Scenario):
            raise ConfigurationError("scenario must be a Scenario")
        self.scenario = scenario
        self.config = config or MuteConfig()
        self.channels = scenario.build_channels()
        if not 0 <= relay_index < len(self.channels.h_nr):
            raise ConfigurationError(
                f"relay_index {relay_index} out of range"
            )
        self.relay_index = relay_index
        self.sample_rate = scenario.sample_rate
        self._secondary_true = self._build_secondary_true()
        with obs.span("mute.estimate_secondary",
                      probe=self.config.probe_secondary):
            self._secondary_estimate = self._estimate_secondary()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_secondary_true(self):
        """Physical speaker→error-mic path including the transducer."""
        ir = self.channels.h_se.ir
        transducer = self.config.transducer
        if transducer is None:
            return ir.copy()
        combined = fastconv.fir_apply(ir, transducer.impulse_response,
                                      mode="full")
        # The transducer FIR is linear-phase; its bulk delay is an
        # artifact of the FIR realization, not physics — remove it.
        d = transducer.group_delay_samples
        return combined[d:]

    def _estimate_secondary(self):
        cfg = self.config
        n_taps = min(self._secondary_true.size, 128)
        if not cfg.probe_secondary:
            return self._secondary_true.copy()
        estimate = estimate_secondary_path(
            self._secondary_true, n_taps=n_taps,
            probe_duration_s=max(1.0, n_taps * 8 / self.sample_rate),
            sample_rate=self.sample_rate,
            ambient_noise_rms=cfg.probe_noise_rms,
            seed=cfg.seed,
        )
        return estimate.impulse_response

    def _lag(self, relay):
        """Samples the relay's delivered stream leads the ear by.

        The Eq. 4 lead less the delay left in what ``relay.forward``
        returns — the relay's delay is charged here, and only here.
        """
        return (self.channels.acoustic_lead_samples[self.relay_index]
                - getattr(relay, "latency_samples", 0))

    @property
    def lookahead_budget(self):
        """The Eq. 3 / Eq. 4 ledger for the selected relay, in seconds."""
        return LookaheadBudget(
            acoustic_lead_s=self._lag(self.config.relay) / self.sample_rate,
            pipeline_latency_s=self.config.dsp.total_latency_s,
        )

    # ------------------------------------------------------------------
    # Signal preparation and the main run
    # ------------------------------------------------------------------
    def prepare(self, noise, relay=None):
        """Propagate noise through the scene; align the reference.

        Parameters
        ----------
        noise : array_like
            Source noise waveform.
        relay : object, optional
            Override for the forwarding relay — used by
            :meth:`run_resilient` to substitute a fault-injecting
            wrapper (:class:`repro.faults.FaultyRelay`) without touching
            the configured relay.  Defaults to ``config.relay``, so
            existing callers are bit-identical.

        Raises
        ------
        LookaheadError
            If the relay's delivered stream leads the ear by less than
            the pipeline latency (relay selection would have rejected
            it).
        """
        noise = check_waveform("noise", noise, min_length=64)
        cfg = self.config
        forward_relay = relay if relay is not None else cfg.relay
        with obs.span("mute.prepare", samples=noise.size) as sp:
            with obs.span("mute.prepare.propagate"):
                d_open = self.channels.h_ne.apply(noise)
                x_capture = self.channels.h_nr[self.relay_index].apply(noise)
            with obs.span("mute.prepare.relay"):
                forwarded = forward_relay.forward(x_capture)

            with obs.span("mute.prepare.align"):
                reference, n_future = align(
                    forwarded, self._lag(forward_relay),
                    cfg.dsp.total_latency_s, self.sample_rate, cfg.n_future)

                d_ear = (cfg.earcup.apply(d_open)
                         if cfg.earcup is not None else d_open)

            sp.set_attribute("n_future", n_future)
            if obs.enabled():
                registry = obs.get_registry()
                registry.counter("mute.prepares").inc()
                registry.gauge("mute.n_future").set(n_future)

        return PreparedSignals(
            reference=reference,
            disturbance_open=d_open,
            disturbance_at_ear=d_ear,
            secondary_path_true=self._secondary_true,
            secondary_path_estimate=self._secondary_estimate,
            n_future=n_future,
            budget=self.lookahead_budget,
            sample_rate=self.sample_rate,
        )

    def make_filter(self, n_future=None):
        """A LANC filter wired with this system's secondary-path estimate."""
        cfg = self.config
        return LancFilter(
            n_future=cfg.n_future if n_future is None else n_future,
            n_past=cfg.n_past,
            secondary_path=self._secondary_estimate,
            mu=cfg.mu,
            leak=cfg.leak,
        )

    def run(self, noise):
        """Simulate the complete system over a noise waveform.

        When observability is enabled (``repro.obs``), the run is traced
        as a ``mute.run`` span with ``mute.prepare`` / ``mute.adapt`` /
        ``mute.collect`` children — the stages the timing-budget report
        prices.  Instrumentation never touches signals or seeds, so the
        returned waveforms are bit-identical either way.
        """
        with obs.span("mute.run") as sp:
            prepared = self.prepare(noise)
            with obs.span("mute.adapt", engine="lanc",
                          n_future=prepared.n_future,
                          n_past=self.config.n_past):
                lanc = self.make_filter(n_future=prepared.n_future)
                result = lanc.run(
                    prepared.reference,
                    prepared.disturbance_at_ear,
                    secondary_path_true=prepared.secondary_path_true,
                )
            with obs.span("mute.collect"):
                run_result = MuteRunResult(
                    residual=result.error,
                    disturbance_open=prepared.disturbance_open,
                    disturbance_at_ear=prepared.disturbance_at_ear,
                    antinoise=result.output,
                    budget=prepared.budget,
                    n_future_used=prepared.n_future,
                    sample_rate=self.sample_rate,
                )
            sp.set_attribute("samples", prepared.reference.size)
            if obs.enabled():
                obs.get_registry().counter("mute.runs").inc()
        return run_result

    def run_resilient(self, noise, fault_plan=None, block_size=256):
        """Simulate the system under relay-path faults, degrading gracefully.

        The fault-injected counterpart of :meth:`run`: the configured
        relay is wrapped in a :class:`repro.faults.FaultyRelay` applying
        ``fault_plan``, and the adaptive filter runs block-by-block
        behind a :class:`repro.faults.DegradationController` — a
        reference-health watchdog that walks
        ``mute → feedback → passive`` as the reference degrades and
        restores the pre-fault taps on recovery.  See ``docs/FAULTS.md``.

        Parameters
        ----------
        noise : array_like
            Source noise waveform.
        fault_plan : FaultPlan, optional
            Timed fault events to inject; ``None`` (or an empty plan)
            runs faultless — bit-identical signals to the same loop over
            the unwrapped relay.
        block_size : int
            Samples per health-assessment block (the degradation
            controller's reaction granularity).

        Returns
        -------
        ResilientRunResult
            Residual/baseline waveforms plus the mode history and
            transitions.

        Notes
        -----
        Traced as a ``mute.run_resilient`` span; every mode change emits
        a ``resilience.transition`` child span and ticks
        ``resilience.transitions{from,to}``, so a mid-run outage is
        visible in ``repro obs-report`` output.
        """
        # Imported here: repro.faults is an extension layer on top of
        # core and must stay optional for plain runs.
        from ..faults.injector import wrap_relay
        from ..faults.monitor import DegradationController
        from .adaptive.lanc import StreamingLanc

        block_size = check_positive_int("block_size", block_size)
        # Wrapping first rejects a fault_plan that is not a FaultPlan.
        relay = wrap_relay(self.config.relay, fault_plan, self.sample_rate)
        plan_key = (fault_plan.plan_key()
                    if fault_plan is not None and not fault_plan.empty
                    else None)
        with obs.span("mute.run_resilient", block_size=block_size,
                      plan=plan_key or "none") as sp:
            prepared = self.prepare(noise, relay=relay)
            lanc = self.make_filter(n_future=prepared.n_future)
            reference = prepared.reference
            session = StreamingLanc(
                lanc, reference,
                secondary_path_true=prepared.secondary_path_true,
            )
            controller = DegradationController(
                lanc, sample_rate=self.sample_rate)
            with obs.span("mute.adapt", engine="resilient-lanc",
                          n_future=prepared.n_future,
                          n_past=self.config.n_past):
                d = prepared.disturbance_at_ear
                for t0 in range(0, reference.size, block_size):
                    t1 = min(t0 + block_size, reference.size)
                    mode = controller.observe(reference[t0:t1], t0)
                    adapt, active = DegradationController.gates(mode)
                    session.process(d[t0:t1], adapt=adapt, active=active)
            with obs.span("mute.collect"):
                residual = session.residual()
                run_result = ResilientRunResult(
                    residual=residual,
                    disturbance_open=prepared.disturbance_open,
                    disturbance_at_ear=prepared.disturbance_at_ear,
                    antinoise=residual - prepared.disturbance_at_ear,
                    budget=prepared.budget,
                    n_future_used=prepared.n_future,
                    sample_rate=self.sample_rate,
                    transitions=list(controller.transitions),
                    modes=list(controller.modes),
                    mode_fractions=controller.mode_fractions(),
                    block_size=block_size,
                    plan_key=plan_key,
                )
            sp.set_attribute("samples", reference.size)
            sp.set_attribute("transitions", len(run_result.transitions))
            if obs.enabled():
                obs.get_registry().counter("mute.resilient_runs").inc()
        return run_result

    # ------------------------------------------------------------------
    # Relay-selection support (Figures 18–19)
    # ------------------------------------------------------------------
    def forwarded_and_ear_signals(self, noise):
        """Per-relay forwarded waveforms plus the raw ear signal.

        Inputs for :class:`repro.core.relay_selection.RelaySelector` —
        no alignment applied, exactly what the client would correlate.
        """
        noise = check_waveform("noise", noise, min_length=64)
        ear = self.channels.h_ne.apply(noise)
        forwarded = {}
        for i, channel in enumerate(self.channels.h_nr):
            captured = channel.apply(noise)
            forwarded[i] = self.config.relay.forward(captured)
        return forwarded, ear

    def summary(self):
        """One-paragraph configuration description for reports."""
        budget = self.lookahead_budget
        return (
            f"MuteSystem: lead {budget.acoustic_lead_s * 1e3:.2f} ms, "
            f"pipeline {budget.pipeline_latency_s * 1e3:.2f} ms, "
            f"usable lookahead {budget.usable_lookahead_s * 1e3:.2f} ms "
            f"({budget.usable_future_taps(self.sample_rate)} future taps "
            f"at {self.sample_rate:.0f} Hz)"
        )
