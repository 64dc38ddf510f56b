"""Extension experiment — cancellation under relay-path faults.

The paper assumes the IoT relay keeps streaming; this extension asks
what MUTE loses when it does not.  Two sweeps over
:meth:`~repro.core.system.MuteSystem.run_resilient`:

* **outage fraction** — a centered relay blackout covering 0..50 % of
  the run (``repro.faults.outage_plan``), exercising the full
  ``mute → passive → mute`` degradation round-trip;
* **packet-loss rate** — uniform frame erasures
  (``repro.faults.packet_loss_plan``), the degraded-but-alive regime
  where freezing adaptation (*feedback* mode) protects the converged
  taps.

Cancellation should be monotone: more outage / more loss → less mean
cancellation, converging to the passive/no-device floor.  Results carry
only floats and small dicts, so they pickle cheaply through the
:mod:`repro.runtime` process-pool executor and cache bit-identically.
"""

from __future__ import annotations

import dataclasses

from ...acoustics.geometry import Point, Room
from ...acoustics.rir import RirSettings
from ...core.scenario import Scenario
from ...core.system import MuteConfig, MuteSystem
from ...signals import WhiteNoise
from ...wireless.relay import IdealRelay
from ..reporting import format_table
from .registry import experiment_result

__all__ = ["ResilienceResult", "run_resilience", "resilience_scenario"]


def resilience_scenario(sample_rate=8000.0):
    """A small, fast-RIR room for the fault sweeps.

    First-order reflections only — the sweeps need many full runs, and
    fault behaviour does not depend on late reverberation.
    """
    return Scenario(
        room=Room(5.0, 4.0, 3.0, absorption=0.4),
        source=Point(0.8, 0.7, 1.2),
        client=Point(3.8, 2.2, 1.2),
        relays=(Point(1.05, 0.3, 1.2),),
        sample_rate=sample_rate,
        rir_settings=RirSettings(max_order=1),
    )


def _make_system(scenario, seed):
    # Fresh system (and therefore fresh relay RNG) per sweep point, so
    # each point is independent of sweep order.
    config = MuteConfig(
        n_future=32, n_past=192, mu=0.3, probe_secondary=False,
        relay=IdealRelay(mic_noise_rms=1e-3, seed=seed),
    )
    return MuteSystem(scenario, config)


def _run_point(scenario, noise, plan, seed, block_size):
    system = _make_system(scenario, seed)
    result = system.run_resilient(noise, fault_plan=plan,
                                  block_size=block_size)
    return {
        "cancellation_db": result.mean_cancellation_db(),
        "transitions": len(result.transitions),
        "recovered": result.recovered,
        "mode_fractions": {k: round(v, 4)
                           for k, v in result.mode_fractions.items()},
        "plan": result.plan_key,
    }


@dataclasses.dataclass
class ResilienceResult:
    """Cancellation vs outage fraction and vs packet-loss rate."""

    outage_curve: dict    #: outage fraction -> point summary dict
    loss_curve: dict      #: packet-loss rate -> point summary dict

    def report(self):
        rows = []
        for fraction, point in sorted(self.outage_curve.items()):
            rows.append((
                f"outage {fraction:.0%}",
                f"{point['cancellation_db']:.1f}",
                point["transitions"],
                "yes" if point["recovered"] else "NO",
            ))
        for rate, point in sorted(self.loss_curve.items()):
            rows.append((
                f"loss {rate:.0%}",
                f"{point['cancellation_db']:.1f}",
                point["transitions"],
                "yes" if point["recovered"] else "NO",
            ))
        return format_table(
            ["fault", "mean dB", "transitions", "recovered"],
            rows,
            title="Extension — cancellation under relay-path faults",
        )

    def outage_monotone(self):
        """True when cancellation only worsens as the outage grows."""
        curve = [self.outage_curve[f]["cancellation_db"]
                 for f in sorted(self.outage_curve)]
        return all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))

    def outage_penalty_db(self):
        """Cancellation lost from the cleanest to the worst outage."""
        fractions = sorted(self.outage_curve)
        return (self.outage_curve[fractions[-1]]["cancellation_db"]
                - self.outage_curve[fractions[0]]["cancellation_db"])


def run_resilience(duration_s=6.0, *, seed=0, scenario=None,
                   outage_fractions=(0.0, 0.1, 0.25, 0.5),
                   loss_rates=(0.0, 0.1, 0.3), block_size=256):
    """Sweep relay outage fraction and packet-loss rate.

    Parameters
    ----------
    duration_s : float
        Length of each simulated run.
    seed : int
        Noise and fault-plan seed.
    scenario : Scenario, optional
        Defaults to :func:`resilience_scenario`.
    outage_fractions : tuple of float
        Fractions of the run covered by a centered relay blackout.
    loss_rates : tuple of float
        Uniform frame-erasure probabilities.
    block_size : int
        Degradation-controller block size, samples.

    Returns
    -------
    ExperimentResult
        ``results`` is a :class:`ResilienceResult`.
    """
    from ...faults import outage_plan, packet_loss_plan

    scenario = scenario or resilience_scenario()
    noise = WhiteNoise(sample_rate=scenario.sample_rate, level_rms=0.1,
                       seed=seed).generate(duration_s)
    outage_curve = {}
    for fraction in outage_fractions:
        plan = outage_plan(duration_s, fraction, seed=seed)
        outage_curve[float(fraction)] = _run_point(
            scenario, noise, plan, seed, block_size)
    loss_curve = {}
    for rate in loss_rates:
        plan = packet_loss_plan(duration_s, rate, seed=seed + 1)
        loss_curve[float(rate)] = _run_point(
            scenario, noise, plan, seed, block_size)
    return experiment_result(
        "resilience",
        dict(duration_s=duration_s, seed=seed,
             outage_fractions=tuple(outage_fractions),
             loss_rates=tuple(loss_rates), block_size=block_size),
        ResilienceResult(outage_curve=outage_curve, loss_curve=loss_curve),
    )
