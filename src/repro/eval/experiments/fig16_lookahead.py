"""Figure 16 — cancellation vs lookahead length.

The paper fixes the physical layout (so the multipath stays identical)
and shrinks the usable lookahead by *injecting delay into the reference
inside the DSP* (a delayed line buffer).  Curves are labeled relative to
the Eq.-3 "Lower Bound" (just enough lookahead to cover the pipeline,
i.e. zero anti-causal taps): Lower Bound, +0.38 ms, +0.75 ms, +1.13 ms.
More lookahead → better inverse filtering → deeper cancellation.

The buffer holds whole samples, so each setting keeps the alignment and
caps the future taps at ``round(extra · fs)``: 0, 3, 6 and 9 at 8 kHz.
"""

from __future__ import annotations

import dataclasses

from ...core.optimal import wiener_lanc
from ..metrics import measure_cancellation
from ..reporting import format_curves, format_table
from .common import (
    DEFAULT_DURATION_S,
    bench_scenario,
    build_system,
    white_noise,
)
from .registry import experiment_result

__all__ = ["Fig16Result", "run_fig16", "PAPER_EXTRA_LOOKAHEADS_S"]

#: The paper's extra-lookahead settings, relative to the Eq.-3 bound.
PAPER_EXTRA_LOOKAHEADS_S = (0.0, 0.38e-3, 0.75e-3, 1.13e-3)


@dataclasses.dataclass
class Fig16Result:
    """One cancellation curve per lookahead setting."""

    curves: dict          # label -> CancellationCurve
    extras_s: tuple       # the swept extra lookaheads
    future_taps: dict     # label -> N actually used
    optimal_db: dict = dataclasses.field(default_factory=dict)
    # label -> Wiener-optimal broadband dB for that tap budget: the
    # *causality* limit, free of adaptation noise.

    def monotone_improvement(self):
        """Mean cancellation per setting, in sweep order (should fall)."""
        return [self.curves[label].mean_db() for label in self.curves]

    def report(self):
        table = format_curves(list(self.curves.values()), title=(
            "Figure 16 — cancellation vs lookahead "
            "(relative to the Eq. 3 lower bound)"
        ))
        rows = [
            (label, self.future_taps[label],
             f"{self.curves[label].mean_db():.1f}",
             f"{self.optimal_db[label]:.1f}" if label in self.optimal_db
             else "-")
            for label in self.curves
        ]
        return table + "\n\n" + format_table(
            ["setting", "future taps N", "adaptive mean dB",
             "Wiener-optimal dB"], rows)


def _label(extra_s):
    if extra_s == 0.0:
        return "Lower Bound"
    return f"{extra_s * 1e3:.2f}ms More"


def run_fig16(duration_s=DEFAULT_DURATION_S, *, seed=7, scenario=None,
              extras_s=PAPER_EXTRA_LOOKAHEADS_S, settle_fraction=0.5):
    """Sweep the delayed line buffer; measure each cancellation curve."""
    scenario = scenario or bench_scenario()
    fs = scenario.sample_rate
    noise = white_noise(sample_rate=fs, seed=seed).generate(duration_s)

    probe = build_system(scenario)
    prepared = probe.prepare(noise)   # shared signals for the bound

    curves = {}
    future_taps = {}
    optimal_db = {}
    for extra_s in extras_s:
        # A delayed line buffer leaving `extra_s` past the Eq. 3 bound:
        # the alignment stays, N is capped at that many whole samples.
        system = build_system(scenario, n_future=round(extra_s * fs))
        run = system.run(noise)
        label = _label(extra_s)
        curves[label] = measure_cancellation(
            run.disturbance_open, run.residual,
            sample_rate=fs, label=label, settle_fraction=settle_fraction,
        )
        future_taps[label] = run.n_future_used
        # The same PSD-based measurement, applied to the Wiener-optimal
        # residual for this tap budget (the causality limit).
        solution = wiener_lanc(
            prepared.reference, prepared.disturbance_at_ear,
            prepared.secondary_path_true, run.n_future_used,
            probe.config.n_past,
        )
        optimal_db[label] = measure_cancellation(
            run.disturbance_open, solution.residual,
            sample_rate=fs, label=f"optimal {label}",
            settle_fraction=settle_fraction,
        ).mean_db()
    return experiment_result(
        "fig16",
        dict(duration_s=duration_s, seed=seed, scenario=scenario,
             extras_s=tuple(extras_s), settle_fraction=settle_fraction),
        Fig16Result(curves=curves, extras_s=tuple(extras_s),
                    future_taps=future_taps, optimal_db=optimal_db),
    )
