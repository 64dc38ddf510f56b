"""Figure 16 — cancellation vs lookahead (delayed-line-buffer sweep)."""

from _bench_utils import run_once

from repro.eval.experiments import run_fig16


def test_fig16_lookahead_sweep(benchmark, report):
    result = run_once(benchmark, run_fig16, duration_s=8.0, seed=7)
    report(result.report())

    means = result.monotone_improvement()
    # The Eq.-3 lower bound (zero anti-causal taps) is clearly the worst
    # setting, and the largest extra lookahead is clearly better.
    assert means[0] > means[-1] + 2.0
    # The delayed line buffer holds whole samples: +0, 0.38, 0.75 and
    # 1.13 ms leave 0, 3, 6 and 9 future taps at 8 kHz.
    assert list(result.future_taps.values()) == [0, 3, 6, 9]
