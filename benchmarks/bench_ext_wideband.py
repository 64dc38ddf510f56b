"""Extension — cancellation beyond the paper's 4 kHz cap.

The §5.2 "A faster DSP will ease the problem" sentence, built: the bench
at 16 kHz with the fast-DSP budget and the per-sample LANC engine.
"""

from _bench_utils import run_once

from repro.eval.experiments import run_wideband


def test_wideband(benchmark, report):
    result = run_once(benchmark, run_wideband, duration_s=8.0, seed=7)
    report(result.report())

    # Real cancellation in the band the paper's board cannot touch.
    assert result.band_means_db[(4000, 6000)] < -10.0
    assert result.band_means_db[(6000, 8000)] < -8.0
    # And the classic band still works.
    assert result.band_means_db[(0, 2000)] < -12.0
    assert result.broadband_db < -10.0
