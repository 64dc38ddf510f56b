"""Lookahead arithmetic (Eq. 3 / Eq. 4) and the alignment ledger."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import LookaheadBudget, lookahead_samples, lookahead_seconds
from repro.core.lookahead import align
from repro.errors import ConfigurationError, LookaheadError
from repro.eval.experiments import run_mobility


class TestEq4:
    def test_one_meter_is_about_3ms(self):
        # The paper: "when (de - dr) is just 1 m, lookahead is ~3 ms".
        assert lookahead_seconds(4.0, 3.0) == pytest.approx(2.94e-3,
                                                            rel=0.01)

    def test_negative_when_relay_farther(self):
        assert lookahead_seconds(1.0, 2.0) < 0.0

    def test_samples_floor(self):
        assert lookahead_samples(1.0, 0.0, 8000.0) == 23   # 23.5 floored

    def test_rejects_negative_distance(self):
        with pytest.raises(ConfigurationError):
            lookahead_seconds(-1.0, 0.0)


class TestBudget:
    def test_usable_subtracts_everything(self):
        b = LookaheadBudget(acoustic_lead_s=10e-3, pipeline_latency_s=6e-3)
        assert b.usable_lookahead_s == pytest.approx(4e-3)
        assert b.usable_future_taps(8000.0) == 32

    def test_meets_deadline(self):
        assert LookaheadBudget(acoustic_lead_s=5e-3,
                               pipeline_latency_s=3e-3).meets_deadline
        assert not LookaheadBudget(acoustic_lead_s=1e-3,
                                   pipeline_latency_s=3e-3).meets_deadline

    def test_playback_lag(self):
        b = LookaheadBudget(acoustic_lead_s=1e-3, pipeline_latency_s=3e-3)
        assert b.playback_lag_s == pytest.approx(2e-3)
        met = LookaheadBudget(acoustic_lead_s=5e-3, pipeline_latency_s=3e-3)
        assert met.playback_lag_s == 0.0

    def test_future_taps_never_negative(self):
        b = LookaheadBudget(acoustic_lead_s=-5e-3)
        assert b.usable_future_taps(8000.0) == 0

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            LookaheadBudget(acoustic_lead_s=1e-3, pipeline_latency_s=-1e-3)

    @settings(max_examples=300, deadline=None)
    @given(lag=st.integers(0, 4000), pipeline=st.integers(0, 400),
           fs=st.sampled_from([8000.0, 16000.0, 44100.0, 48000.0]))
    # (43 / fs − 4 / fs) · fs evaluates just under 39: the report must
    # not lose the tap the run gets.
    @example(lag=43, pipeline=4, fs=8000.0)
    def test_reports_the_taps_align_grants(self, lag, pipeline, fs):
        # The system's report: the lag in seconds, a pipeline of whole
        # samples; align refusing the lag grants no taps.
        budget = LookaheadBudget(acoustic_lead_s=lag / fs,
                                 pipeline_latency_s=pipeline / fs)
        try:
            __, n_future = align(np.zeros(8), lag, pipeline / fs, fs, 10**6)
        except LookaheadError:
            n_future = 0
        assert budget.usable_future_taps(fs) == n_future


@st.composite
def _ledger_case(draw):
    """A delivered stream, an integer lag, a pipeline, a tap cap and a
    sample rate.

    The pipeline is drawn in thousandths of a sample: the ledger takes
    it in seconds, and its sample-domain value must survive the round
    trip through ``pipeline / fs · fs``.
    """
    size = draw(st.integers(1, 500))
    stream = np.random.default_rng(draw(st.integers(0, 2**16))) \
        .standard_normal(size)
    lag = draw(st.integers(-5, 600))
    pipeline = draw(st.integers(0, 60_000)) / 1000.0
    cap = draw(st.integers(0, 128))
    fs = draw(st.sampled_from([8000.0, 16000.0, 44100.0, 48000.0]))
    return stream, lag, pipeline, cap, fs


class TestAlign:
    @settings(max_examples=300, deadline=None)
    @given(_ledger_case())
    # (43 / fs − 4 / fs) · fs evaluates just under 39: a whole-sample
    # pipeline must not cost a tap.
    @example((np.ones(100), 43, 4.0, 64, 8000.0))
    @example((np.ones(100), 25, 25.0, 64, 8000.0))  # lag = pipeline: N = 0
    # 7 / 48000 · 48000 lands one ulp above 7: lag = pipeline must still
    # run, and one sample more must buy its tap.
    @example((np.ones(100), 7, 7.0, 8, 48000.0))
    @example((np.ones(100), 8, 7.0, 8, 48000.0))
    def test_shift_taps_and_eq3(self, case):
        stream, lag, pipeline, cap, fs = case
        if lag < pipeline:
            with pytest.raises(LookaheadError):
                align(stream, lag, pipeline / fs, fs, cap)
            return
        reference, n_future = align(stream, lag, pipeline / fs, fs, cap)
        expected = np.zeros_like(stream)
        expected[lag:] = stream[: max(stream.size - lag, 0)]
        np.testing.assert_array_equal(reference, expected)
        if lag >= stream.size:
            assert not np.any(reference)
        assert n_future == min(cap, math.floor(lag - pipeline))
        assert n_future <= lag - pipeline

    def test_clip_shorter_than_the_lead_gets_a_zero_reference(self):
        # 40 samples against the bench's 76-sample lead: the reference
        # is all zeros, so nothing is cancelled (and nothing breaks).
        result = run_mobility(duration_s=0.005)
        assert set(result.total_db.values()) == {0.0}
