"""LANC — the lookahead-aware canceler (the paper's core algorithm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FxlmsFilter, LancFilter, StreamingLanc
from repro.core.adaptive import kernels
from repro.errors import ConfigurationError, ConvergenceError


def _nonminphase_scene(rng, T=12000, delta=16):
    """Reference through a non-minimum-phase channel; pure-delay target.

    The optimal canceler contains the channel inverse, whose stable form
    is anti-causal — exactly the situation lookahead addresses.
    """
    n = rng.standard_normal(T)
    g = np.array([1.0, 1.6])          # zero at -1.6: non-minimum-phase
    x_raw = np.convolve(n, g)[:T]
    d = np.zeros(T)
    d[delta:] = n[:-delta]
    x = np.zeros(T)
    x[delta:] = x_raw[:-delta]        # aligned reference
    return x, d


SECONDARY = np.array([0.0, 0.0, 0.9, 0.1])


class TestLookaheadAdvantage:
    """The headline property: non-causal taps buy cancellation."""

    def test_future_taps_reduce_error(self, rng):
        x, d = _nonminphase_scene(rng)
        errors = {}
        for n_future in (0, 4, 12):
            f = LancFilter(n_future=n_future, n_past=48,
                           secondary_path=SECONDARY, mu=0.5)
            errors[n_future] = f.run(x, d).converged_error()
        assert errors[4] < 0.5 * errors[0]
        assert errors[12] < 0.25 * errors[0]

    def test_deep_cancellation_with_ample_lookahead(self, rng):
        x, d = _nonminphase_scene(rng)
        f = LancFilter(n_future=14, n_past=64, secondary_path=SECONDARY,
                       mu=0.5)
        result = f.run(x, d)
        disturb_rms = np.sqrt(np.mean(d[-3000:] ** 2))
        assert result.converged_error() < 0.05 * disturb_rms


class TestMechanics:
    def test_fxlms_is_zero_future_lanc(self):
        f = FxlmsFilter(n_taps=32, secondary_path=SECONDARY)
        assert f.n_future == 0
        assert f.n_past == 32

    def test_tap_indexing(self):
        f = LancFilter(n_future=2, n_past=3, secondary_path=SECONDARY)
        f.taps[:] = [1, 2, 3, 4, 5]
        assert f.tap(-2) == 1.0
        assert f.tap(0) == 3.0
        assert f.tap(2) == 5.0
        with pytest.raises(ConfigurationError):
            f.tap(3)

    def test_get_set_taps(self):
        f = LancFilter(n_future=1, n_past=2, secondary_path=SECONDARY)
        f.set_taps(np.array([1.0, 2.0, 3.0]))
        got = f.get_taps()
        got[0] = 99.0
        assert f.taps[0] == 1.0   # get_taps returned a copy

    def test_set_taps_wrong_shape(self):
        f = LancFilter(n_future=1, n_past=2, secondary_path=SECONDARY)
        with pytest.raises(ConfigurationError):
            f.set_taps(np.zeros(5))

    def test_reset(self, rng):
        x, d = _nonminphase_scene(rng, T=2000)
        f = LancFilter(n_future=4, n_past=16, secondary_path=SECONDARY)
        f.run(x, d)
        f.reset()
        np.testing.assert_array_equal(f.taps, 0.0)

    def test_frozen_run_does_not_adapt(self, rng):
        x, d = _nonminphase_scene(rng, T=2000)
        f = LancFilter(n_future=4, n_past=16, secondary_path=SECONDARY)
        f.run(x, d, adapt=False)
        np.testing.assert_array_equal(f.taps, 0.0)

    def test_frozen_run_error_equals_disturbance(self, rng):
        x, d = _nonminphase_scene(rng, T=2000)
        f = LancFilter(n_future=4, n_past=16, secondary_path=SECONDARY)
        result = f.run(x, d, adapt=False)
        np.testing.assert_allclose(result.error, d)

    def test_adapt_mask(self, rng):
        x, d = _nonminphase_scene(rng, T=4000)
        # Adapt only in the first half: taps must change there and then
        # stay frozen for the rest of the run.
        mask = np.zeros(4000, dtype=bool)
        mask[:2000] = True
        f = LancFilter(n_future=4, n_past=32, secondary_path=SECONDARY,
                       mu=0.5)
        half = f.run(x[:2000], d[:2000], adapt_mask=mask[:2000])
        taps_at_half = f.get_taps()
        assert np.any(taps_at_half != 0.0)
        f.run(x[2000:], d[2000:], adapt_mask=mask[2000:])
        np.testing.assert_array_equal(f.get_taps(), taps_at_half)
        assert half.error.size == 2000

    def test_mismatched_lengths_rejected(self, rng):
        f = LancFilter(n_future=1, n_past=4, secondary_path=SECONDARY)
        with pytest.raises(Exception):
            f.run(np.zeros(10), np.zeros(11))

    def test_divergence_detected(self, rng):
        x, d = _nonminphase_scene(rng, T=3000)
        f = LancFilter(n_future=2, n_past=16, secondary_path=SECONDARY,
                       mu=50.0, normalized=False)
        with pytest.raises(ConvergenceError):
            f.run(100.0 * x, 100.0 * d)

    def test_secondary_path_mismatch_still_converges(self, rng):
        # A slightly wrong estimate of h_se should not break FxLMS.
        x, d = _nonminphase_scene(rng)
        s_est = SECONDARY * 1.2
        f = LancFilter(n_future=12, n_past=48, secondary_path=s_est, mu=0.3)
        result = f.run(x, d, secondary_path_true=SECONDARY)
        disturb_rms = np.sqrt(np.mean(d[-3000:] ** 2))
        assert result.converged_error() < 0.2 * disturb_rms


@st.composite
def _session_case(draw):
    """A random geometry, signal and split of it into blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n_future = draw(st.integers(0, 24))
    n_past = draw(st.integers(1, 48))
    # A secondary path led by its main tap, and a mismatched estimate
    # close enough to it that normalized FxLMS stays stable.
    s_true = np.r_[1.0, 0.3 * rng.standard_normal(draw(st.integers(0, 11)))]
    s_hat = s_true + 0.05 * rng.standard_normal(s_true.size)
    T = draw(st.integers(1, 1500))
    x = rng.standard_normal(T)
    d = np.convolve(x, rng.standard_normal(6))[:T]
    blocks = draw(st.lists(st.integers(1, 400), min_size=1, max_size=12))
    return dict(n_future=n_future, n_past=n_past, s_hat=s_hat,
                s_true=s_true, x=x, d=d, blocks=blocks,
                mu=draw(st.floats(0.05, 0.5)),
                leak=draw(st.sampled_from([0.0, 1e-4])))


class TestStreamingLanc:
    @settings(max_examples=40, deadline=None)
    @given(_session_case())
    def test_any_block_split_matches_run(self, case):
        """Blocks through the session give ``run``'s residual and taps
        bit for bit, however the disturbance is split."""
        def make():
            return LancFilter(case["n_future"], case["n_past"],
                              case["s_hat"], mu=case["mu"],
                              leak=case["leak"])

        x, d = case["x"], case["d"]
        session = StreamingLanc(make(), x,
                                secondary_path_true=case["s_true"])

        def walk():
            t0, sizes = 0, iter(case["blocks"])
            while t0 < d.size:
                size = next(sizes, d.size - t0)
                session.process(d[t0: t0 + size])
                t0 += size

        try:
            whole = make().run(x, d, secondary_path_true=case["s_true"])
        except ConvergenceError as diverged:
            # A diverging case diverges at the same error sample however
            # it is split; only the context prefix differs.
            with pytest.raises(ConvergenceError) as walked:
                walk()
            assert str(walked.value) == str(diverged).replace(
                "LancFilter:", "StreamingLanc:", 1)
            return
        walk()
        assert np.array_equal(session.residual(), whole.error)
        assert np.array_equal(session.filter.taps, whole.taps)

    def test_underrun_detected(self, rng):
        f = LancFilter(n_future=8, n_past=16, secondary_path=SECONDARY)
        stream = StreamingLanc(f, np.zeros(10))
        stream.process(np.zeros(10))
        with pytest.raises(ConfigurationError, match="underrun"):
            stream.process(np.zeros(1))

    def test_peek_future(self, rng):
        f = LancFilter(n_future=4, n_past=8, secondary_path=SECONDARY)
        stream = StreamingLanc(f, np.arange(20.0))
        np.testing.assert_array_equal(stream.state.peek_future(3),
                                      [0.0, 1.0, 2.0])
        stream.process(np.zeros(5))
        np.testing.assert_array_equal(stream.state.peek_future(3),
                                      [5.0, 6.0, 7.0])

    def test_residual_accumulates(self, rng):
        f = LancFilter(n_future=2, n_past=8, secondary_path=SECONDARY)
        stream = StreamingLanc(f, np.zeros(100))
        first = stream.process(np.ones(10)).copy()
        stream.process(np.ones(20))
        assert stream.residual().size == 30
        np.testing.assert_array_equal(stream.residual()[:10], first)

    def test_record_banks_the_block_ending_now(self, rng):
        """A block advanced outside ``process`` (the batched server's
        path) banks where ``process`` would have put it."""
        x, d = _nonminphase_scene(rng, T=600)
        own, banked = (
            StreamingLanc(LancFilter(n_future=8, n_past=32,
                                     secondary_path=SECONDARY, mu=0.5), x)
            for __ in range(2))
        for t0 in range(0, 600, 200):
            own.process(d[t0: t0 + 200])
            errors, __ = kernels.fxlms_block(
                banked.state, banked.filter.taps, d[t0: t0 + 200], 0.5)
            banked.record(errors)
        assert np.array_equal(banked.residual(), own.residual())

    def test_requires_lanc_filter(self):
        with pytest.raises(ConfigurationError):
            StreamingLanc("not a filter", np.zeros(4))
