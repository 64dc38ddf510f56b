"""The kernel layer's contract: the product kernels match the oracle.

Two families of guarantees (see ``docs/KERNELS.md``):

* **the oracle is self-consistent** — its per-sample walks
  (``tests/oracle.py``) are *bit-identical* to stepping the LMS/RLS/APA
  recursions sample by sample;
* **the kernels match the oracle to ≤ 1e-10** on every engine,
  property-tested over random scenes, tap geometries and block
  schedules (including frozen/masked runs and inactive ringing).
"""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adaptive.apa import ApaFilter
from repro.core.adaptive.kernels import KernelState
from repro.core.adaptive.lanc import LancFilter, StreamingLanc
from repro.core.adaptive.lms import LmsFilter
from repro.core.adaptive.multiref import MultiRefLancFilter
from repro.core.adaptive.rls import RlsFilter
from repro.errors import ConfigurationError, ConvergenceError
from tests import oracle

TOL = 1e-10
S_HAT = np.array([0.7, 0.25, -0.1])
S_TRUE = np.array([0.65, 0.3, -0.12])

#: Context per arithmetic: the oracle's reference walks, the product.
PATHS = {"oracle": oracle.reference_paths, "product": contextlib.nullcontext}


def _scene(seed, T=1500):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    d = -np.convolve(x, np.array([0.4, 0.2, 0.1]))[:T]
    return x, d


def _on_both(build, run):
    """``run(engine)`` on a fresh engine per path: ``(oracle, product)``.

    Each entry is ``(engine, result)`` so tests can compare the engines'
    final state as well as the returned waveforms.
    """
    pairs = []
    for path in ("oracle", "product"):
        engine = build()
        with PATHS[path]():
            pairs.append((engine, run(engine)))
    return pairs


class TestBackendEquivalence:
    """The product kernels match the oracle to ≤ 1e-10 on every engine."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=1, max_value=48))
    def test_lanc_batch(self, seed, n_future, n_past):
        x, d = _scene(seed)
        (__, ra), (___, rb) = _on_both(
            lambda: LancFilter(n_future, n_past, S_HAT, mu=0.3),
            lambda f: f.run(x, d, secondary_path_true=S_TRUE))
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.output, ra.output, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_lanc_batch_frozen_and_masked(self, seed):
        x, d = _scene(seed)
        rng = np.random.default_rng(seed + 1)
        mask = rng.random(x.size) > 0.4
        warm = rng.standard_normal(4 + 24) * 0.01

        def build():
            f = LancFilter(4, 24, S_HAT, mu=0.3)
            f.set_taps(warm)
            return f

        for kwargs in ({"adapt": False}, {"adapt_mask": mask}):
            (__, ra), (___, rb) = _on_both(
                build, lambda f: f.run(x, d, secondary_path_true=S_TRUE,
                                       **kwargs))
            np.testing.assert_allclose(rb.error, ra.error, atol=TOL,
                                       rtol=0)
            np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=300))
    def test_streaming_blocks(self, seed, block):
        x, d = _scene(seed)
        n_future = 6

        def build():
            f = LancFilter(n_future, 32, S_HAT, mu=0.3)
            return StreamingLanc(f, x, secondary_path_true=S_TRUE)

        def run(stream):
            for t0 in range(0, x.size, block):
                stream.process(d[t0: t0 + block])

        (ref, __), (fast, ___) = _on_both(build, run)
        np.testing.assert_allclose(fast.residual(), ref.residual(),
                                   atol=TOL, rtol=0)
        np.testing.assert_allclose(fast.filter.taps, ref.filter.taps,
                                   atol=TOL, rtol=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=32),
           st.booleans())
    def test_lms(self, seed, n_taps, normalized):
        x, d = _scene(seed, T=800)
        (__, ra), (___, rb) = _on_both(
            lambda: LmsFilter(n_taps, mu=0.2 if normalized else 0.01,
                              normalized=normalized),
            lambda f: f.run(x, d))
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=24))
    def test_rls(self, seed, n_taps):
        x, d = _scene(seed, T=600)
        (lo, ra), (ve, rb) = _on_both(
            lambda: RlsFilter(n_taps, forgetting=0.995),
            lambda f: f.run(x, d))
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)
        np.testing.assert_allclose(ve._P, lo._P, atol=TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=6))
    def test_apa(self, seed, order):
        x, d = _scene(seed, T=600)
        (lo, ra), (ve, rb) = _on_both(
            lambda: ApaFilter(16, order=order, mu=0.4),
            lambda f: f.run(x, d))
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)
        np.testing.assert_allclose(ve._U, lo._U, atol=TOL, rtol=0)
        np.testing.assert_allclose(ve._d, lo._d, atol=TOL, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8))
    def test_multiref(self, seed, nf_a, nf_b):
        x1, d = _scene(seed, T=900)
        x2, __ = _scene(seed + 7, T=900)
        (__, ra), (___, rb) = _on_both(
            lambda: MultiRefLancFilter([nf_a, nf_b], 20, S_HAT, mu=0.2),
            lambda f: f.run([x1, x2], d, secondary_path_true=S_TRUE))
        np.testing.assert_allclose(rb.error, ra.error, atol=TOL, rtol=0)
        np.testing.assert_allclose(rb.taps, ra.taps, atol=TOL, rtol=0)

    def test_vector_also_diverges(self):
        x, d = _scene(0, T=2000)
        for path in PATHS.values():
            f = LmsFilter(8, mu=5.0, normalized=False)
            with path(), pytest.raises(ConvergenceError):
                f.run(x, 10.0 * d)


class TestLoopIsReference:
    """The oracle's walks ≡ stepping its recursions sample by sample."""

    def test_lms_run_matches_step(self):
        x, d = _scene(3, T=500)
        a = LmsFilter(12, mu=0.3)
        with oracle.reference_paths():
            ra = a.run(x, d)
        b = LmsFilter(12, mu=0.3)
        stepped = np.array([oracle.lms_step(b, x[t], d[t])[1]
                            for t in range(x.size)])
        np.testing.assert_array_equal(ra.error, stepped)
        np.testing.assert_array_equal(a.taps, b.taps)

    def test_rls_run_matches_step(self):
        x, d = _scene(4, T=400)
        a = RlsFilter(10)
        with oracle.reference_paths():
            ra = a.run(x, d)
        b = RlsFilter(10)
        stepped = np.array([oracle.rls_step(b, x[t], d[t])[1]
                            for t in range(x.size)])
        np.testing.assert_array_equal(ra.error, stepped)
        np.testing.assert_array_equal(a.taps, b.taps)
        np.testing.assert_array_equal(a._P, b._P)

    def test_apa_run_matches_step(self):
        x, d = _scene(5, T=400)
        a = ApaFilter(10, order=3)
        with oracle.reference_paths():
            ra = a.run(x, d)
        b = ApaFilter(10, order=3)
        stepped = np.array([oracle.apa_step(b, x[t], d[t])[1]
                            for t in range(x.size)])
        np.testing.assert_array_equal(ra.error, stepped)
        np.testing.assert_array_equal(a.taps, b.taps)


class TestStreamingEdgeCases:
    def _stream(self, reference, n_future=4, n_past=16):
        f = LancFilter(n_future, n_past, S_HAT, mu=0.2)
        return StreamingLanc(f, reference, secondary_path_true=S_TRUE)

    def test_underrun_error_message(self):
        x, d = _scene(0, T=200)
        for path in PATHS.values():
            # 96 reference samples plus the n_future = 4 zeros.
            stream = self._stream(x[:96])
            with path():
                with pytest.raises(ConfigurationError,
                                   match=r"reference underrun: need 104 "
                                         r"fed samples, have 100"):
                    stream.process(d[:100])
                # Nothing was processed: time did not advance.
                assert stream.time == 0
                stream.process(d[:96])
            assert stream.time == 96

    def test_peek_future_past_fed_horizon(self):
        x, __ = _scene(1, T=50)
        stream = self._stream(x)
        fed = np.r_[x, np.zeros(4)]          # x ⊕ 0, n_future = 4
        np.testing.assert_array_equal(stream.state.peek_future(20), x[:20])
        # Asking beyond what was fed returns only what exists.
        assert stream.state.peek_future(80).size == 54
        np.testing.assert_array_equal(stream.state.peek_future(80), fed)
        stream.process(np.zeros(30))
        np.testing.assert_array_equal(stream.state.peek_future(80),
                                      fed[30:])

    def test_inactive_ringing_equivalent_across_backends(self):
        # Converge, then mute the speaker: the anti-noise already in
        # flight must ring through s_true identically on the oracle and
        # on the product kernel.
        x, d = _scene(2, T=900)

        def build():
            return self._stream(x)

        def run(stream):
            stream.process(d[:600])
            return stream.process(d[600:850], active=False)

        (__, ref_tail), (___, tail) = _on_both(build, run)
        np.testing.assert_allclose(tail, ref_tail, atol=TOL, rtol=0)
        # The first s_len-1 muted samples still carry ringing; after
        # that the residual is exactly the disturbance.
        s_len = S_TRUE.size
        assert not np.array_equal(tail[:s_len - 1], d[600:600 + s_len - 1])
        np.testing.assert_array_equal(tail[s_len - 1:],
                                      d[600 + s_len - 1: 850])


def _fed_state(s_hat, chunks, path="product"):
    """A fresh :class:`KernelState` fed ``chunks`` one ``extend`` each."""
    state = KernelState(2, 8, s_hat)
    with PATHS[path]():
        for chunk in chunks:
            state.extend(chunk)
    return state


@st.composite
def _s_hat_and_chunks(draw):
    """A unit-norm ŝ of 1 to 150 taps and 1 to 5 reference chunks.

    The FFT branches start past 8 taps, overlap-save past 4096 samples.
    """
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    s_hat = rng.standard_normal(draw(st.integers(1, 150)))
    s_hat /= np.linalg.norm(s_hat)
    sizes = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=5))
    return s_hat, [rng.standard_normal(n) for n in sizes]


#: A one-tap ŝ: ``zi`` is empty while StreamingFir keeps a spare slot.
_ONE_TAP = (np.array([0.8]), [np.arange(3.0), np.arange(5.0)])


class TestKernelState:
    @settings(max_examples=30, deadline=None)
    @given(_s_hat_and_chunks())
    @example(_ONE_TAP)
    def test_streaming_filtered_reference_matches_batch(self, drawn):
        # A state fed chunk by chunk carries the StreamingFir tail across
        # chunks: its xf is the one-shot convolution ŝ * x, and the
        # oracle's lfilter-with-zi formulation, to 1e-12.
        s_hat, chunks = drawn
        x = np.concatenate(chunks)
        state = _fed_state(s_hat, chunks)
        reference = _fed_state(s_hat, chunks, path="oracle")
        assert state.fed() == x.size
        np.testing.assert_allclose(state.xf, np.convolve(x, s_hat)[:x.size],
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(state.xf, reference.xf, atol=1e-12,
                                   rtol=0)
        # The snapshot's zi is lfilter's: len(ŝ) - 1 entries (none for a
        # one-tap ŝ), numerically the oracle's carry.
        zi = state.snapshot()["zi"]
        assert zi.shape == (s_hat.size - 1,)
        np.testing.assert_allclose(zi, reference.snapshot()["zi"],
                                   atol=1e-12, rtol=0)

    @settings(max_examples=30, deadline=None)
    @given(_s_hat_and_chunks(), st.integers(min_value=0, max_value=5))
    @example(_ONE_TAP, 1)
    def test_mid_stream_snapshot_resumes_bit_for_bit(self, drawn, cut):
        s_hat, chunks = drawn
        cut = min(cut, len(chunks))
        uninterrupted = _fed_state(s_hat, chunks)
        resumed = KernelState(2, 8, s_hat)
        resumed.restore(_fed_state(s_hat, chunks[:cut]).snapshot())
        for chunk in chunks[cut:]:
            resumed.extend(chunk)
        after, before = resumed.snapshot(), uninterrupted.snapshot()
        for key in ("x", "xf", "zi"):
            assert np.array_equal(after[key], before[key]), key
