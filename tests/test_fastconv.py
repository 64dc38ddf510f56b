"""The shared FIR engine (repro.utils.fastconv).

Property-based bit-identity suite for the conv fast paths: every
regime of :func:`fir_apply` (direct, single-block FFT, overlap-save)
against the ``np.convolve`` reference, and :class:`StreamingFir`
against the oracle's ``lfilter``-with-state — the contract every call
site in acoustics/hardware/core leans on (docs/PERFORMANCE.md).  The
``np.fft`` products equal the oracle's ``scipy.fft`` forms bit for bit
on NumPy ≥ 2.0, and the private size search equals
``scipy.fft.next_fast_len``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy import signal as sps

from repro.errors import ConfigurationError, SignalError
from repro.utils import fastconv
from repro.utils.fastconv import DIRECT_TAP_LIMIT, StreamingFir, fir_apply
from repro.wireless import ZeroPhaseDecimator
from tests import oracle

TOL = 1e-10

pocketfft = pytest.mark.skipif(
    not oracle.NUMPY_POCKETFFT,
    reason="np.fft is SciPy's pocketfft only from NumPy 2.0 on")


def _signal(seed, n):
    return np.random.default_rng(seed).standard_normal(n)


def _ir(seed, m):
    return np.random.default_rng(seed + 1000).standard_normal(m) / m


class TestFirApply:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           n=st.integers(min_value=1, max_value=700),
           m=st.integers(min_value=1, max_value=64))
    def test_full_matches_convolve(self, seed, n, m):
        """Direct + single-block regimes vs the np.convolve reference."""
        x, h = _signal(seed, n), _ir(seed, m)
        expected = np.convolve(x, h)
        np.testing.assert_allclose(fir_apply(x, h, mode="full"), expected,
                                   atol=TOL, rtol=0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           n=st.integers(min_value=1, max_value=700),
           m=st.integers(min_value=1, max_value=64))
    def test_same_is_full_truncated(self, seed, n, m):
        x, h = _signal(seed, n), _ir(seed, m)
        full = fir_apply(x, h, mode="full")
        np.testing.assert_array_equal(fir_apply(x, h, mode="same"), full[:n])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           n=st.integers(min_value=6000, max_value=20000),
           m=st.integers(min_value=16, max_value=128))
    def test_overlap_save_matches_convolve(self, seed, n, m):
        """n + m - 1 > the per-IR block size -> the multi-block path."""
        x, h = _signal(seed, n), _ir(seed, m)
        assert n + m - 1 > fastconv._block_nfft(m)
        np.testing.assert_allclose(fir_apply(x, h, mode="full"),
                                   np.convolve(x, h), atol=TOL, rtol=0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           n=st.integers(min_value=128, max_value=2000),
           m=st.integers(min_value=DIRECT_TAP_LIMIT + 1, max_value=64))
    def test_single_block_bit_identical_to_fftconvolve(self, seed, n, m):
        """Same next_fast_len + rfft/irfft pipeline as fftconvolve.

        n >= 2m keeps the example inside the FFT regime (shorter
        signals take the direct path, bit-identical to np.convolve
        instead).
        """
        x, h = _signal(seed, n), _ir(seed, m)
        np.testing.assert_array_equal(fir_apply(x, h, mode="full"),
                                      sps.fftconvolve(x, h))

    def test_tiny_kernel_bit_identical_to_direct(self):
        """<= DIRECT_TAP_LIMIT taps stays on np.convolve exactly."""
        x, h = _signal(3, 500), _ir(3, DIRECT_TAP_LIMIT)
        np.testing.assert_array_equal(fir_apply(x, h, mode="full"),
                                      np.convolve(x, h))

    def test_slow_path_is_fftconvolve(self):
        """The oracle swap reroutes every fastconv.fir_apply caller."""
        x, h = _signal(5, 300), _ir(5, 32)
        with oracle.reference_paths():
            np.testing.assert_array_equal(
                fastconv.fir_apply(x, h, mode="full"),
                sps.fftconvolve(x, h))
        assert fastconv.fir_apply is fir_apply

    def test_complex_input_falls_back_to_direct(self):
        x = _signal(9, 200) + 1j * _signal(10, 200)
        h = _ir(9, 24)
        np.testing.assert_array_equal(fir_apply(x, h, mode="full"),
                                      np.convolve(x, h))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            fir_apply(_signal(0, 8), _ir(0, 4), mode="valid")
        with pytest.raises(ConfigurationError):
            fir_apply(np.empty(0), _ir(0, 4))
        with pytest.raises(ConfigurationError):
            fir_apply(np.zeros((4, 4)), _ir(0, 4))


@pocketfft
class TestScipyFftForms:
    """``np.fft`` products bit for bit the ``scipy.fft`` forms they
    replaced (the test oracle's)."""

    # One transform; two overlap-save blocks; the relay front end's
    # 684 taps on 4 s.
    @example(n=3000, m=600, seed=0)
    @example(n=5000, m=600, seed=0)
    @example(n=32000, m=684, seed=0)
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 100000), m=st.integers(DIRECT_TAP_LIMIT + 1, 2000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fir_apply(self, n, m, seed):
        rng = np.random.default_rng(seed)
        x, h = rng.standard_normal(n), rng.standard_normal(m) / m
        np.testing.assert_array_equal(
            fir_apply(x, h, mode="full"),
            oracle.scipy_fft_fir_apply(x, h, mode="full"))

    @settings(max_examples=30, deadline=None)
    @given(n1=st.integers(1, 40000), n2=st.integers(1, 40000),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fft_convolve(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(n1), rng.standard_normal(n2)
        np.testing.assert_array_equal(fastconv.fft_convolve(a, b),
                                      oracle.scipy_fft_convolve(a, b))


class TestNextFastLen:
    """The private size search is ``scipy.fft``'s real one."""

    def test_every_size_to_2_16(self):
        sizes = range(1, 2 ** 16 + 1)
        assert [fastconv._next_fast_len(n) for n in sizes] == \
            [sp_fft.next_fast_len(n, True) for n in sizes]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 2 ** 24))
    def test_large_sizes(self, n):
        assert fastconv._next_fast_len(n) == sp_fft.next_fast_len(n, True)


@pytest.mark.parametrize("transform", [
    lambda x: fastconv.fft_convolve(np.ones(8), x),
    ZeroPhaseDecimator(96000.0, 8000.0),
], ids=["fft_convolve", "zero_phase_decimator"])
def test_fft_products_refuse_complex_input(transform):
    """Complex input raises, naming its dtype, instead of losing its
    imaginary part to a cast."""
    x = np.exp(0.01j * np.arange(2400))
    with pytest.raises(SignalError, match="complex128"):
        transform(x)


class TestFftConvolve:
    """Two signals' full convolution, bit for bit ``fftconvolve``."""

    @settings(max_examples=60, deadline=None)
    @given(n1=st.integers(1, 40000), n2=st.integers(1, 40000),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_matches_fftconvolve_bit_for_bit(self, n1, n2, seed, scale):
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal(n1)
        b = rng.standard_normal(n2)
        np.testing.assert_array_equal(fastconv.fft_convolve(a, b),
                                      oracle.fftconvolve(a, b))

    # The Wiener bound's sizes: 4 s autocorrelations and cross
    # correlations, a secondary path, the Bose stage's 257-tap FIR.
    @pytest.mark.parametrize("n1, n2", [(32000, 32000), (32000, 200),
                                        (48000, 257), (1000, 1000)])
    def test_bound_sizes(self, n1, n2):
        a, b = _signal(n1, n1), _signal(n2, n2)
        np.testing.assert_array_equal(fastconv.fft_convolve(a, b[::-1]),
                                      oracle.fftconvolve(a, b[::-1]))

    def test_caches_nothing(self):
        fastconv.clear_cache()
        fastconv.fft_convolve(_signal(1, 4000), _signal(2, 4000))
        assert fastconv.cache_info()["size"] == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            fastconv.fft_convolve(np.empty(0), _ir(0, 4))
        with pytest.raises(ConfigurationError):
            fastconv.fft_convolve(np.zeros((4, 4)), _ir(0, 4))


class TestSpectrumCache:
    def test_repeat_ir_hits_cache(self):
        fastconv.clear_cache()
        x, h = _signal(1, 400), _ir(1, 32)
        fir_apply(x, h)
        first = fastconv.cache_info()
        fir_apply(_signal(2, 400), h)       # same IR, same nfft
        second = fastconv.cache_info()
        assert first["misses"] >= 1
        assert second["hits"] == first["hits"] + 1
        assert second["size"] == first["size"]

    def test_clear_cache_resets_counters(self):
        fir_apply(_signal(1, 400), _ir(1, 32))
        fastconv.clear_cache()
        assert fastconv.cache_info() == {
            "size": 0, "capacity": fastconv._CACHE_CAPACITY,
            "hits": 0, "misses": 0}


class TestStreamingFir:
    def _reference(self, ir, blocks):
        """lfilter with carried zi — the oracle's streaming path."""
        fir = StreamingFir(ir)
        return np.concatenate([oracle.streaming_fir_process(fir, b)
                               for b in blocks])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           m=st.integers(min_value=2, max_value=96),
           sizes=st.lists(st.integers(min_value=1, max_value=400),
                          min_size=1, max_size=6))
    def test_matches_lfilter_with_state(self, seed, m, sizes):
        """Any block schedule — including blocks shorter than the IR."""
        ir = _ir(seed, m)
        blocks = [_signal(seed + i, n) for i, n in enumerate(sizes)]
        fir = StreamingFir(ir)
        got = np.concatenate([fir.process(b) for b in blocks])
        np.testing.assert_allclose(got, self._reference(ir, blocks),
                                   atol=TOL, rtol=0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000),
           m=st.integers(min_value=2, max_value=64))
    def test_fast_and_slow_paths_agree(self, seed, m):
        ir = _ir(seed, m)
        blocks = [_signal(seed + i, 160) for i in range(4)]
        fir = StreamingFir(ir)
        fast = np.concatenate([fir.process(b) for b in blocks])
        with oracle.reference_paths():
            fir = StreamingFir(ir)
            slow = np.concatenate([fir.process(b) for b in blocks])
        np.testing.assert_allclose(fast, slow, atol=TOL, rtol=0)

    def test_state_is_lfilter_zi(self):
        """After any prefix the carry equals lfilter's zf vector."""
        ir = _ir(11, 24)
        block = _signal(11, 300)
        fir = StreamingFir(ir)
        fir.process(block)
        __, zf = sps.lfilter(ir, [1.0], block, zi=np.zeros(ir.size - 1))
        np.testing.assert_allclose(fir.state[:ir.size - 1], zf,
                                   atol=TOL, rtol=0)

    def test_shared_external_state_buffer(self):
        ir = _ir(12, 16)
        shared = np.zeros(ir.size - 1)
        fir = StreamingFir(ir, state=shared)
        fir.process(_signal(12, 100))
        assert fir.state is shared
        assert np.any(shared != 0.0)
        fir.reset()
        assert not np.any(shared)

    def test_single_tap_is_gain(self):
        fir = StreamingFir(np.array([0.5]))
        block = _signal(13, 64)
        np.testing.assert_array_equal(fir.process(block), 0.5 * block)

    def test_rejects_short_state_buffer(self):
        with pytest.raises(ConfigurationError):
            StreamingFir(_ir(14, 16), state=np.zeros(4))
        with pytest.raises(ConfigurationError):
            StreamingFir(np.empty(0))



class TestFastpathToggle:
    """The only fast/slow toggle left is the test oracle's swap."""

    def test_scope_restores_ambient(self):
        product = (fastconv.fir_apply, StreamingFir.process)
        with pytest.raises(RuntimeError):
            with oracle.reference_paths():
                assert fastconv.fir_apply is oracle.fir_apply
                assert StreamingFir.process is oracle.streaming_fir_process
                raise RuntimeError("boom")
        assert (fastconv.fir_apply, StreamingFir.process) == product
