"""The RLS engine."""

import numpy as np
import pytest

from repro.core import LmsFilter, RlsFilter
from repro.errors import ConfigurationError


class TestRlsFilter:
    def test_identifies_system(self, rng):
        h = np.array([0.4, -0.2, 0.1])
        x = rng.standard_normal(1500)
        d = np.convolve(x, h)[:1500]
        rls = RlsFilter(n_taps=6, forgetting=0.999)
        result = rls.run(x, d)
        np.testing.assert_allclose(result.taps[:3], h, atol=1e-3)

    def test_converges_faster_than_nlms(self, rng):
        """The §6 'enhanced filtering methods known to converge faster'."""
        h = rng.standard_normal(16) * 0.3
        x = rng.standard_normal(4000)
        d = np.convolve(x, h)[:4000]

        rls_errors = RlsFilter(n_taps=16).run(x, d).error
        nlms_errors = LmsFilter(n_taps=16, mu=0.5).run(x, d).error

        def settle_index(errors, threshold):
            below = np.abs(errors) < threshold
            above = np.flatnonzero(~below)
            return above[-1] + 1 if above.size else 0

        threshold = 0.05 * np.sqrt(np.mean(d ** 2))
        assert settle_index(rls_errors, threshold) < \
            settle_index(nlms_errors, threshold)

    def test_tracks_changing_system(self, rng):
        x = rng.standard_normal(4000)
        d = np.concatenate([1.0 * x[:2000], -1.0 * x[2000:]])
        rls = RlsFilter(n_taps=1, forgetting=0.99)
        result = rls.run(x, d)
        assert result.taps[0] == pytest.approx(-1.0, abs=0.02)

    def test_reset(self, rng):
        rls = RlsFilter(n_taps=4)
        rls.run(rng.standard_normal(100), rng.standard_normal(100))
        rls.reset()
        np.testing.assert_array_equal(rls.taps, 0.0)

    def test_convergence_samples_metric(self, rng):
        h = np.array([0.5, 0.2])
        x = rng.standard_normal(2000)
        d = np.convolve(x, h)[:2000]
        rls = RlsFilter(n_taps=4)
        idx = rls.convergence_samples(x, d, threshold_db=-20.0)
        assert idx is not None
        assert idx < 500

    def test_rejects_bad_forgetting(self):
        with pytest.raises(ConfigurationError):
            RlsFilter(n_taps=4, forgetting=0.3)

