"""Secondary-path probe estimation."""

import numpy as np
import pytest

from repro.core import estimate_secondary_path
from repro.errors import ChannelError, ConfigurationError


TRUE_CHANNEL = np.array([0.0, 0.0, 0.8, 0.3, -0.1, 0.05])


class TestEstimation:
    def test_clean_probe_recovers_channel(self):
        est = estimate_secondary_path(TRUE_CHANNEL, n_taps=8,
                                      probe_duration_s=1.0)
        np.testing.assert_allclose(est.impulse_response[:6], TRUE_CHANNEL,
                                   atol=1e-3)

    def test_quality_metric_high_when_clean(self):
        est = estimate_secondary_path(TRUE_CHANNEL, n_taps=8)
        assert est.quality_db > 40.0

    def test_ambient_noise_degrades_quality(self):
        clean = estimate_secondary_path(TRUE_CHANNEL, n_taps=8,
                                        ambient_noise_rms=0.0)
        noisy = estimate_secondary_path(TRUE_CHANNEL, n_taps=8,
                                        ambient_noise_rms=0.3)
        assert noisy.quality_db < clean.quality_db - 10.0

    def test_noisy_estimate_still_close(self):
        est = estimate_secondary_path(TRUE_CHANNEL, n_taps=8,
                                      ambient_noise_rms=0.05,
                                      probe_duration_s=2.0)
        assert np.linalg.norm(est.impulse_response[:6] - TRUE_CHANNEL) < 0.1

    @pytest.mark.parametrize("n_passes", [0, -1, 2.5, "2", True])
    def test_n_passes_must_be_a_positive_int(self, n_passes):
        with pytest.raises(ConfigurationError, match="n_passes"):
            estimate_secondary_path(TRUE_CHANNEL, n_taps=8,
                                    n_passes=n_passes)

    def test_short_probe_rejected(self):
        with pytest.raises(ChannelError, match="too short"):
            estimate_secondary_path(TRUE_CHANNEL, n_taps=64,
                                    probe_duration_s=0.01)

    def test_deterministic_per_seed(self):
        a = estimate_secondary_path(TRUE_CHANNEL, n_taps=8, seed=4)
        b = estimate_secondary_path(TRUE_CHANNEL, n_taps=8, seed=4)
        np.testing.assert_array_equal(a.impulse_response,
                                      b.impulse_response)

    def test_probe_rms_recorded(self):
        est = estimate_secondary_path(TRUE_CHANNEL, n_taps=8, probe_rms=0.5)
        assert est.probe_rms == 0.5
