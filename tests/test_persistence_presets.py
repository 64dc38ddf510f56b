"""Learned-state persistence and scenario presets."""

import json
import re

import numpy as np
import pytest

from repro.core import (
    FilterCache,
    MuteConfig,
    MuteSystem,
    ProfileClassifier,
    airport_gate,
    all_presets,
    bedroom_at_night,
    gym_floor,
    load_learned_state,
    save_learned_state,
)
from repro.errors import ConfigurationError
from repro.signals import BandlimitedNoise, MaleVoice


class TestPersistence:
    def _trained_classifier(self):
        clf = ProfileClassifier(sample_rate=8000.0, n_bands=10,
                                max_distance=1.1, energy_floor=2e-5)
        clf.register("speech", MaleVoice(seed=1, level_rms=0.2,
                                         speech_fraction=1.0).generate(1.0))
        clf.register("background",
                     BandlimitedNoise(100, 3000, seed=2,
                                      level_rms=0.2).generate(1.0))
        return clf

    def test_roundtrip_classifier(self, tmp_path):
        clf = self._trained_classifier()
        path = save_learned_state(tmp_path / "state.json", classifier=clf)
        loaded, cache, __ = load_learned_state(path)
        assert cache is None
        assert set(loaded.labels) == {"speech", "background"}
        assert loaded.max_distance == clf.max_distance
        # The loaded classifier actually classifies.
        speech = MaleVoice(seed=5, level_rms=0.2,
                           speech_fraction=1.0).generate(1.0)
        assert loaded.classify(speech) == "speech"

    def test_roundtrip_cache(self, tmp_path):
        cache = FilterCache()
        cache.store("speech", np.linspace(-1, 1, 48))
        cache.store("background", np.zeros(48))
        path = save_learned_state(tmp_path / "taps.json", cache=cache)
        __, loaded, ___ = load_learned_state(path)
        np.testing.assert_allclose(loaded.load("speech"),
                                   np.linspace(-1, 1, 48))
        assert set(loaded.labels()) == {"speech", "background"}

    def test_metadata_roundtrip(self, tmp_path):
        cache = FilterCache()
        cache.store("a", np.ones(4))
        path = save_learned_state(tmp_path / "m.json", cache=cache,
                                  metadata={"room": "office-3"})
        __, ___, metadata = load_learned_state(path)
        assert metadata == {"room": "office-3"}

    def test_nothing_to_save_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_learned_state(tmp_path / "x.json")

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ConfigurationError, match="format"):
            load_learned_state(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {{")
        with pytest.raises(ConfigurationError):
            load_learned_state(path)

    @pytest.mark.parametrize("document", [
        [1, 2],
        {"format_version": 1, "classifier": {"n_bands": 8}},
        {"format_version": 1, "cache": [1, 2]},
        {"format_version": 1, "cache": {"a": ["x", "y"]}},
    ], ids=["top_level_list", "classifier_without_sample_rate",
            "cache_list", "non_numeric_taps"])
    def test_malformed_document_rejected(self, tmp_path, document):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match=re.escape(str(path))):
            load_learned_state(path)

    def test_file_is_plain_json(self, tmp_path):
        cache = FilterCache()
        cache.store("a", np.ones(2))
        path = save_learned_state(tmp_path / "plain.json", cache=cache)
        document = json.loads(path.read_text())
        assert document["cache"]["a"] == [1.0, 1.0]

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        old = FilterCache()
        old.store("a", np.ones(3))
        path = save_learned_state(tmp_path / "state.json", cache=old)

        new = FilterCache()
        new.store("a", np.zeros(3))

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.utils.store.os.replace", crash)
        with pytest.raises(OSError):
            save_learned_state(path, cache=new)
        monkeypatch.undo()

        __, loaded, ___ = load_learned_state(path)
        np.testing.assert_array_equal(loaded.load("a"), np.ones(3))
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


class TestPresets:
    @pytest.mark.parametrize("factory", [airport_gate, gym_floor,
                                         bedroom_at_night])
    def test_preset_offers_lookahead(self, factory):
        scenario, source = factory()
        assert scenario.nominal_lead_s() > 2e-3
        waveform = source.generate(0.5)
        assert waveform.size == 4000

    def test_all_presets_keys(self):
        presets = all_presets()
        assert set(presets) == {"airport gate", "gym floor",
                                "bedroom at night"}

    def test_bedroom_preset_cancels(self):
        """End-to-end sanity: the bedroom preset actually works."""
        scenario, source = bedroom_at_night(seed=3)
        system = MuteSystem(scenario, MuteConfig(
            probe_secondary=False, mu=0.2, n_past=256, n_future=32))
        result = system.run(source.generate(3.0))
        assert result.mean_cancellation_db(settle_fraction=0.5) < -5.0
