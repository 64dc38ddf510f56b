"""Persistence for learned state: profile signatures and filter caches.

A deployed ear-device re-enters the same office every day; its learned
sound profiles and converged tap vectors should survive a power cycle.
This module serializes a :class:`ProfileClassifier`'s signatures and a
:class:`FilterCache`'s taps to a single JSON document (human-readable,
no pickle, no code execution on load).  Saves are atomic: a crash or a
full disk mid-write leaves the previous file intact.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from ..errors import ConfigurationError
from ..utils.store import atomic_write
from .profiles import FilterCache, ProfileClassifier

__all__ = ["save_learned_state", "load_learned_state", "STATE_FORMAT_VERSION"]

#: Bumped on any incompatible change to the JSON layout.
STATE_FORMAT_VERSION = 1


def save_learned_state(path, classifier=None, cache=None, metadata=None):
    """Write profiles and/or cached taps to ``path`` (JSON), atomically.

    The document is written with :func:`repro.utils.store.atomic_write`
    (temp file in the destination directory, then a rename), so a
    failed save never leaves a truncated file behind.

    Parameters
    ----------
    path:
        Destination file.
    classifier:
        Optional :class:`ProfileClassifier` whose registered signatures
        are saved.
    cache:
        Optional :class:`FilterCache` whose tap vectors are saved.
    metadata:
        Optional JSON-serializable dict stored alongside (e.g. the
        scenario description the state was learned in).
    """
    if classifier is None and cache is None:
        raise ConfigurationError("nothing to save: pass a classifier "
                                 "and/or a cache")
    document = {
        "format_version": STATE_FORMAT_VERSION,
        "metadata": metadata or {},
    }
    if classifier is not None:
        if not isinstance(classifier, ProfileClassifier):
            raise ConfigurationError(
                "classifier must be a ProfileClassifier")
        document["classifier"] = {
            "sample_rate": classifier.sample_rate,
            "n_bands": classifier.n_bands,
            "max_distance": classifier.max_distance,
            "energy_floor": classifier.energy_floor,
            "level_weight": classifier.level_weight,
            "profiles": {
                label: {
                    "signature": profile.signature.tolist(),
                    "level_db": profile.level_db,
                }
                for label, profile in classifier._profiles.items()
            },
        }
    if cache is not None:
        if not isinstance(cache, FilterCache):
            raise ConfigurationError("cache must be a FilterCache")
        document["cache"] = {
            label: cache.load(label).tolist() for label in cache.labels()
        }
    return atomic_write(path, json.dumps(document, indent=1))


def load_learned_state(path):
    """Read a saved state; returns ``(classifier_or_None, cache_or_None,
    metadata)``.

    Raises
    ------
    ConfigurationError
        On an unreadable file, a version mismatch or a malformed
        document; the message names ``path``.
    """
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot load state from {path}: {exc}") \
            from exc
    try:
        return _parse_state(document)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot load state from {path}: "
            f"{type(exc).__name__}: {exc}") from exc


def _parse_state(document):
    """The ``(classifier, cache, metadata)`` a parsed document holds."""
    version = document.get("format_version")
    if version != STATE_FORMAT_VERSION:
        raise ConfigurationError(
            f"state format {version!r} unsupported "
            f"(expected {STATE_FORMAT_VERSION})"
        )

    classifier = None
    if "classifier" in document:
        spec = document["classifier"]
        classifier = ProfileClassifier(
            sample_rate=spec["sample_rate"],
            n_bands=spec["n_bands"],
            max_distance=spec["max_distance"],
            energy_floor=spec["energy_floor"],
            level_weight=spec.get("level_weight", 0.5),
        )
        for label, entry in spec["profiles"].items():
            classifier.register_signature(
                label, np.asarray(entry["signature"]),
                level_db=entry.get("level_db"))

    cache = None
    if "cache" in document:
        cache = FilterCache()
        for label, taps in document["cache"].items():
            cache.store(label, np.asarray(taps, dtype=np.float64))

    return classifier, cache, document.get("metadata", {})
