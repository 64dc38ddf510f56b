"""Content-addressed cache for scenario acoustic channels.

The image-source model (:mod:`repro.acoustics.rir`) is the most
expensive kernel in the whole pipeline, and every experiment, benchmark,
and :class:`~repro.core.system.MuteSystem` construction re-runs it for
*identical geometry*.  This module makes the second and every later
build of the same scenario effectively free:

* :func:`scenario_cache_key` is the :func:`~repro.utils.store.content_key`
  of the :class:`~repro.core.scenario.Scenario` — a frozen dataclass
  of exactly the key material — so ``PYTHONHASHSEED`` cannot perturb
  it;
* :class:`ChannelCache` holds an in-process LRU of raw impulse
  responses plus an **opt-in** on-disk layer (``~/.cache/repro`` by
  default): a :class:`~repro.utils.store.Store` of digest-verified,
  atomically written entries;
* :meth:`Scenario.build_channels` routes through the process-global
  cache (see :func:`get_channel_cache`), so every caller hits it
  transparently.

Cache hits are **bit-identical** to cold builds: entries store the raw
FIR arrays and each hit materializes *fresh* :class:`AcousticChannel`
objects from private copies, so streaming filter state is never shared
between callers.  Corrupt or truncated disk entries fall under the
store's one corruption policy — quarantined into ``.quarantine/`` (so
the bytes survive for post-mortem inspection) — and are recomputed: a
cache can lose data, never corrupt a result.  Full scheme in
``docs/RUNTIME.md``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .. import obs
from ..acoustics.channels import AcousticChannel
from ..errors import ConfigurationError
from ..utils.store import Store, content_key
from ..utils.validation import check_impulse_response

__all__ = [
    "CHANNEL_KEY_VERSION",
    "ChannelCache",
    "default_disk_dir",
    "get_channel_cache",
    "scenario_cache_key",
    "set_channel_cache",
]

#: Bumped whenever the key derivation *or* the channel computation
#: changes meaning; stale disk entries from older versions simply miss.
CHANNEL_KEY_VERSION = 2

#: Environment variable that overrides the on-disk store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable that opts the default cache into the disk store.
DISK_CACHE_ENV = "REPRO_DISK_CACHE"


def default_disk_dir():
    """The default on-disk store: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    root = os.environ.get(CACHE_DIR_ENV)
    base = Path(root).expanduser() if root else Path("~/.cache/repro").expanduser()
    return base / "channels"


def scenario_cache_key(scenario):
    """Deterministic content key for one scenario's acoustic channels.

    A :class:`~repro.core.scenario.Scenario` holds exactly what
    :meth:`~repro.core.scenario.Scenario.compute_channels` reads — room
    geometry and absorption, source/client/relay/speaker positions, the
    sample rate and every :class:`RirSettings` field — so the key is its
    :func:`~repro.utils.store.content_key`, tagged with
    :data:`CHANNEL_KEY_VERSION` so algorithm changes invalidate old
    entries.  Stable across processes and ``PYTHONHASHSEED`` values.
    """
    return content_key(f"repro.channels/v{CHANNEL_KEY_VERSION}", scenario)


@dataclasses.dataclass(frozen=True)
class _Entry:
    """Raw cached payload: arrays only, no live filter state."""

    h_ne: np.ndarray
    h_nr: tuple
    h_se: np.ndarray
    lead: tuple
    sample_rate: float


class ChannelCache:
    """In-process LRU + optional on-disk store for scenario channels.

    Parameters
    ----------
    max_entries:
        LRU capacity; the oldest entry is evicted past this.  A bench
        room's channels are a few hundred KB, so the default keeps the
        working set of a full experiment suite resident.
    disk_dir:
        Directory for the persistent layer, or ``None`` (memory only).
        It is a :class:`~repro.utils.store.Store` labelled
        ``channels``: entries are written atomically and verified on
        load; anything unreadable is quarantined under
        ``<disk_dir>/.quarantine/`` and rebuilt from scratch.
    """

    def __init__(self, max_entries=64, disk_dir=None):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self._disk = (Store(self.disk_dir, "channels") if self.disk_dir
                      else None)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get_or_build(self, scenario):
        """The scenario's :class:`ScenarioChannels`, cached.

        Memory hit → disk hit → cold compute, in that order; cold
        results are inserted into both layers.  Every return value is
        materialized from private array copies, so callers can stream
        through the channels without contaminating the cache.
        """
        key = scenario_cache_key(scenario)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hit")
                return self._materialize(entry)

        entry = self._disk_load(key)
        if entry is not None:
            with self._lock:
                self._insert(key, entry)
                self.disk_hits += 1
                self._count("disk_hit")
            return self._materialize(entry)

        channels = scenario.compute_channels()
        entry = _Entry(
            h_ne=np.array(channels.h_ne.ir, copy=True),
            h_nr=tuple(np.array(ch.ir, copy=True) for ch in channels.h_nr),
            h_se=np.array(channels.h_se.ir, copy=True),
            lead=tuple(int(v) for v in channels.acoustic_lead_samples),
            sample_rate=float(channels.sample_rate),
        )
        with self._lock:
            self._insert(key, entry)
            self.misses += 1
            self._count("miss")
        self._disk_store(key, entry)
        return channels

    def stats(self):
        """Hit/miss counters as a plain dict (for reports and tests)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_discards": self._disk.corrupt if self._disk else 0,
            "evictions": self.evictions,
        }

    def clear(self, disk=False):
        """Drop every in-memory entry (and the disk store if asked)."""
        with self._lock:
            self._entries.clear()
        if disk and self._disk is not None:
            for name in self._disk.names():
                self._disk.delete(name)

    def __len__(self):
        return len(self._entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _count(self, result):
        if obs.enabled():
            obs.get_registry().counter("runtime.channel_cache",
                                       result=result).inc()

    def _insert(self, key, entry):
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _materialize(self, entry):
        # Import here: scenario imports this module (lazily) for the
        # global cache, so the top level must not import scenario.
        from ..core.scenario import ScenarioChannels

        # Entry arrays were validated on insert (cold build or disk
        # load), so each hit hands the channels private copies unchecked.
        return ScenarioChannels(
            h_ne=AcousticChannel.from_checked(np.array(entry.h_ne, copy=True),
                                              "h_ne"),
            h_nr=tuple(
                AcousticChannel.from_checked(np.array(ir, copy=True),
                                             f"h_nr[{i}]")
                for i, ir in enumerate(entry.h_nr)
            ),
            h_se=AcousticChannel.from_checked(np.array(entry.h_se, copy=True),
                                              "h_se"),
            acoustic_lead_samples=tuple(entry.lead),
            sample_rate=entry.sample_rate,
        )

    def _disk_store(self, key, entry):
        if self._disk is None:
            return
        arrays = {"h_ne": entry.h_ne, "h_se": entry.h_se}
        for i, ir in enumerate(entry.h_nr):
            arrays[f"h_nr_{i}"] = ir
        meta = {"lead": list(entry.lead), "sample_rate": entry.sample_rate}
        try:
            self._disk.put(key, meta, arrays)
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            pass

    def _disk_load(self, key):
        """One verified disk entry, or ``None`` (quarantined if unusable)."""
        found = self._disk.get(key) if self._disk is not None else None
        if found is None:
            return None
        meta, arrays = found
        try:
            n_relays = len(arrays) - 2
            entry = _Entry(
                h_ne=arrays["h_ne"],
                h_nr=tuple(arrays[f"h_nr_{i}"] for i in range(n_relays)),
                h_se=arrays["h_se"],
                lead=tuple(int(v) for v in meta["lead"]),
                sample_rate=float(meta["sample_rate"]),
            )
            if len(entry.lead) != n_relays:
                raise ValueError("lead/relay count mismatch")
            for ir in (entry.h_ne, entry.h_se) + entry.h_nr:
                check_impulse_response("cached impulse response", ir)
        except (KeyError, TypeError, ValueError):
            self._disk.quarantine(key)
            return None
        return entry


_default_cache = None
_default_lock = threading.Lock()


def get_channel_cache():
    """The process-global cache :meth:`Scenario.build_channels` uses.

    Created on first use; the disk store is attached when
    ``$REPRO_DISK_CACHE`` is a truthy value (``1``/``true``/``yes``),
    honoring ``$REPRO_CACHE_DIR`` for its location.
    """
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            disk = os.environ.get(DISK_CACHE_ENV, "").strip().lower()
            disk_dir = (default_disk_dir()
                        if disk in ("1", "true", "yes", "on") else None)
            _default_cache = ChannelCache(disk_dir=disk_dir)
        return _default_cache


def set_channel_cache(cache):
    """Replace the process-global cache; returns the previous one.

    Pass a :class:`ChannelCache` (e.g. one with a disk store), or
    ``None`` to reset to a fresh default on next use.
    """
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
        return previous
