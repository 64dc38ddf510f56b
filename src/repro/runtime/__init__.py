"""repro.runtime — cached + parallel simulation runtime.

The layer between the acoustic simulator and the experiment suite that
makes heavy multi-scenario traffic cheap:

* :mod:`~repro.runtime.cache` — content-addressed channel cache.
  :meth:`Scenario.build_channels` routes through it transparently, so
  every :class:`MuteSystem`, experiment, and benchmark re-uses
  image-source output for identical geometry (in-process LRU, plus an
  opt-in on-disk store under ``~/.cache/repro``).
* :mod:`~repro.runtime.executor` — fans independent experiment runs
  out over a process pool (serial fallback included) and merges each
  worker's :mod:`repro.obs` spans/metrics into one report; backs the
  ``repro run-all --jobs N`` CLI.  A job whose worker dies is
  recorded as failed and the other jobs finish on a fresh pool (see
  ``docs/RESILIENCE.md``).
* :mod:`~repro.runtime.request` — :class:`RunRequest`, the one frozen
  context object (seed, duration, fault plan, obs switch, worker
  count) accepted by ``Experiment.run``,
  :func:`run_experiments`, and ``repro.serving``.

Quick tour::

    from repro import runtime

    channels = scenario.build_channels()        # cached transparently
    request = runtime.RunRequest(jobs=2, seed=1)
    suite = runtime.run_experiments(["fig13", "timing"], request=request)
    print(suite.report())                       # merged obs included

Full guide: ``docs/RUNTIME.md``.
"""

from __future__ import annotations

from .cache import (
    CHANNEL_KEY_VERSION,
    ChannelCache,
    default_disk_dir,
    get_channel_cache,
    scenario_cache_key,
    set_channel_cache,
)
from .executor import (
    SUITE_SCHEMA,
    JobOutcome,
    SuiteReport,
    run_experiments,
)
from .merge import (
    merge_metrics_documents,
    merge_trace_documents,
    render_metrics_document,
)
from .request import RunRequest

__all__ = [
    # cache
    "CHANNEL_KEY_VERSION",
    "ChannelCache",
    "default_disk_dir",
    "get_channel_cache",
    "scenario_cache_key",
    "set_channel_cache",
    # executor
    "SUITE_SCHEMA",
    "JobOutcome",
    "SuiteReport",
    "run_experiments",
    # request
    "RunRequest",
    # merge
    "merge_metrics_documents",
    "merge_trace_documents",
    "render_metrics_document",
]
