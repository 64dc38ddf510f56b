"""Parallel experiment executor: fan experiment runs out over processes.

The experiment suite is embarrassingly parallel — every registered
experiment is an independent simulation.  :func:`run_experiments` fans
them out over a ``concurrent.futures`` process pool, with a serial
in-process fallback whenever a pool is unavailable or ``jobs=1``, and
folds each worker's :mod:`repro.obs` trace/metrics documents into one
merged report (:class:`SuiteReport`).

Run context travels as a :class:`~repro.runtime.request.RunRequest`:
the request is pickled into each worker and applied *there* (seed,
duration, fault plan, obs switch), so parallel workers see exactly the
context a serial run would.

This is what backs ``repro run-all --jobs N``.  Determinism: a worker
runs exactly the same registry entry point with exactly the same
request as a serial call, so parallel results equal serial ones —
the property ``tests/test_runtime.py`` locks in.

Worker loss
-----------
A worker process can die outright (OOM killer, segfaulting native
code) — that surfaces as ``BrokenProcessPool``, not as a Python
exception the job could catch.  A death breaks the whole pool and
fails every unfinished future, so the pool cannot say whose worker
died.  The executor keeps the results that finished first and reruns
each job the breakage took down alone, on a fresh one-worker pool: a
job that breaks that pool too is the one that kills its worker, and it
is recorded as a failed :class:`JobOutcome` while the others finish.
There is no retry (experiments are deterministic, so a retry only
reruns the same death) and no serial rerun of such a job — killing
the caller's own interpreter is never a fallback.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import time
from concurrent import futures

from .. import obs
from ..errors import ConfigurationError
from .merge import (
    merge_metrics_documents,
    merge_trace_documents,
    render_metrics_document,
)
from .request import RunRequest

__all__ = ["JobOutcome", "SuiteReport", "run_experiments"]

#: Schema identifier of :meth:`SuiteReport.to_dict` — the ``report/v2``
#: envelope family (shared with ``ExperimentResult``; documents carry
#: ``kind: "suite"`` vs ``kind: "result"``).
SUITE_SCHEMA = "repro.runtime.report/v2"


@dataclasses.dataclass
class JobOutcome:
    """One experiment run plus the observability it recorded."""

    name: str
    result: object        # the runner's ExperimentResult envelope
    trace: dict           # repro.obs.trace/v1
    metrics: dict         # repro.obs.metrics/v1
    wall_s: float
    error: str | None = None  # traceback text when the run failed

    @property
    def ok(self):
        """Did the run produce a result?"""
        return self.error is None


def _execute_job(name, request):
    """Worker entry point (module-level so process pools can pickle it).

    Runs one registered experiment with a clean observability slate and
    returns a :class:`JobOutcome`; exceptions are captured as text so a
    single failing experiment doesn't sink the whole suite.  The
    :class:`RunRequest` is applied *here*, inside the worker — its
    seed, fault plan, and obs switch reach the run the same way serial
    execution would apply them.
    """
    # Imported here, not at module top: worker processes pay the import
    # only when they actually run something.
    from ..eval import experiments

    obs.reset()
    started = time.perf_counter()
    error = None
    result = None
    try:
        entry = experiments.get(name)
        if request.with_obs:
            with obs.enabled_scope():
                result = entry.run(request=request)
        else:
            result = entry.run(request=request)
    except Exception:  # noqa: BLE001 — reported, not swallowed
        import traceback
        error = traceback.format_exc()
    outcome = JobOutcome(
        name=name,
        result=result,
        trace=obs.get_tracer().to_dict(),
        metrics=obs.get_registry().to_dict(),
        wall_s=time.perf_counter() - started,
        error=error,
    )
    obs.reset()
    return outcome


@dataclasses.dataclass
class SuiteReport:
    """Everything one ``run_experiments`` call produced, merged."""

    outcomes: list
    jobs: int
    wall_s: float
    parallel: bool        # did the pool actually run, or the fallback?
    request: object = None    # the RunRequest (or its dict after from_json)
    metrics_doc: dict | None = None   # merged-doc overrides installed by
    trace_doc: dict | None = None     # from_json (no live obs to re-merge)

    def results(self):
        """``name -> ExperimentResult`` for the successful runs."""
        return {o.name: o.result for o in self.outcomes if o.ok}

    def failures(self):
        """``name -> traceback text`` for the failed runs."""
        return {o.name: o.error for o in self.outcomes if not o.ok}

    @property
    def merged_metrics(self):
        """All workers' metrics as one ``repro.obs.metrics/v1`` doc."""
        if self.metrics_doc is not None:
            return self.metrics_doc
        return merge_metrics_documents(o.metrics for o in self.outcomes)

    @property
    def merged_trace(self):
        """All workers' spans as one ``repro.obs.trace/v1`` forest."""
        if self.trace_doc is not None:
            return self.trace_doc
        return merge_trace_documents(
            (o.name, o.trace) for o in self.outcomes)

    def _request_doc(self):
        if self.request is None:
            return None
        if hasattr(self.request, "to_dict"):
            return self.request.to_dict()
        return dict(self.request)

    def to_dict(self):
        """JSON-able ``report/v2`` suite document.

        Each run record is the run's ``report/v2`` result document
        (envelope metadata + report text) extended with the suite-level
        ``wall_s``/``ok``/``error`` fields; the rich result objects
        hold numpy arrays and stay in :attr:`outcomes`.
        """
        runs = []
        for o in self.outcomes:
            if o.ok:
                record = o.result.to_dict()
            else:
                record = {
                    "schema": SUITE_SCHEMA,
                    "kind": "result",
                    "name": o.name,
                    "params": {},
                    "report": None,
                }
            record.update(wall_s=o.wall_s, ok=o.ok, error=o.error)
            runs.append(record)
        return {
            "schema": SUITE_SCHEMA,
            "kind": "suite",
            "jobs": self.jobs,
            "parallel": self.parallel,
            "wall_s": self.wall_s,
            "request": self._request_doc(),
            "runs": runs,
            "metrics": self.merged_metrics,
            "trace": self.merged_trace,
        }

    def to_json(self, **kwargs):
        """:meth:`to_dict` as a JSON string (kwargs go to ``json.dumps``)."""
        kwargs.setdefault("default", str)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, document):
        """Rebuild a report from a ``report/v2`` suite document.

        Result envelopes come back with
        :class:`~repro.eval.experiments.registry.RehydratedResults`
        placeholders (report text only); per-outcome obs documents are
        gone, but the merged metrics/trace are restored, so
        ``from_dict(x.to_dict()).to_dict() == x.to_dict()``.
        """
        from ..eval.experiments.registry import ExperimentResult

        schema = document.get("schema")
        if schema != SUITE_SCHEMA:
            raise ConfigurationError(
                f"cannot load suite document with schema {schema!r}; "
                f"expected {SUITE_SCHEMA!r}"
            )
        if document.get("kind") not in (None, "suite"):
            raise ConfigurationError(
                f"expected a 'suite' document, got kind "
                f"{document.get('kind')!r}"
            )
        outcomes = []
        for record in document.get("runs", []):
            ok = bool(record.get("ok"))
            result = None
            if ok:
                envelope = {k: v for k, v in record.items()
                            if k not in ("wall_s", "ok", "error")}
                result = ExperimentResult.from_dict(envelope)
            outcomes.append(JobOutcome(
                name=record["name"],
                result=result,
                trace={},
                metrics={},
                wall_s=float(record.get("wall_s", 0.0)),
                error=record.get("error"),
            ))
        return cls(
            outcomes=outcomes,
            jobs=int(document.get("jobs", 1)),
            wall_s=float(document.get("wall_s", 0.0)),
            parallel=bool(document.get("parallel", False)),
            request=document.get("request"),
            metrics_doc=document.get("metrics"),
            trace_doc=document.get("trace"),
        )

    @classmethod
    def from_json(cls, text):
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def report(self):
        """Terminal summary: per-run wall times plus merged metrics."""
        lines = [
            f"== runtime suite: {len(self.outcomes)} experiment(s), "
            f"jobs={self.jobs}"
            f"{' (parallel)' if self.parallel else ' (serial)'}, "
            f"total {self.wall_s:.1f}s =="
        ]
        for o in self.outcomes:
            status = "ok" if o.ok else "FAILED"
            lines.append(f"  {o.name:<12} {o.wall_s:7.1f}s  {status}")
        lines.append("")
        lines.append("--- merged metrics ---")
        lines.append(render_metrics_document(self.merged_metrics))
        return "\n".join(lines)


def _run_pool(jobs_list, request, n_workers):
    """Run ``jobs_list`` on one pool of ``n_workers`` processes.

    Returns one outcome per job in input order, ``None`` for each job
    a worker death took down (its future, or its submission, broke with
    the pool).  Pool *creation* failures propagate to the caller's
    serial fallback.
    """
    outcomes = [None] * len(jobs_list)
    submitted = []
    with futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
        try:
            for name in jobs_list:
                submitted.append(pool.submit(_execute_job, name, request))
        except futures.BrokenExecutor:
            pass
        for idx, fut in enumerate(submitted):
            try:
                outcomes[idx] = fut.result()
            except futures.BrokenExecutor:
                pass
    return outcomes


def _run_alone(name, request):
    """Rerun one job a worker death took down, on a fresh one-worker pool.

    A job that breaks this pool too is the one that kills its worker.
    """
    with futures.ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(_execute_job, name, request).result()
        except futures.BrokenExecutor:
            return JobOutcome(name=name, result=None, trace={}, metrics={},
                              wall_s=0.0,
                              error=f"worker died running {name!r}")


def run_experiments(names, request=None):
    """Run several experiments, optionally in parallel processes.

    Parameters
    ----------
    names:
        Iterable of registry names.
    request:
        A :class:`~repro.runtime.request.RunRequest` carrying the run
        context: worker count (``request.jobs``; ``1`` runs serially
        in-process), seed/duration/fault plan/extra params broadcast
        to every run (applied where each runner accepts them), and the
        obs switch.  ``None`` means the default request.

    Returns a :class:`SuiteReport`.  If the process pool cannot be
    *created* (pickling limits, a sandboxed platform), the work falls
    back to the serial path — results are identical either way, only
    the wall clock differs.  A worker death *during* the run fails only
    the job that killed its worker (see the module docstring); such a
    job is never rerun in the caller's own process.
    """
    request = request if request is not None else RunRequest()
    jobs_list = list(names)

    # Validate every name up front — a typo should fail fast here, not
    # half-way through a worker fan-out.
    from ..eval import experiments
    for name in jobs_list:
        experiments.get(name)

    started = time.perf_counter()
    parallel = request.jobs > 1 and bool(jobs_list)
    if parallel:
        try:
            outcomes = _run_pool(jobs_list, request,
                                 min(request.jobs, len(jobs_list)))
        except (pickle.PicklingError, OSError, ImportError):
            # No usable pool on this platform — same work, one process.
            parallel = False
        else:
            outcomes = [_run_alone(name, request) if outcome is None
                        else outcome
                        for name, outcome in zip(jobs_list, outcomes)]
    if not parallel:
        outcomes = [_execute_job(name, request) for name in jobs_list]

    return SuiteReport(
        outcomes=outcomes,
        jobs=request.jobs,
        wall_s=time.perf_counter() - started,
        parallel=parallel,
        request=request,
    )
