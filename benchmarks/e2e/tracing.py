"""Spans recorded from outside the program, around calls into its layers.

The traced run installs recording wrappers on each layer's public
callables and restores the originals afterwards, so the program itself
carries no instrumentation.  Spans are kept in memory as
``[name, start, end, parent index, request id, n]`` and written once at
the end; ``n`` is what the call handled (samples, or batch rows).
"""

from __future__ import annotations

import contextlib
import time

_ABSENT = object()


class HookMissing(RuntimeError):
    """A hook target named by the benchmark is not in the program."""


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name, request, n=0):
        """Record one span under ``request``; yields the span record."""
        previous, self.request = self.request, request
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, request, n]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.request = previous

    def wrap(self, name, fn, size=None):
        """``fn`` recording a ``name`` span while a request is traced."""
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            n = size(*args) if size is not None else 0
            with self.span(name, self.request, n):
                return fn(*args, **kwargs)
        return traced

    def patch(self, owner, attr, name, size=None):
        """Replace ``owner.attr`` by a recording wrapper until restored.

        An attribute the owner (class, module or instance) holds itself
        is swapped in place; one it inherits or takes from its class is
        shadowed, and the shadow is deleted again.
        """
        original = vars(owner).get(attr, _ABSENT)
        target = getattr(owner, attr, _ABSENT)
        if target is _ABSENT or not callable(target):
            label = getattr(owner, "__name__", type(owner).__name__)
            raise HookMissing(f"hook target {label}.{attr} is missing")
        setattr(owner, attr, self.wrap(name, target, size))
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def hooks(self, targets):
        """Patch ``(owner, attr, span name, size)`` targets for a block."""
        try:
            for owner, attr, name, size in targets:
                self.patch(owner, attr, name, size)
            yield
        finally:
            self.restore()


class TracedRelay:
    """Delegating relay passed as ``MuteConfig.relay`` in traced runs.

    ``forward`` records a ``wireless.forward`` span; every other
    attribute (``latency_samples`` …) falls through to the real relay.
    """

    def __init__(self, relay, tracer):
        self._relay = relay
        self.forward = tracer.wrap("wireless.forward", relay.forward,
                                   size=len)

    def __getattr__(self, name):
        return getattr(self._relay, name)
