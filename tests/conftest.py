"""Shared fixtures for the test suite.

Heavy objects (room channels, MuteSystem instances) are session-scoped:
they are deterministic, and rebuilding image-source models per test
would dominate the suite's runtime.

The documentation lint (``tests/test_docs_lint.py``, marker
``docs_lint``) is **opt-in** — it checks the working tree's markdown,
not the library, so it only runs with ``--docs-lint`` or
``REPRO_DOCS_LINT=1`` (mirroring ``benchmarks/conftest.py``'s
``runtime_bench`` pattern).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.acoustics import Point, Room
from repro.acoustics.rir import RirSettings
from repro.core import MuteConfig, MuteSystem, Scenario

# CI pins hypothesis to the derandomized profile (HYPOTHESIS_PROFILE=ci)
# so property-test failures reproduce exactly across runs and machines.
hypothesis_settings.register_profile("ci", derandomize=True,
                                     deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    hypothesis_settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def pytest_addoption(parser):
    parser.addoption(
        "--docs-lint", action="store_true", default=False,
        help="run the documentation lint (repro.tools.check_docs)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "docs_lint: documentation lint (opt in with --docs-lint or "
        "REPRO_DOCS_LINT=1)",
    )


def _docs_lint_enabled(config):
    if config.getoption("--docs-lint"):
        return True
    return os.environ.get("REPRO_DOCS_LINT", "").strip().lower() in (
        "1", "true", "yes", "on")


def pytest_collection_modifyitems(config, items):
    if _docs_lint_enabled(config):
        return
    skip = pytest.mark.skip(
        reason="docs lint; opt in with --docs-lint or REPRO_DOCS_LINT=1")
    for item in items:
        if "docs_lint" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def no_stray_workers():
    """Every test joins the worker processes it started."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def fast_scenario():
    """A small scene with first-order reflections only — fast RIRs."""
    room = Room(5.0, 4.0, 3.0, absorption=0.4)
    return Scenario(
        room=room,
        source=Point(0.8, 0.8, 1.2),
        client=Point(4.0, 3.0, 1.2),
        relays=(Point(1.2, 0.5, 1.2),),
        sample_rate=8000.0,
        rir_settings=RirSettings(max_order=1),
    )


@pytest.fixture(scope="session")
def fast_channels(fast_scenario):
    return fast_scenario.build_channels()


@pytest.fixture(scope="session")
def fast_system(fast_scenario):
    """A MuteSystem with cheap settings (exact secondary path, few taps)."""
    config = MuteConfig(
        n_future=32,
        n_past=192,
        mu=0.2,
        probe_secondary=False,
    )
    return MuteSystem(fast_scenario, config)


@pytest.fixture(scope="session")
def two_relay_scenario(fast_scenario):
    """The fast scene plus a second relay beyond the client."""
    far = Point(4.6, 3.4, 1.2)
    return dataclasses.replace(fast_scenario,
                               relays=fast_scenario.relays + (far,))
