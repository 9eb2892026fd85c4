"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.events import EventCore, EventJournal
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Simulator
from repro.gridsim.job import reset_id_counters


@pytest.fixture(autouse=True)
def _fresh_task_ids():
    """Reset the global task/job id allocators so every test sees
    deterministic ids regardless of execution order."""
    reset_id_counters()
    yield
    reset_id_counters()


def bare_core() -> EventCore:
    """The write path as an ``observability=False`` build makes it: a
    journal that retains nothing.  A stand-alone producer is constructed
    with one of its ``emit_*`` methods and its store registered through
    ``register_stores`` — the function ``build_gae`` uses."""
    return EventCore(EventJournal(clock=lambda: 0.0, capacity=0))


@pytest.fixture
def events() -> EventCore:
    return bare_core()


@pytest.fixture
def sim() -> Simulator:
    """A fresh discrete-event simulator."""
    return Simulator()


@pytest.fixture
def two_site_grid():
    """The canonical Figure 7 testbed: loaded site A, free site B."""
    return (
        GridBuilder(seed=42)
        .site("siteA", nodes=1, background_load=1.5)
        .site("siteB", nodes=1, background_load=0.0)
        .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.05)
        .probe_noise(0.0)
        .build()
    )


@pytest.fixture
def gae(two_site_grid):
    """A fully wired GAE over the two-site grid (periodic loops not armed)."""
    return build_gae(two_site_grid)
