"""Shared fixture for the benchmark harness.

Every deterministic ``bench_*`` module asserts the *shape* of one
experiment defined in ``repro.analysis.experiments`` (or its sibling
``ablations``) and prints its markdown rendering — chart, paper-vs-measured
rows, tables; run pytest with ``-s`` to see it.

Numbers are not expected to match the 2005 testbed; the shape assertions
(who wins, by roughly what factor, where the crossover falls) are enforced
with real asserts so a regression in any service breaks the bench.
"""

from __future__ import annotations

import pytest

from repro.gridsim.job import reset_id_counters


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_id_counters()
    yield
    reset_id_counters()
