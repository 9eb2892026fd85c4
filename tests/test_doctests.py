"""Run the doctests embedded in module docstrings.

These are the examples users read first; they must stay true.
"""

import doctest

import pytest

import repro.core.estimators.runtime
import repro.core.estimators.service
import repro.core.estimators.similarity
import repro.core.estimators.transfer_time
import repro.declare
import repro.gae
import repro.gridsim.grid
import repro.gridsim.rng
import repro.scenarios.slo
import repro.scenarios.spec

MODULES = [
    repro.declare,
    repro.gridsim.grid,
    repro.gridsim.rng,
    repro.gae,
    repro.core.estimators.runtime,
    repro.core.estimators.service,
    repro.core.estimators.similarity,
    repro.core.estimators.transfer_time,
    repro.scenarios.spec,
    repro.scenarios.slo,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    from repro.gridsim.job import reset_id_counters

    reset_id_counters()
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
