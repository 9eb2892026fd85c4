"""Declarative scenario engine: chaos campaigns scored against SLOs.

Every benchmark before this package replayed one canonical workload.
Scenarios make *composed adversity* — the grid weather the paper's §1
motivates steering with — a first-class, repeatable evaluation layer:

- a **scenario file** (:mod:`repro.scenarios.spec`) declares a workload
  shape (:mod:`repro.scenarios.workload`), a chaos schedule
  (:mod:`repro.scenarios.chaos` driving
  :class:`~repro.gridsim.faults.OutageScheduler` and the network
  weather), and SLO assertions (:mod:`repro.scenarios.slo`);
- the **engine** (:mod:`repro.scenarios.engine`) runs the scenario on a
  fully wired GAE and scores every SLO from the observability journal,
  writing the ``SCENARIOS.json`` trajectory artifact, which is checked by
  re-running the scenarios it names;
- the **registry** (:mod:`repro.scenarios.registry`) discovers the named
  scenario library under ``scenarios/`` and generates the operator
  cookbook table in ``docs/SCENARIOS.md`` (drift-gated by
  ``tools/check_docs.py``).

Everything is seeded and simulation-domain: two runs of the same
scenario with the same seed produce bit-identical artifacts.
"""

from repro.scenarios.engine import (
    ScenarioReportError,
    check_scenarios_report,
    run_campaign,
    run_scenario,
)
from repro.scenarios.registry import (
    load_scenario,
    scenario_names,
    scenario_table_markdown,
)
from repro.scenarios.slo import SLO_METRICS, SloSpec, score_slos
from repro.scenarios.spec import (
    ChaosAction,
    ScenarioError,
    ScenarioSpec,
    WorkloadShape,
)

__all__ = [
    "ChaosAction",
    "SLO_METRICS",
    "ScenarioError",
    "ScenarioReportError",
    "ScenarioSpec",
    "SloSpec",
    "WorkloadShape",
    "check_scenarios_report",
    "load_scenario",
    "run_campaign",
    "run_scenario",
    "scenario_names",
    "scenario_table_markdown",
    "score_slos",
]
