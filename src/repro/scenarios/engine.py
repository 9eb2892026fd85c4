"""Run scenarios end to end and write the ``SCENARIOS.json`` artifact.

:func:`run_scenario` builds the declared grid, wires the full GAE with
observability, schedules the workload's submissions and the chaos windows
on the simulation clock, runs to the horizon, and scores every SLO from
the journal.  :func:`run_campaign` does that for a list of scenarios and
assembles the trajectory artifact; :func:`check_scenarios_report` checks
a report by re-running what it names and comparing.

Determinism contract: everything in the artifact is derived from
simulation time, seeded RNG streams, and static spec fields — no wall
clocks, no host-dependent values beyond the interpreter version string —
so two calls with the same specs and seeds serialise bit-identically
(pinned by ``tests/property/test_properties_scenarios.py``).

The artifact's layout (schema v2 added the per-phase ``telemetry``
block and the ``health`` rule/transition record)::

    {
      "schema_version": 2,
      "generated_by": "gae-repro scenario run",
      "quick": false,
      "python": "3.12.3",
      "passed": true,
      "scenarios": [
        {
          "name": "site-outage-recovery",
          "seed": 2005, "horizon_s": 4000.0, "quick": false,
          "workload": {"shape": "dag_campaign", "owners": [...],
                        "jobs": 3, "tasks": 15},
          "chaos": [{"kind": "outage", "site": "siteB",
                      "start_s": 600.0, "end_s": 1200.0}],
          "fault_events": 2,
          "phases": [{"name": "baseline", "start_s": 0.0, "end_s": 600.0,
                       "events": {"submitted": 15, ...,
                                   "health-firing": 0}}, ...],
          "telemetry": {"window_s": 166.67, "windows_closed": 24,
                         "phases": [{"name": "baseline",
                                      "series": {"journal.completed.count":
                                                  [[166.67, 3.0], ...]}}, ...]},
          "health": {"rules": [{"name": "task-failures", "kind": "threshold",
                                 "severity": "critical", "state": "ok"}, ...],
                      "transitions": [{"rule": "task-failures", "to": "firing",
                                        "time_s": 833.3, "value": 2.0}, ...]},
          "slos": [{"slo": "completion_ratio >= 1", "metric": ...,
                     "value": 1.0, "samples": 15, "passed": true}, ...],
          "passed": true
        }, ...
      ]
    }

The telemetry block keeps only the journal-derived series (pure
functions of simulation time), windows bucketed into the phase that
contains the window's *start* — so the same-seed bit-identity contract
extends to the streamed aggregates.
"""

from __future__ import annotations

import json
import platform
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.gridsim.grid import build_grid
from repro.gridsim.job import reset_id_counters
from repro.events.journal import EventType, JournalEvent
from repro.scenarios.chaos import wire_chaos
from repro.scenarios.registry import load_scenario, scenario_names
from repro.scenarios.slo import score_slos
from repro.scenarios.spec import (
    ScenarioSpec,
    first_chaos_start,
    last_chaos_end,
)
from repro.scenarios.workload import build_submissions

__all__ = [
    "SCENARIOS_SCHEMA_VERSION",
    "ScenarioReportError",
    "check_scenarios_report",
    "run_campaign",
    "run_scenario",
    "write_scenarios_report",
]

SCENARIOS_SCHEMA_VERSION = 2

#: Event types counted per phase in the artifact.
_PHASE_EVENT_TYPES: Tuple[EventType, ...] = (
    EventType.SUBMITTED,
    EventType.DISPATCHED,
    EventType.STARTED,
    EventType.COMPLETED,
    EventType.FAILED,
    EventType.RECOVERED,
    EventType.MOVED,
    EventType.HEALTH_FIRING,
    EventType.HEALTH_RESOLVED,
)

#: Telemetry windows per scenario run: ``window_s = horizon_s / 24``, so
#: the boundary chain lands exactly on the horizon regardless of scale.
_TELEMETRY_WINDOWS = 24


class ScenarioReportError(ValueError):
    """Raised when a ``SCENARIOS.json`` report is not what a re-run of it emits."""


def _phase_bounds(spec: ScenarioSpec) -> List[Tuple[str, float, float]]:
    """``(name, start, end)`` for baseline / chaos / recovery phases."""
    start = first_chaos_start(spec.chaos, spec.horizon_s)
    end = last_chaos_end(spec.chaos, spec.horizon_s)
    phases: List[Tuple[str, float, float]] = []
    if start > 0:
        phases.append(("baseline", 0.0, start))
    if end > start:
        phases.append(("chaos", start, end))
    if spec.horizon_s > end:
        phases.append(("recovery", end, spec.horizon_s))
    if not phases:  # chaos spans [0, horizon] exactly
        phases.append(("chaos", 0.0, spec.horizon_s))
    return phases


def _phase_rows(
    spec: ScenarioSpec, events: Sequence[JournalEvent]
) -> List[Dict[str, object]]:
    bounds = _phase_bounds(spec)
    rows = []
    for i, (name, start, end) in enumerate(bounds):
        last = i == len(bounds) - 1
        window = [
            e for e in events
            if start <= e.time and (e.time < end or (last and e.time <= end))
        ]
        rows.append(
            {
                "name": name,
                "start_s": start,
                "end_s": end,
                "events": {
                    t.value: sum(1 for e in window if e.type is t)
                    for t in _PHASE_EVENT_TYPES
                },
            }
        )
    return rows


def _telemetry_rows(
    spec: ScenarioSpec, telemetry
) -> Dict[str, object]:
    """The per-phase ``telemetry`` block: journal-derived series only.

    Each closed window (a ``(t_end, value)`` sample) is bucketed into
    the phase containing its *start* ``t_end - window_s``; the final
    phase claims its inclusive end so the horizon boundary is kept.
    """
    bounds = _phase_bounds(spec)
    phases: List[Dict[str, object]] = [
        {"name": name, "series": {}} for name, _, _ in bounds
    ]

    def bucket(t_start: float) -> Dict[str, object]:
        for row, (_, lo, hi) in zip(phases, bounds):
            if lo <= t_start < hi:
                return row
        return phases[-1]

    for name in telemetry.names():
        if not name.startswith("journal."):
            continue
        for t, v in telemetry.series(name).samples():
            row = bucket(t - telemetry.window_s)
            row["series"].setdefault(name, []).append([t, v])
    return {
        "window_s": telemetry.window_s,
        "windows_closed": telemetry.windows_closed,
        "phases": phases,
    }


def _health_rows(health) -> Dict[str, object]:
    """The ``health`` block: final rule states plus every transition."""
    snap = health.snapshot()
    return {
        "rules": [
            {
                "name": rule["name"],
                "kind": rule["kind"],
                "severity": rule["severity"],
                "state": rule["state"],
            }
            for rule in snap["rules"]
        ],
        "transitions": health.transitions(),
    }


def run_scenario(
    spec: ScenarioSpec,
    quick: bool = False,
    on_complete: Optional[Callable[[object, Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Execute one scenario and return its artifact entry.

    ``quick`` applies the spec's ``quick`` overrides (CI-sized run).
    ``on_complete(gae, entry)``, when given, runs after the entry is
    assembled but while the GAE is still in scope — ``gae-repro health``
    uses it to export telemetry and print the live health snapshot.
    """
    from repro.gae import build_gae

    eff = spec.effective(quick)
    reset_id_counters()
    grid = build_grid(eff.grid, seed=eff.seed)
    gae = build_gae(
        grid,
        policy=eff.steering_policy(),
        observability=True,
        telemetry_window_s=eff.horizon_s / _TELEMETRY_WINDOWS,
        health_rules=list(eff.health_rules) or None,
    )
    for owner in eff.workload.owners():
        gae.add_user(owner, "scenario")

    submissions = build_submissions(eff.workload, eff.seed, eff.horizon_s)
    submitted: List[str] = []
    for sub in submissions:
        gae.sim.at(
            sub.time_s,
            lambda job=sub.job: gae.scheduler.submit_job(job),
            label="scenario.submit",
        )
        submitted.extend(task.task_id for task in sub.job.tasks)

    controller = wire_chaos(gae, eff.chaos, eff.horizon_s, eff.seed)
    gae.start()
    grid.run_until(eff.horizon_s)
    gae.stop()
    controller.stop()

    events = gae.observability.journal.events()
    db = gae.estimators.estimate_db
    estimates = {tid: db.lookup(tid) for tid in submitted if db.has(tid)}
    slos = score_slos(eff.slos, events, estimates, submitted, eff.horizon_s)
    completed = {
        e.task_id for e in events if e.type is EventType.COMPLETED
    } & set(submitted)

    entry: Dict[str, object] = {
        "name": spec.name,
        "seed": eff.seed,
        "horizon_s": eff.horizon_s,
        "quick": bool(quick),
        "tags": list(spec.tags),
        "workload": {
            "shape": eff.workload.shape,
            "owners": eff.workload.owners(),
            "jobs": len(submissions),
            "tasks": len(submitted),
            "tasks_completed": len(completed),
        },
        "chaos": controller.resolved,
        "fault_events": len(controller.fault_events),
        "phases": _phase_rows(eff, events),
        "telemetry": _telemetry_rows(eff, gae.observability.telemetry),
        "health": _health_rows(gae.observability.health),
        "slos": slos,
        "passed": all(v["passed"] for v in slos),
    }
    if on_complete is not None:
        on_complete(gae, entry)
    return entry


def run_campaign(
    specs: Sequence[ScenarioSpec],
    quick: bool = False,
    echo: Callable[[str], None] = lambda message: None,
) -> Dict[str, object]:
    """Run every scenario and assemble the full ``SCENARIOS.json`` report."""
    if not specs:
        raise ValueError("run_campaign needs at least one scenario")
    entries = []
    for spec in specs:
        echo(f"scenario {spec.name}: running (quick={quick})")
        entry = run_scenario(spec, quick=quick)
        verdict = "PASS" if entry["passed"] else "FAIL"
        echo(f"scenario {spec.name}: {verdict} ({len(entry['slos'])} SLOs)")
        entries.append(entry)
    return {
        "schema_version": SCENARIOS_SCHEMA_VERSION,
        "generated_by": "gae-repro scenario run",
        "quick": bool(quick),
        "python": platform.python_version(),
        "scenarios": entries,
        "passed": all(e["passed"] for e in entries),
    }


def write_scenarios_report(report: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write the report (stable key order, trailing newline)."""
    out = Path(path)
    out.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def check_scenarios_report(report: object, specs: Sequence[ScenarioSpec] = ()) -> None:
    """Require ``report`` to be what a re-run of the scenarios it names emits.

    Entries re-run at their ``seed`` and the report's ``quick``, from the
    spec of that name in ``specs`` or else the library.  Every value but
    ``python`` must match, type included; else :class:`ScenarioReportError`
    names the first scenario and key that differ.
    """
    scenarios = report.get("scenarios") if isinstance(report, dict) else None
    if not isinstance(scenarios, list) or not scenarios:
        raise ScenarioReportError("report must be an object with a non-empty 'scenarios' list")
    for i, entry in enumerate(scenarios):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ScenarioReportError(f"scenarios[{i}] has no string 'name'")
    given = {spec.name: spec for spec in specs}
    reruns = [_spec_for(entry, given) for entry in scenarios]
    fresh = json.loads(json.dumps(run_campaign(reruns, quick=report.get("quick") is True)))
    fresh["python"] = report.get("python", fresh["python"])
    pairs = [("", {**report, "scenarios": None}, {**fresh, "scenarios": None})]
    pairs += [(f"scenario {old['name']!r}: ", old, new)
              for old, new in zip(scenarios, fresh["scenarios"])]
    for prefix, old, new in pairs:
        old, new = dict(_leaves(old)), dict(_leaves(new))
        for path in [*new, *(path for path in old if path not in new)]:
            if old.get(path) != new.get(path):
                raise ScenarioReportError(
                    f"{prefix}{path}: the report has {old.get(path, 'nothing')}, "
                    f"a re-run gives {new.get(path, 'nothing')}"
                )


def _spec_for(entry: Dict[str, object], given: Dict[str, ScenarioSpec]) -> ScenarioSpec:
    """The spec an entry names, at the seed it records if that seed can run."""
    name = entry["name"]
    if name not in given and name not in scenario_names():
        raise ScenarioReportError(f"scenario {name!r}: unknown scenario; give its spec file")
    spec = given.get(name) or load_scenario(name)
    seed = entry.get("seed")
    if type(seed) is int and seed >= 0:
        spec = replace(spec, seed=seed)
    return spec


def _leaves(value: object, path: str = "") -> Iterator[Tuple[str, str]]:
    """``(path, JSON text)`` of every scalar and empty container in ``value``."""
    if isinstance(value, (dict, list)) and value:
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, f"{path}[{key!r}]")
    else:
        yield path, json.dumps(value)
