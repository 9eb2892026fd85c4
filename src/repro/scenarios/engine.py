"""Run scenarios end to end and write the ``SCENARIOS.json`` artifact.

:func:`run_scenario` builds the declared grid, wires the full GAE with
observability, schedules the workload's submissions and the chaos windows
on the simulation clock, runs to the horizon, and scores every SLO from
the journal.  :func:`run_campaign` does that for a list of scenarios and
assembles the schema-validated trajectory artifact.

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
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import grid_from_config
from repro.gridsim.job import reset_id_counters
from repro.events.journal import EventType, JournalEvent
from repro.scenarios.chaos import wire_chaos
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
    "run_campaign",
    "run_scenario",
    "validate_scenarios_file",
    "validate_scenarios_report",
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
    """Raised when a ``SCENARIOS.json`` report violates its schema."""


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
    grid = grid_from_config(eff.grid, seed=eff.seed)
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
    report = {
        "schema_version": SCENARIOS_SCHEMA_VERSION,
        "generated_by": "gae-repro scenario run",
        "quick": bool(quick),
        "python": platform.python_version(),
        "scenarios": entries,
        "passed": all(e["passed"] for e in entries),
    }
    validate_scenarios_report(report)
    return report


def write_scenarios_report(report: Dict[str, object], path: Union[str, Path]) -> Path:
    """Validate and write the report (stable key order, trailing newline)."""
    validate_scenarios_report(report)
    out = Path(path)
    out.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


# ----------------------------------------------------------------------
# report validation
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioReportError(message)


def validate_scenarios_report(report: Dict[str, object]) -> None:
    """Validate a ``SCENARIOS.json`` report against the v2 schema."""
    _require(isinstance(report, dict), "report must be a JSON object")
    for key, kind in (
        ("schema_version", int), ("generated_by", str), ("quick", bool),
        ("python", str), ("scenarios", list), ("passed", bool),
    ):
        _require(key in report, f"missing top-level key {key!r}")
        _require(isinstance(report[key], kind),
                 f"top-level {key!r} must be {kind.__name__}")
    _require(report["schema_version"] == SCENARIOS_SCHEMA_VERSION,
             f"schema_version must be {SCENARIOS_SCHEMA_VERSION}")
    scenarios = report["scenarios"]
    _require(len(scenarios) >= 1, "report must contain at least one scenario")
    for i, entry in enumerate(scenarios):
        _validate_entry(entry, f"scenarios[{i}]")
    _require(
        report["passed"] == all(e["passed"] for e in scenarios),
        "top-level passed must equal the conjunction of scenario verdicts",
    )


def _validate_entry(entry: object, path: str) -> None:
    _require(isinstance(entry, dict), f"{path} must be an object")
    for key, kind in (
        ("name", str), ("seed", int), ("horizon_s", (int, float)),
        ("quick", bool), ("tags", list), ("workload", dict), ("chaos", list),
        ("fault_events", int), ("phases", list), ("telemetry", dict),
        ("health", dict), ("slos", list), ("passed", bool),
    ):
        _require(key in entry, f"{path} missing key {key!r}")
        _require(isinstance(entry[key], kind), f"{path}.{key} has the wrong type")
    _require(entry["name"] != "", f"{path}.name must be non-empty")
    _require(entry["horizon_s"] > 0, f"{path}.horizon_s must be positive")
    workload = entry["workload"]
    for key in ("shape", "owners", "jobs", "tasks", "tasks_completed"):
        _require(key in workload, f"{path}.workload missing {key!r}")
    _require(workload["tasks"] >= 1, f"{path}.workload.tasks must be >= 1")
    _require(
        0 <= workload["tasks_completed"] <= workload["tasks"],
        f"{path}.workload.tasks_completed out of range",
    )
    phases = entry["phases"]
    _require(len(phases) >= 1, f"{path}.phases must be non-empty")
    previous_end = 0.0
    for j, phase in enumerate(phases):
        ppath = f"{path}.phases[{j}]"
        _require(isinstance(phase, dict), f"{ppath} must be an object")
        for key in ("name", "start_s", "end_s", "events"):
            _require(key in phase, f"{ppath} missing {key!r}")
        _require(phase["start_s"] == previous_end,
                 f"{ppath} must start where the previous phase ended")
        _require(phase["end_s"] > phase["start_s"],
                 f"{ppath} must have a positive span")
        previous_end = phase["end_s"]
        events = phase["events"]
        for event_type in _PHASE_EVENT_TYPES:
            _require(
                isinstance(events.get(event_type.value), int),
                f"{ppath}.events missing count for {event_type.value!r}",
            )
    _require(previous_end == entry["horizon_s"],
             f"{path}.phases must cover exactly [0, horizon_s]")
    _validate_telemetry(entry["telemetry"], [p["name"] for p in phases],
                        f"{path}.telemetry")
    _validate_health(entry["health"], f"{path}.health")
    slos = entry["slos"]
    for j, verdict in enumerate(slos):
        vpath = f"{path}.slos[{j}]"
        _require(isinstance(verdict, dict), f"{vpath} must be an object")
        for key, kind in (
            ("slo", str), ("metric", str), ("op", str),
            ("threshold", (int, float)), ("value", (int, float)),
            ("samples", int), ("passed", bool),
        ):
            _require(key in verdict, f"{vpath} missing {key!r}")
            _require(isinstance(verdict[key], kind), f"{vpath}.{key} has the wrong type")
        _require(verdict["op"] in ("<=", ">="), f"{vpath}.op must be <= or >=")
    _require(
        entry["passed"] == all(v["passed"] for v in slos),
        f"{path}.passed must equal the conjunction of its SLO verdicts",
    )


def _validate_telemetry(
    block: object, phase_names: List[object], path: str
) -> None:
    _require(isinstance(block, dict), f"{path} must be an object")
    for key in ("window_s", "windows_closed", "phases"):
        _require(key in block, f"{path} missing key {key!r}")
    _require(
        isinstance(block["window_s"], (int, float))
        and not isinstance(block["window_s"], bool)
        and block["window_s"] > 0,
        f"{path}.window_s must be a positive number",
    )
    _require(
        isinstance(block["windows_closed"], int)
        and not isinstance(block["windows_closed"], bool)
        and block["windows_closed"] >= 0,
        f"{path}.windows_closed must be a non-negative integer",
    )
    telemetry_phases = block["phases"]
    _require(isinstance(telemetry_phases, list), f"{path}.phases must be a list")
    _require(
        [p.get("name") if isinstance(p, dict) else None for p in telemetry_phases]
        == phase_names,
        f"{path}.phases must mirror the entry's phase names, in order",
    )
    for j, phase in enumerate(telemetry_phases):
        ppath = f"{path}.phases[{j}]"
        series = phase.get("series")
        _require(isinstance(series, dict), f"{ppath}.series must be an object")
        for name, samples in series.items():
            spath = f"{ppath}.series[{name!r}]"
            _require(
                isinstance(name, str) and name.startswith("journal."),
                f"{spath}: only journal-derived series belong in the artifact",
            )
            _require(
                isinstance(samples, list) and len(samples) >= 1,
                f"{spath} must be a non-empty list",
            )
            previous = None
            for sample in samples:
                _require(
                    isinstance(sample, list) and len(sample) == 2
                    and all(
                        isinstance(x, (int, float)) and not isinstance(x, bool)
                        for x in sample
                    ),
                    f"{spath} samples must be [time_s, value] pairs",
                )
                _require(
                    previous is None or sample[0] > previous,
                    f"{spath} sample times must be strictly increasing",
                )
                previous = sample[0]


def _validate_health(block: object, path: str) -> None:
    _require(isinstance(block, dict), f"{path} must be an object")
    for key in ("rules", "transitions"):
        _require(key in block, f"{path} missing key {key!r}")
        _require(isinstance(block[key], list), f"{path}.{key} must be a list")
    names = set()
    for j, rule in enumerate(block["rules"]):
        rpath = f"{path}.rules[{j}]"
        _require(isinstance(rule, dict), f"{rpath} must be an object")
        for key in ("name", "kind", "severity", "state"):
            _require(isinstance(rule.get(key), str), f"{rpath}.{key} must be a string")
        _require(rule["state"] in ("ok", "firing"),
                 f"{rpath}.state must be 'ok' or 'firing'")
        names.add(rule["name"])
    previous_time = None
    for j, transition in enumerate(block["transitions"]):
        tpath = f"{path}.transitions[{j}]"
        _require(isinstance(transition, dict), f"{tpath} must be an object")
        _require(transition.get("rule") in names,
                 f"{tpath}.rule must name a declared rule")
        _require(transition.get("to") in ("firing", "resolved"),
                 f"{tpath}.to must be 'firing' or 'resolved'")
        time_s = transition.get("time_s")
        _require(
            isinstance(time_s, (int, float)) and not isinstance(time_s, bool),
            f"{tpath}.time_s must be a number",
        )
        _require(previous_time is None or time_s >= previous_time,
                 f"{tpath}.time_s must be non-decreasing")
        previous_time = time_s


def validate_scenarios_file(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate a ``SCENARIOS.json`` file; returns the report."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioReportError(f"cannot read report {path}: {exc}") from exc
    validate_scenarios_report(report)
    return report
