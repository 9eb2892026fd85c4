"""Scenario files: schema-validated declarations of adversity campaigns.

A scenario composes four declarative parts:

- ``grid`` — the testbed, reusing :class:`repro.config.GridConfig`;
- ``workload`` — a :class:`WorkloadShape` (diurnal portal traffic, flash
  crowd, DAG campaign, multi-VO contention, ... — see
  :mod:`repro.scenarios.workload`);
- ``chaos`` — a list of :class:`ChaosAction` windows (site outages,
  flapping, link degradation, partitions, network weather — see
  :mod:`repro.scenarios.chaos`);
- ``slos`` — :class:`SloSpec` assertions scored from the observability
  journal after the run (:mod:`repro.scenarios.slo`).

Every part is a frozen dataclass read and written by the one declaration
codec, :mod:`repro.declare`, from its own fields and annotations: unknown
keys and mistyped values are refused there, and each class's
``__post_init__`` holds its domain rules (unknown shapes/kinds/metrics,
out-of-range numbers, sites the grid does not declare).  Every refusal is
a :class:`ScenarioError` whose message starts with the offending path
from the document root, e.g. ``scenario.grid.sites[0].nodes``.
``ScenarioSpec.from_dict(spec.to_dict())`` is the identity — the
round-trip the scenario property test pins.

Doctest — load, round-trip, and apply quick overrides::

    >>> spec = ScenarioSpec.from_dict({
    ...     "name": "demo",
    ...     "description": "one prime task, no chaos",
    ...     "grid": {"sites": [{"name": "siteA"}]},
    ...     "workload": {"shape": "prime", "tasks": 2},
    ...     "slos": [{"metric": "completion_ratio", "op": ">=", "threshold": 1.0}],
    ...     "quick": {"horizon_s": 500.0, "workload": {"tasks": 1}},
    ... })
    >>> spec.workload.tasks, spec.horizon_s
    (2, 2000.0)
    >>> ScenarioSpec.from_dict(spec.to_dict()) == spec
    True
    >>> quick = spec.effective(quick=True)
    >>> quick.workload.tasks, quick.horizon_s
    (1, 500.0)
    >>> ScenarioSpec.from_dict({"name": "bad", "description": "x",
    ...                         "grid": {"sites": [{"name": "a"}]},
    ...                         "workload": {"shape": "tsunami"}})  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.scenarios.spec.ScenarioError: scenario.workload.shape: unknown shape 'tsunami' (known: ...)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.config import GridConfig
from repro.core.steering.optimizer import SteeringPolicy
from repro.declare import decode, encode
from repro.observability.health import HealthRule

__all__ = [
    "CHAOS_KINDS",
    "ChaosAction",
    "SLO_METRICS",
    "ScenarioError",
    "ScenarioSpec",
    "SloSpec",
    "VoShape",
    "WORKLOAD_SHAPES",
    "WorkloadShape",
]

#: Workload shapes :mod:`repro.scenarios.workload` can build.
WORKLOAD_SHAPES: Tuple[str, ...] = (
    "prime",
    "downey",
    "bag",
    "dag_campaign",
    "diurnal",
    "flash_crowd",
    "multi_vo",
)

#: Chaos kinds :mod:`repro.scenarios.chaos` can compile onto the clock.
CHAOS_KINDS: Tuple[str, ...] = (
    "outage",
    "flapping",
    "degrade",
    "partition",
    "weather",
)


class ScenarioError(ValueError):
    """Raised for malformed scenario files (path-qualified message)."""


@dataclass(frozen=True)
class VoShape:
    """One virtual organisation in a ``multi_vo`` workload."""

    owner: str
    tasks: int = 4
    priority: int = 0
    mean_seconds: float = 300.0

    def __post_init__(self) -> None:
        if not self.owner:
            raise ScenarioError("vo.owner: required")
        if self.tasks < 1:
            raise ScenarioError(f"vo.tasks: must be >= 1, got {self.tasks}")
        if self.mean_seconds <= 0:
            raise ScenarioError("vo.mean_seconds: must be positive")


@dataclass(frozen=True)
class WorkloadShape:
    """A declarative workload: which shape, how big, how spread in time.

    Shape-specific fields (``burst_*`` for ``flash_crowd``, ``period_s``
    for ``diurnal``, ``analysis_tasks`` for ``dag_campaign``, ``vos`` for
    ``multi_vo``) are validated per shape; the rest are common knobs.
    """

    shape: str = "prime"
    owner: str = "physicist"
    tasks: int = 4
    mean_seconds: float = 300.0
    interval_s: float = 60.0
    period_s: float = 1200.0
    burst_at_s: float = 600.0
    burst_tasks: int = 8
    analysis_tasks: int = 3
    vos: Tuple[VoShape, ...] = ()

    def __post_init__(self) -> None:
        if self.shape not in WORKLOAD_SHAPES:
            raise ScenarioError(
                f"workload.shape: unknown shape {self.shape!r} "
                f"(known: {', '.join(WORKLOAD_SHAPES)})"
            )
        if self.tasks < 1:
            raise ScenarioError(f"workload.tasks: must be >= 1, got {self.tasks}")
        if self.mean_seconds <= 0:
            raise ScenarioError("workload.mean_seconds: must be positive")
        if self.interval_s < 0:
            raise ScenarioError("workload.interval_s: must be non-negative")
        if self.period_s <= 0:
            raise ScenarioError("workload.period_s: must be positive")
        if self.shape == "flash_crowd":
            if self.burst_tasks < 1:
                raise ScenarioError("workload.burst_tasks: must be >= 1")
            if self.burst_at_s < 0:
                raise ScenarioError("workload.burst_at_s: must be non-negative")
        if self.shape == "dag_campaign" and self.analysis_tasks < 1:
            raise ScenarioError("workload.analysis_tasks: must be >= 1")
        if self.shape == "multi_vo":
            if not self.vos:
                raise ScenarioError("workload.vos: multi_vo needs at least one VO")
        elif self.vos:
            raise ScenarioError("workload.vos: only valid for shape 'multi_vo'")

    @classmethod
    def from_dict(cls, data: Dict, path: str = "workload") -> "WorkloadShape":
        return decode(cls, data, path, ScenarioError)

    def owners(self) -> List[str]:
        """Every distinct job owner this workload will submit as."""
        if self.shape == "multi_vo":
            return sorted({vo.owner for vo in self.vos})
        return [self.owner]


@dataclass(frozen=True)
class ChaosAction:
    """One adversity window.  Field relevance depends on ``kind``:

    - ``outage``: ``site``, ``start_s``, ``duration_s``;
    - ``flapping``: ``site``, ``start_s``, ``end_s``, ``period_s``, ``duty``;
    - ``degrade``: ``link`` (two site names), ``start_s``, ``end_s``,
      ``utilization``;
    - ``partition``: ``sites`` (one side of the cut), ``start_s``,
      ``duration_s``;
    - ``weather``: ``start_s``, ``end_s``, ``period_s``,
      ``mean_utilization``, ``volatility``.

    An ``end_s`` of ``0`` means "until the scenario horizon" for the
    kinds that take one.
    """

    kind: str
    site: str = ""
    sites: Tuple[str, ...] = ()
    link: Tuple[str, str] = ("", "")
    start_s: float = 0.0
    end_s: float = 0.0
    duration_s: float = 0.0
    period_s: float = 300.0
    duty: float = 0.5
    utilization: float = 0.9
    mean_utilization: float = 0.5
    volatility: float = 0.15

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ScenarioError(
                f"chaos.kind: unknown kind {self.kind!r} (known: {', '.join(CHAOS_KINDS)})"
            )
        if self.start_s < 0:
            raise ScenarioError("chaos.start_s: must be non-negative")
        if self.kind in ("outage", "flapping") and not self.site:
            raise ScenarioError(f"chaos.site: required for kind {self.kind!r}")
        if self.kind == "outage" and self.duration_s <= 0:
            raise ScenarioError("chaos.duration_s: outage needs a positive duration")
        if self.kind in ("flapping", "weather") and self.period_s <= 0:
            raise ScenarioError("chaos.period_s: must be positive")
        if self.kind == "flapping" and not 0.0 < self.duty <= 1.0:
            raise ScenarioError(f"chaos.duty: must be in (0, 1], got {self.duty}")
        if self.kind == "degrade":
            if not self.link[0] or not self.link[1]:
                raise ScenarioError("chaos.link: required for kind 'degrade'")
            if not 0.0 <= self.utilization < 1.0:
                raise ScenarioError("chaos.utilization: must be in [0, 1)")
        if self.kind == "partition":
            if not self.sites:
                raise ScenarioError("chaos.sites: partition needs one side of the cut")
            if self.duration_s <= 0:
                raise ScenarioError("chaos.duration_s: partition needs a positive duration")
        if self.kind == "weather":
            if not 0.0 <= self.mean_utilization < 1.0:
                raise ScenarioError("chaos.mean_utilization: must be in [0, 1)")
            if self.volatility < 0:
                raise ScenarioError("chaos.volatility: must be non-negative")
        if self.kind in ("flapping", "degrade", "weather") and (
            self.end_s and self.end_s <= self.start_s
        ):
            raise ScenarioError("chaos.end_s: must be after start_s")

    @classmethod
    def from_dict(cls, data: Dict, path: str = "chaos") -> "ChaosAction":
        return decode(cls, data, path, ScenarioError)


#: metric name -> (one-line meaning, takes a percentile?)
SLO_METRICS: Dict[str, Tuple[str, bool]] = {
    "completion_ratio": ("completed tasks / submitted tasks", False),
    "makespan_s": ("simulation time of the last completion (horizon if none)", False),
    "queue_wait_s": ("dispatch-to-start gap per started task", True),
    "recovery_time_s": (
        "failure-to-recovery gap per failure (censored at the horizon)", True,
    ),
    "steering_reaction_s": (
        "adversity-onset-to-corrective-verb gap (moves and recoveries)", True,
    ),
    "estimate_error_pct": (
        "mean |estimate - actual| / actual * 100 over completed tasks", False,
    ),
    "tasks_failed_total": ("count of failure events", False),
    "moves_total": ("count of steering move verbs", False),
}

_SLO_OPS = ("<=", ">=")


@dataclass(frozen=True)
class SloSpec:
    """One assertion: ``metric [pN] <= / >= threshold``, scored by
    :func:`repro.scenarios.slo.score_slos`."""

    metric: str
    op: str
    threshold: float
    percentile: float = 95.0

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            raise ScenarioError(
                f"slo.metric: unknown metric {self.metric!r} "
                f"(known: {', '.join(sorted(SLO_METRICS))})"
            )
        if self.op not in _SLO_OPS:
            raise ScenarioError(f"slo.op: must be one of {_SLO_OPS}, got {self.op!r}")
        if not 0.0 < self.percentile <= 100.0:
            raise ScenarioError(
                f"slo.percentile: must be in (0, 100], got {self.percentile}"
            )

    @classmethod
    def from_dict(cls, data: Dict, path: str = "slo") -> "SloSpec":
        return decode(cls, data, path, ScenarioError)

    def label(self) -> str:
        """Human-readable assertion, e.g. ``queue_wait_s p95 <= 600``."""
        pct = f" p{self.percentile:g}" if SLO_METRICS[self.metric][1] else ""
        return f"{self.metric}{pct} {self.op} {self.threshold:g}"


#: Keys ``quick`` overrides may set at the top level.
_QUICK_KEYS = ("horizon_s", "workload", "chaos", "slos")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete named scenario: grid + workload + chaos + SLOs.

    ``health_rules`` optionally overrides the GAE's default health-rule
    set (:func:`repro.observability.health.default_health_rules`) for
    the run — the scenario artifact then pins those rules' transitions.
    ``policy`` holds :class:`SteeringPolicy` overrides as written; they
    are decoded against its fields by :meth:`steering_policy`.
    """

    name: str
    description: str
    grid: GridConfig
    workload: WorkloadShape = field(default_factory=WorkloadShape)
    chaos: Tuple[ChaosAction, ...] = ()
    slos: Tuple[SloSpec, ...] = ()
    health_rules: Tuple[HealthRule, ...] = ()
    policy: Dict[str, object] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    seed: int = 2005
    horizon_s: float = 2000.0
    quick: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario.name: required")
        if not self.description:
            raise ScenarioError("scenario.description: required (the cookbook is built from it)")
        if self.horizon_s <= 0:
            raise ScenarioError("scenario.horizon_s: must be positive")
        unknown_quick = set(self.quick) - set(_QUICK_KEYS)
        if unknown_quick:
            raise ScenarioError(
                f"scenario.quick: unknown keys {sorted(unknown_quick)} "
                f"(allowed: {', '.join(_QUICK_KEYS)})"
            )
        self._check_sites()
        if self.quick:
            self.effective(quick=True)  # fail at load time, not run time

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioSpec":
        return decode(cls, data, "scenario", ScenarioError)

    def _check_sites(self) -> None:
        known = {site.name for site in self.grid.sites}
        # The declared links are exactly the network's: a degrade needs
        # one of them, and a partition must cut at least one.
        linked = [{link.a, link.b} for link in self.grid.links]
        for i, action in enumerate(self.chaos):
            for site in ((action.site,) if action.site else ()) + action.sites:
                if site not in known:
                    raise ScenarioError(
                        f"scenario.chaos[{i}].{'site' if site == action.site else 'sites'}: "
                        f"unknown site {site!r}"
                    )
            if action.kind == "degrade":
                for end in action.link:
                    if end not in known:
                        raise ScenarioError(
                            f"scenario.chaos[{i}].link: unknown site {end!r}"
                        )
                if set(action.link) not in linked:
                    raise ScenarioError(
                        f"scenario.chaos[{i}].link: no declared link joins "
                        f"{action.link[0]!r} and {action.link[1]!r}"
                    )
            if action.kind == "partition" and not any(
                (link.a in action.sites) != (link.b in action.sites)
                for link in self.grid.links
            ):
                raise ScenarioError(
                    f"scenario.chaos[{i}].sites: partition {sorted(action.sites)} "
                    "cuts no declared link"
                )

    @classmethod
    def from_json(cls, text_or_path: Union[str, Path]) -> "ScenarioSpec":
        """Parse a scenario from JSON text or a JSON file path."""
        raw = str(text_or_path)
        try:
            is_file = "\n" not in raw and len(raw) < 1024 and Path(raw).exists()
        except OSError:
            is_file = False
        if is_file:
            raw = Path(raw).read_text(encoding="utf-8")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> Dict:
        """The canonical, JSON-serialisable dict (round-trips exactly)."""
        return encode(self)

    def effective(self, quick: bool = False) -> "ScenarioSpec":
        """This spec, with its ``quick`` overrides applied when asked.

        ``quick.horizon_s`` replaces the horizon, ``quick.workload`` is
        merged field-by-field into the workload, and ``quick.chaos`` /
        ``quick.slos`` (when present) replace those lists wholesale —
        CI-sized chaos needs retimed windows and retuned thresholds, not
        scaled ones.
        """
        if not quick or not self.quick:
            return self
        data = self.to_dict()
        overrides = dict(self.quick)
        workload = overrides.pop("workload", None)
        if workload is not None:
            if not isinstance(workload, dict):
                raise ScenarioError("scenario.quick.workload: expected an object")
            data["workload"] = {**data["workload"], **workload}
        for key in ("chaos", "slos", "horizon_s"):
            if key in overrides:
                data[key] = overrides.pop(key)
        data["quick"] = {}
        try:
            return ScenarioSpec.from_dict(data)
        except ScenarioError as exc:
            # The main spec passed, so a refusal under an overridden key
            # (no field name prefixes another) is the override's.
            message = str(exc)
            if message.startswith(tuple(f"scenario.{key}" for key in self.quick)):
                raise ScenarioError(message.replace("scenario.", "scenario.quick.", 1)) from None
            raise

    def steering_policy(self) -> SteeringPolicy:
        """The SteeringPolicy with this scenario's overrides applied."""
        return decode(SteeringPolicy, self.policy, "scenario.policy", ScenarioError)


def first_chaos_start(chaos: Sequence[ChaosAction], horizon_s: float) -> float:
    """Earliest chaos onset, or *horizon_s* when the scenario is benign."""
    starts = [action.start_s for action in chaos]
    return min(starts) if starts else horizon_s


def last_chaos_end(chaos: Sequence[ChaosAction], horizon_s: float) -> float:
    """Latest chaos end (resolving open windows to the horizon)."""
    ends = []
    for action in chaos:
        if action.kind in ("outage", "partition"):
            ends.append(action.start_s + action.duration_s)
        else:
            ends.append(action.end_s if action.end_s > 0 else horizon_s)
    return min(max(ends), horizon_s) if ends else horizon_s
