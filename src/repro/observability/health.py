"""Declarative health rules evaluated continuously over telemetry windows.

De Sarkar et al.'s integrated performance-analysis framework layers
rule-driven online analysis over raw sensors; this module is that layer
for the GAE.  A :class:`HealthRule` declares *what healthy looks like*
over the :class:`~repro.observability.telemetry.TelemetryPipeline`
windows; the :class:`HealthEngine` evaluates every rule each time a
window closes (i.e. on simulation clock ticks), runs a small
ok → firing → resolved state machine per rule, and reports transitions
two ways:

- ``health-firing`` / ``health-resolved`` events in the
  :class:`~repro.events.journal.EventJournal` (rule name in
  ``task_id``), so scenario scoring and timelines see them;
- the live :meth:`HealthEngine.snapshot` behind the ``system.health``
  Clarens RPC, ``gae-repro health``, and the webui ``/health`` page.

Rule taxonomy (pinned against docs/ARCHITECTURE.md by
``tools/check_docs.py``):

- ``threshold`` — reduce a series over the last ``windows`` windows and
  compare against a bound (e.g. p95 queue depth >= 50);
- ``delta`` — compare the change between the first and last of the last
  ``windows`` windows (e.g. completed total stalls: delta <= 0);
- ``burn_rate`` — SLO error-budget burn: the bad/(bad+good) ratio over
  the last ``windows`` windows divided by ``budget``, firing when the
  budget is burning ``threshold`` times too fast.

Everything is derived from simulation time and deterministic series, so
two same-seed runs transition at identical instants (the scenario
artifact pins this bit-for-bit).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.declare import decode, encode
from repro.events.journal import EventJournal, EventType
from repro.observability.telemetry import REDUCERS

__all__ = [
    "HealthEngine",
    "HealthRule",
    "HealthRuleError",
    "RULE_KINDS",
    "default_health_rules",
]

#: Rule kinds the engine can evaluate (docs table is checked against this).
RULE_KINDS: Tuple[str, ...] = ("threshold", "delta", "burn_rate")

_OPS = ("<", "<=", ">", ">=")

_SEVERITIES = ("info", "warning", "critical")


class HealthRuleError(ValueError):
    """Raised for malformed health-rule declarations (path-qualified)."""


def _compare(value: float, op: str, threshold: float) -> bool:
    if op == "<":
        return value < threshold
    if op == "<=":
        return value <= threshold
    if op == ">":
        return value > threshold
    return value >= threshold


@dataclass(frozen=True)
class HealthRule:
    """One declarative health rule over telemetry window series."""

    name: str
    kind: str
    series: str = ""
    op: str = ">="
    threshold: float = 0.0
    reducer: str = "last"
    windows: int = 1
    for_windows: int = 1
    clear_windows: int = 1
    severity: str = "warning"
    # burn_rate only:
    good_series: str = ""
    bad_series: str = ""
    budget: float = 0.1

    def __post_init__(self) -> None:
        if not self.name:
            raise HealthRuleError("rule.name: required")
        if self.kind not in RULE_KINDS:
            raise HealthRuleError(
                f"rule.kind: unknown kind {self.kind!r} "
                f"(known: {', '.join(RULE_KINDS)})"
            )
        if self.op not in _OPS:
            raise HealthRuleError(f"rule.op: must be one of {', '.join(_OPS)}")
        if self.reducer not in REDUCERS:
            raise HealthRuleError(
                f"rule.reducer: unknown reducer {self.reducer!r} "
                f"(known: {', '.join(REDUCERS)})"
            )
        if self.severity not in _SEVERITIES:
            raise HealthRuleError(
                f"rule.severity: must be one of {', '.join(_SEVERITIES)}"
            )
        for key in ("windows", "for_windows", "clear_windows"):
            if getattr(self, key) < 1:
                raise HealthRuleError(f"rule.{key}: must be >= 1")
        if self.kind == "burn_rate":
            if not self.good_series or not self.bad_series:
                raise HealthRuleError("rule: burn_rate needs good_series and bad_series")
            if self.budget <= 0:
                raise HealthRuleError("rule.budget: must be positive")
        elif not self.series:
            raise HealthRuleError(f"rule.series: required for kind {self.kind!r}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any], path: str = "rule") -> "HealthRule":
        return decode(cls, data, path, HealthRuleError)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe dict (``from_dict`` round-trips exactly)."""
        return encode(self)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, telemetry: Any) -> Tuple[Optional[float], bool]:
        """``(observed value, breached?)`` against *telemetry* windows.

        A rule whose series has no samples yet observes ``None`` and is
        never breached — absence of data is not an alert.
        """
        if self.kind == "burn_rate":
            good = telemetry.value(self.good_series, "sum", self.windows)
            bad = telemetry.value(self.bad_series, "sum", self.windows)
            if bad is None:
                return None, False
            total = (good or 0.0) + bad
            if total <= 0:
                return None, False
            burn = (bad / total) / self.budget
            return burn, _compare(burn, self.op, self.threshold)
        reducer = "delta" if self.kind == "delta" else self.reducer
        value = telemetry.value(self.series, reducer, self.windows)
        if value is None:
            return None, False
        return value, _compare(value, self.op, self.threshold)


def default_health_rules() -> Tuple[HealthRule, ...]:
    """The built-in rule set every observable GAE starts with."""
    return (
        HealthRule(
            name="task-failures",
            kind="threshold",
            series="journal.failed.count",
            op=">=",
            threshold=1.0,
            severity="critical",
            clear_windows=2,
        ),
        HealthRule(
            name="throughput-collapse",
            kind="delta",
            series="journal.completed.count",
            op="<=",
            threshold=-3.0,
            windows=3,
            severity="info",
        ),
        HealthRule(
            name="failure-burn-rate",
            kind="burn_rate",
            good_series="journal.completed.count",
            bad_series="journal.failed.count",
            budget=0.1,
            op=">=",
            threshold=1.0,
            windows=6,
            severity="warning",
            clear_windows=3,
        ),
    )


class _RuleState:
    """Mutable evaluation state for one rule."""

    __slots__ = (
        "state", "since", "value", "breached_streak", "ok_streak",
        "transitions", "evaluations",
    )

    def __init__(self) -> None:
        self.state = "ok"
        self.since = 0.0
        self.value: Optional[float] = None
        self.breached_streak = 0
        self.ok_streak = 0
        self.transitions: deque = deque(maxlen=64)
        self.evaluations = 0

    def export_state(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "since": self.since,
            "value": self.value,
            "breached_streak": self.breached_streak,
            "ok_streak": self.ok_streak,
            "evaluations": self.evaluations,
            "transitions": [dict(t) for t in self.transitions],
        }

    @classmethod
    def from_state(cls, data: Dict[str, Any]) -> "_RuleState":
        out = cls()
        out.state = str(data["state"])
        out.since = float(data["since"])
        out.value = data["value"]
        out.breached_streak = int(data["breached_streak"])
        out.ok_streak = int(data["ok_streak"])
        out.evaluations = int(data.get("evaluations", 0))
        out.transitions = deque((dict(t) for t in data["transitions"]), maxlen=64)
        return out


class HealthEngine:
    """Evaluates a rule set against the telemetry windows on every tick,
    journalling each transition."""

    def __init__(
        self,
        telemetry: Any,
        journal: EventJournal,
        *,
        rules: Optional[Sequence[Union[HealthRule, Dict[str, Any]]]] = None,
    ) -> None:
        self.telemetry = telemetry
        self.journal = journal
        self.rules: Tuple[HealthRule, ...] = tuple(
            rule if isinstance(rule, HealthRule)
            else HealthRule.from_dict(rule, f"rules[{i}]")
            for i, rule in enumerate(
                default_health_rules() if rules is None else rules
            )
        )
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise HealthRuleError(f"duplicate rule names in {names}")
        self._states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        telemetry.attach_health(self)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, t_end: float) -> None:
        """One evaluation pass at window boundary *t_end* (sim seconds)."""
        for rule in self.rules:
            state = self._states[rule.name]
            value, breached = rule.evaluate(self.telemetry)
            state.value = value
            state.evaluations += 1
            if breached:
                state.breached_streak += 1
                state.ok_streak = 0
            else:
                state.ok_streak += 1
                state.breached_streak = 0
            if state.state == "ok" and state.breached_streak >= rule.for_windows:
                self._transition(rule, state, "firing", t_end)
            elif state.state == "firing" and state.ok_streak >= rule.clear_windows:
                self._transition(rule, state, "resolved", t_end)

    def _transition(
        self, rule: HealthRule, state: _RuleState, to: str, t_end: float
    ) -> None:
        state.state = "firing" if to == "firing" else "ok"
        state.since = t_end
        state.transitions.append(
            {"to": to, "time_s": t_end, "value": state.value}
        )
        self.journal.record(
            EventType.HEALTH_FIRING if to == "firing"
            else EventType.HEALTH_RESOLVED,
            rule.name,
            time=t_end,
            rule_kind=rule.kind,
            severity=rule.severity,
            value=state.value,
            threshold=rule.threshold,
        )

    # -- queries -------------------------------------------------------

    def firing(self) -> List[str]:
        return [
            rule.name for rule in self.rules
            if self._states[rule.name].state == "firing"
        ]

    def transitions(self) -> List[Dict[str, Any]]:
        """Every recorded transition, in (time, rule order) order."""
        out: List[Dict[str, Any]] = []
        for rule in self.rules:
            for t in self._states[rule.name].transitions:
                out.append({"rule": rule.name, **t})
        out.sort(key=lambda t: t["time_s"])
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe live state for ``system.health`` / CLI / webui."""
        return {
            "enabled": True,
            "window_s": self.telemetry.window_s,
            "windows_closed": self.telemetry.windows_closed,
            "firing": len(self.firing()),
            "rules": [
                {
                    **rule.to_dict(),
                    "state": self._states[rule.name].state,
                    "since_s": self._states[rule.name].since,
                    "value": self._states[rule.name].value,
                    "evaluations": self._states[rule.name].evaluations,
                    "transitions": [
                        dict(t) for t in self._states[rule.name].transitions
                    ],
                }
                for rule in self.rules
            ],
        }

    # -- persistence ---------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "states": {
                name: state.export_state()
                for name, state in sorted(self._states.items())
            },
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore rule definitions and per-rule state machines."""
        self.rules = tuple(
            HealthRule.from_dict(r, f"rules[{i}]")
            for i, r in enumerate(state["rules"])
        )
        self._states = {
            name: _RuleState.from_state(body)
            for name, body in state["states"].items()
        }
        for rule in self.rules:
            self._states.setdefault(rule.name, _RuleState())
