"""Unit tests for the declarative health-rule engine."""

import pytest

from repro.gridsim.clock import Simulator
from repro.observability.health import (
    RULE_KINDS,
    HealthEngine,
    HealthRule,
    HealthRuleError,
    default_health_rules,
)
from repro.events.journal import EventJournal, EventType
from repro.observability.metrics import MetricsRegistry
from repro.observability.telemetry import TelemetryPipeline


def make_stack(rules=None, window_s=10.0):
    sim = Simulator()
    journal = EventJournal(lambda: sim.now)
    pipe = TelemetryPipeline(sim, MetricsRegistry(), window_s=window_s)
    journal.sink = pipe.count
    engine = HealthEngine(pipe, journal, rules=rules)
    pipe.start()
    return sim, journal, pipe, engine


def fail_rule(**overrides):
    base = dict(
        name="fails",
        kind="threshold",
        series="journal.failed.count",
        op=">=",
        threshold=1.0,
    )
    base.update(overrides)
    return HealthRule(**base)


class TestRuleValidation:
    def test_unknown_kind(self):
        with pytest.raises(HealthRuleError, match="unknown kind"):
            HealthRule(name="x", kind="anomaly", series="s")

    def test_threshold_needs_series(self):
        with pytest.raises(HealthRuleError, match="series: required"):
            HealthRule(name="x", kind="threshold")

    def test_burn_rate_needs_both_series(self):
        with pytest.raises(HealthRuleError, match="good_series and bad_series"):
            HealthRule(name="x", kind="burn_rate", good_series="g")

    def test_bad_op_reducer_severity(self):
        with pytest.raises(HealthRuleError, match="op"):
            fail_rule(op="==")
        with pytest.raises(HealthRuleError, match="reducer"):
            fail_rule(reducer="median")
        with pytest.raises(HealthRuleError, match="severity"):
            fail_rule(severity="fatal")

    def test_from_dict_round_trip(self):
        for rule in default_health_rules():
            assert HealthRule.from_dict(rule.to_dict()) == rule

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(HealthRuleError, match="unknown keys"):
            HealthRule.from_dict({"name": "x", "kind": "threshold",
                                  "series": "s", "metric": "nope"})

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(HealthRuleError, match="duplicate"):
            make_stack(rules=[fail_rule(), fail_rule()])

    def test_rule_kinds_pinned(self):
        assert RULE_KINDS == ("threshold", "delta", "burn_rate")


class TestStateMachine:
    def test_threshold_fires_and_resolves(self):
        sim, journal, pipe, engine = make_stack(
            rules=[fail_rule(clear_windows=2)]
        )
        sim.at(5.0, lambda: journal.record(EventType.FAILED, "t1"))
        sim.run_until(10.0)
        assert engine.firing() == ["fails"]
        sim.run_until(20.0)  # one clean window: still firing
        assert engine.firing() == ["fails"]
        sim.run_until(30.0)  # second clean window clears it
        assert engine.firing() == []
        assert [t["to"] for t in engine.transitions()] == ["firing", "resolved"]

    def test_for_windows_debounces(self):
        sim, journal, pipe, engine = make_stack(
            rules=[fail_rule(for_windows=2)]
        )
        sim.at(5.0, lambda: journal.record(EventType.FAILED, "t1"))
        sim.run_until(10.0)
        assert engine.firing() == []  # one breach is not enough
        sim.at(15.0, lambda: journal.record(EventType.FAILED, "t2"))
        sim.run_until(20.0)
        assert engine.firing() == ["fails"]

    def test_no_data_never_fires(self):
        sim, _, _, engine = make_stack(rules=[fail_rule()])
        sim.run_until(50.0)
        assert engine.firing() == []
        snap = engine.snapshot()
        assert snap["rules"][0]["value"] is None
        assert snap["rules"][0]["evaluations"] == 5

    def test_delta_rule(self):
        rule = HealthRule(
            name="stall", kind="delta", series="journal.completed.count",
            op="<=", threshold=-2.0, windows=2,
        )
        sim, journal, pipe, engine = make_stack(rules=[rule])

        def complete(n):
            for i in range(n):
                journal.record(EventType.COMPLETED, f"t{i}")

        sim.at(5.0, lambda: complete(3))
        sim.run_until(10.0)
        assert engine.firing() == []
        sim.run_until(20.0)  # 3 -> 0 across the last 2 windows: fires
        assert engine.firing() == ["stall"]

    def test_burn_rate_math(self):
        rule = HealthRule(
            name="burn", kind="burn_rate",
            good_series="journal.completed.count",
            bad_series="journal.failed.count",
            budget=0.25, op=">=", threshold=1.0, windows=2,
        )
        sim, journal, pipe, engine = make_stack(rules=[rule])
        sim.at(5.0, lambda: journal.record(EventType.FAILED, "t1"))
        sim.at(6.0, lambda: journal.record(EventType.COMPLETED, "t2"))
        sim.at(7.0, lambda: journal.record(EventType.COMPLETED, "t3"))
        sim.at(8.0, lambda: journal.record(EventType.COMPLETED, "t4"))
        sim.run_until(10.0)
        # bad/(good+bad) = 1/4; burn = 0.25 / 0.25 = 1.0 >= 1.0: fires.
        snap = engine.snapshot()
        assert snap["rules"][0]["value"] == pytest.approx(1.0)
        assert engine.firing() == ["burn"]


class TestSideEffects:
    def test_journal_events_on_transitions(self):
        sim, journal, pipe, engine = make_stack(rules=[fail_rule()])
        sim.at(5.0, lambda: journal.record(EventType.FAILED, "t1"))
        sim.run_until(20.0)
        firing = journal.events(type=EventType.HEALTH_FIRING)
        resolved = journal.events(type=EventType.HEALTH_RESOLVED)
        assert [(e.task_id, e.time) for e in firing] == [("fails", 10.0)]
        assert [(e.task_id, e.time) for e in resolved] == [("fails", 20.0)]
        assert firing[0].attributes["severity"] == "warning"
        assert firing[0].attributes["rule_kind"] == "threshold"

    def test_monalisa_published_each_window(self):
        published = []

        class StubMonalisa:
            def publish(self, farm, series, t, value):
                published.append((farm, series, t, value))

        sim, journal, pipe, engine = make_stack(rules=[fail_rule()])
        engine.attach_monalisa(StubMonalisa())
        sim.at(5.0, lambda: journal.record(EventType.FAILED, "t1"))
        sim.run_until(20.0)
        assert published == [
            ("health", "rule.fails", 10.0, 1.0),
            ("health", "rule.fails", 20.0, 0.0),
        ]

    def test_snapshot_shape(self):
        sim, _, _, engine = make_stack()
        sim.run_until(10.0)
        snap = engine.snapshot()
        assert snap["enabled"] is True
        assert snap["windows_closed"] == 1
        assert len(snap["rules"]) == len(default_health_rules())
        for rule in snap["rules"]:
            for key in ("name", "kind", "severity", "state", "value",
                        "evaluations", "transitions"):
                assert key in rule


class TestPersistence:
    def test_export_import_round_trip(self):
        sim, journal, pipe, engine = make_stack(
            rules=[fail_rule(clear_windows=3)]
        )
        sim.at(5.0, lambda: journal.record(EventType.FAILED, "t1"))
        sim.run_until(20.0)  # firing, one clean window into the clear streak
        state = engine.export_state()

        sim2, journal2, pipe2, engine2 = make_stack(rules=[fail_rule()])
        engine2.import_state(state)
        assert engine2.rules == (fail_rule(clear_windows=3),)
        assert engine2.firing() == ["fails"]
        assert engine2.transitions() == engine.transitions()
        snap = engine2.snapshot()
        assert snap["rules"][0]["evaluations"] == 2
