"""Engine runs, artifact schema validation, registry, and CLI wiring."""

import json

import pytest

from repro.cli import main
from repro.scenarios.engine import (
    ScenarioReportError,
    run_campaign,
    run_scenario,
    validate_scenarios_report,
    write_scenarios_report,
)
from repro.scenarios.registry import (
    default_scenario_dir,
    load_scenario,
    render_cookbook,
    scenario_names,
)
from repro.scenarios.spec import ScenarioError, ScenarioSpec

TINY_GRID = {
    "sites": [
        {"name": "siteA", "nodes": 2, "cpus_per_node": 2},
        {"name": "siteB", "nodes": 2, "cpus_per_node": 2},
    ],
    "links": [{"a": "siteA", "b": "siteB", "capacity_mbps": 622.0}],
    "flocking": [["siteA", "siteB"], ["siteB", "siteA"]],
}


def tiny_spec(**overrides):
    data = {
        "name": "tiny",
        "description": "two prime jobs on a two-site grid",
        "grid": TINY_GRID,
        "horizon_s": 1500.0,
        "workload": {"shape": "prime", "tasks": 2, "interval_s": 60.0},
        "slos": [
            {"metric": "completion_ratio", "op": ">=", "threshold": 1.0},
            {"metric": "tasks_failed_total", "op": "<=", "threshold": 0.0},
        ],
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


class TestRunScenario:
    def test_benign_run_single_baseline_phase(self):
        entry = run_scenario(tiny_spec())
        assert entry["passed"] is True
        assert entry["workload"]["tasks"] == 2
        assert entry["workload"]["tasks_completed"] == 2
        assert [p["name"] for p in entry["phases"]] == ["baseline"]
        assert entry["phases"][0]["events"]["completed"] == 2
        assert entry["fault_events"] == 0

    def test_chaos_run_has_three_contiguous_phases(self):
        spec = tiny_spec(
            name="tiny-outage",
            chaos=[{"kind": "outage", "site": "siteA",
                    "start_s": 300.0, "duration_s": 200.0}],
            slos=[{"metric": "completion_ratio", "op": ">=", "threshold": 1.0}],
        )
        entry = run_scenario(spec)
        names = [p["name"] for p in entry["phases"]]
        assert names == ["baseline", "chaos", "recovery"]
        bounds = [(p["start_s"], p["end_s"]) for p in entry["phases"]]
        assert bounds == [(0.0, 300.0), (300.0, 500.0), (500.0, 1500.0)]
        assert entry["fault_events"] == 2  # one failure + one repair
        assert entry["chaos"][0]["kind"] == "outage"

    def test_campaign_is_seed_deterministic(self):
        one = run_campaign([tiny_spec()])
        two = run_campaign([tiny_spec()])
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


class TestReportValidation:
    def test_round_trip_through_file(self, tmp_path):
        report = run_campaign([tiny_spec()])
        path = write_scenarios_report(report, tmp_path / "SCENARIOS.json")
        text = path.read_text()
        assert text.endswith("\n")
        validate_scenarios_report(json.loads(text))

    def test_rejects_wrong_schema_version(self):
        report = run_campaign([tiny_spec()])
        report["schema_version"] = 99
        with pytest.raises(ScenarioReportError, match="schema_version"):
            validate_scenarios_report(report)

    def test_rejects_gapped_phases(self):
        report = run_campaign([tiny_spec()])
        report["scenarios"][0]["phases"][0]["start_s"] = 5.0
        with pytest.raises(ScenarioReportError, match="previous phase"):
            validate_scenarios_report(report)

    def test_rejects_dishonest_verdict(self):
        report = run_campaign([tiny_spec()])
        report["scenarios"][0]["passed"] = False
        with pytest.raises(ScenarioReportError, match="conjunction"):
            validate_scenarios_report(report)

    def test_rejects_missing_top_level_key(self):
        report = run_campaign([tiny_spec()])
        del report["python"]
        with pytest.raises(ScenarioReportError, match="python"):
            validate_scenarios_report(report)


class TestRegistry:
    def test_library_has_required_coverage(self):
        names = scenario_names()
        assert len(names) >= 6
        kinds = set()
        for name in names:
            kinds.update(a.kind for a in load_scenario(name).chaos)
        assert {"outage", "flapping", "partition"} <= kinds

    def test_stem_must_match_name(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "not-tiny.json"
        path.write_text(json.dumps(spec.to_dict()))
        with pytest.raises(ScenarioError, match="disagree"):
            load_scenario("not-tiny", directory=tmp_path)

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            load_scenario("no-such-scenario")

    def test_render_cookbook_requires_markers(self):
        with pytest.raises(ValueError, match="marker"):
            render_cookbook("no markers here\n")


class TestCli:
    def test_run_quick_writes_artifact(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        out = tmp_path / "SCENARIOS.json"
        code = main(["scenario", "run", str(spec_path), "--quick",
                     "--out", str(out)])
        assert code == 0
        assert "campaign: PASS" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["quick"] is True
        assert report["scenarios"][0]["name"] == "tiny"

    def test_committed_artifact_is_what_the_code_emits(self, tmp_path):
        """``SCENARIOS.json`` at the repo root equals a re-run, not just its schema."""
        out = tmp_path / "SCENARIOS.json"
        assert main(["scenario", "run", "--out", str(out)]) == 0
        fresh = json.loads(out.read_text())
        committed = json.loads(
            (default_scenario_dir().parent / "SCENARIOS.json").read_text()
        )
        for report in (fresh, committed):
            del report["python"]
        fresh_entries, committed_entries = fresh.pop("scenarios"), committed.pop("scenarios")
        assert fresh == committed
        assert [e["name"] for e in fresh_entries] == [e["name"] for e in committed_entries]
        for new, old in zip(fresh_entries, committed_entries):
            assert new == old, new["name"]  # per entry, so a failure names the scenario

    def test_run_unknown_scenario_is_usage_error(self, capsys):
        code = main(["scenario", "run", "no-such-scenario", "--out", "-"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_list_and_validate_library(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "benign-baseline" in out
        assert main(["scenario", "validate"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") >= 6

    def test_validate_report_schema(self, tmp_path, capsys):
        report = run_campaign([tiny_spec()])
        path = write_scenarios_report(report, tmp_path / "SCENARIOS.json")
        assert main(["scenario", "validate", "--report", str(path)]) == 0
        assert "schema ok" in capsys.readouterr().out
        path.write_text("{}")
        assert main(["scenario", "validate", "--report", str(path)]) == 1
