"""Engine runs, the artifact check by re-run, registry, and CLI wiring."""

import copy
import json

import pytest

from repro.cli import main
from repro.scenarios.engine import (
    ScenarioReportError,
    check_scenarios_report,
    run_campaign,
    run_scenario,
    write_scenarios_report,
)
from repro.scenarios.registry import (
    default_scenario_dir,
    load_all,
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


def assert_report_invariants(report):
    """What the engine must keep true of every report it emits: phases tile
    ``[0, horizon_s]``, each verdict is the conjunction of the ones below it,
    telemetry sample times strictly increase, and health transitions name a
    declared rule in time order."""
    for entry in report["scenarios"]:
        name, phases = entry["name"], entry["phases"]
        assert phases[0]["start_s"] == 0.0, name
        for before, after in zip(phases, phases[1:]):
            assert before["end_s"] == after["start_s"], name
        assert all(p["end_s"] > p["start_s"] for p in phases), name
        assert phases[-1]["end_s"] == entry["horizon_s"], name
        assert entry["passed"] == all(v["passed"] for v in entry["slos"]), name
        telemetry = entry["telemetry"]["phases"]
        assert [p["name"] for p in telemetry] == [p["name"] for p in phases], name
        for phase in telemetry:
            for series, samples in phase["series"].items():
                assert series.startswith("journal.") and samples, (name, series)
                times = [t for t, _ in samples]
                assert times == sorted(set(times)), (name, series)
        rules = {rule["name"] for rule in entry["health"]["rules"]}
        transitions = entry["health"]["transitions"]
        assert {t["rule"] for t in transitions} <= rules, name
        times = [t["time_s"] for t in transitions]
        assert times == sorted(times), name
    assert report["passed"] == all(e["passed"] for e in report["scenarios"])


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

    @pytest.mark.parametrize("seed", [1, 17, 2005])
    def test_report_invariants_hold_across_seeds(self, seed):
        spec = tiny_spec(
            name="tiny-outage", seed=seed,
            chaos=[{"kind": "outage", "site": "siteA",
                    "start_s": 300.0, "duration_s": 200.0}],
        )
        report = run_campaign([spec])
        assert len(report["scenarios"][0]["phases"]) == 3
        assert_report_invariants(report)


def _set(path, value):
    """A mutation that sets ``report[path[0]]...[path[-1]] = value``."""
    def mutate(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return report
    return mutate


def _delete_python(report):
    del report["python"]
    return report


#: (mutation of a tiny-spec report, what the refusal must name)
REJECTED = {
    "wrong-schema-version": (_set(["schema_version"], 99), "['schema_version']"),
    "gapped-phases": (_set(["scenarios", 0, "phases", 0, "start_s"], 5.0),
                      "'tiny': ['phases'][0]['start_s']"),
    "dishonest-passed": (_set(["scenarios", 0, "passed"], False), "'tiny': ['passed']"),
    "missing-python": (_delete_python, "['python']: the report has nothing"),
    "tasks-not-a-number": (_set(["scenarios", 0, "workload", "tasks"], "a"),
                           "'tiny': ['workload']['tasks']"),
    "events-a-list": (_set(["scenarios", 0, "phases", 0, "events"], []),
                      "'tiny': ['phases'][0]['events']"),
    "slo-value-nan": (_set(["scenarios", 0, "slos", 0, "value"], float("nan")),
                      "'tiny': ['slos'][0]['value']"),
    "slo-value-changed": (_set(["scenarios", 0, "slos", 0, "value"], 0.5),
                          "'tiny': ['slos'][0]['value']"),
    "unknown-scenario": (_set(["scenarios", 0, "name"], "no-such-scenario"),
                         "'no-such-scenario': unknown scenario"),
    "not-an-object": (lambda report: [report], "must be an object"),
    "no-scenarios-list": (_set(["scenarios"], {}), "non-empty 'scenarios' list"),
    "entry-without-name": (_set(["scenarios", 0, "name"], 7), "scenarios[0]"),
}


@pytest.fixture(scope="module")
def tiny_report():
    return run_campaign([tiny_spec()])


class TestReportValidation:
    def test_round_trip_through_file(self, tmp_path, tiny_report):
        path = write_scenarios_report(tiny_report, tmp_path / "SCENARIOS.json")
        text = path.read_text()
        assert text.endswith("\n")
        check_scenarios_report(json.loads(text), [tiny_spec()])

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejects(self, case, tiny_report):
        mutate, names = REJECTED[case]
        report = mutate(copy.deepcopy(tiny_report))
        with pytest.raises(ScenarioReportError) as info:
            check_scenarios_report(report, [tiny_spec()])
        message = str(info.value)
        assert names in message
        assert "\n" not in message


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

    def test_committed_artifact_is_what_the_code_emits(self):
        """``SCENARIOS.json`` at the repo root is ``scenario run``'s: the whole
        library, full-size, at the library's seeds, and a re-run emits it."""
        committed = json.loads(
            (default_scenario_dir().parent / "SCENARIOS.json").read_text()
        )
        assert committed["quick"] is False
        assert [(e["name"], e["seed"]) for e in committed["scenarios"]] == [
            (spec.name, spec.seed) for spec in load_all()
        ]
        assert [e["name"] for e in committed["scenarios"] if not e["passed"]] == []
        assert committed["passed"] is True
        assert_report_invariants(committed)
        check_scenarios_report(committed)

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

    def test_validate_refuses_a_degrade_without_its_link(self, tmp_path, capsys):
        """The library's partition scenario cut down to one link: a
        ``degrade`` of the link it dropped fails ``validate``, not the run."""
        data = json.loads((default_scenario_dir() / "network-partition.json").read_text())
        data["grid"]["links"] = data["grid"]["links"][:1]
        kept = {data["grid"]["links"][0]["a"], data["grid"]["links"][0]["b"]}
        sites = sorted(site["name"] for site in data["grid"]["sites"])
        dropped = next([a, b] for a in sites for b in sites if a < b and {a, b} != kept)
        data["chaos"] = [{"kind": "degrade", "link": dropped, "start_s": 100.0}]
        data.pop("quick", None)
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(data))
        assert main(["scenario", "validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: scenario.chaos[0].link: no declared link joins "
                       f"{dropped[0]!r} and {dropped[1]!r}\n")

    def test_validate_report_schema(self, tmp_path, capsys, tiny_report):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        path = write_scenarios_report(tiny_report, tmp_path / "SCENARIOS.json")
        validate = ["scenario", "validate", "--report", str(path)]
        assert main([*validate, str(spec_path)]) == 0
        assert "a re-run emits it" in capsys.readouterr().out
        assert main(validate) == 1  # "tiny" is not in the library
        assert "'tiny': unknown scenario" in capsys.readouterr().err
        changed = copy.deepcopy(tiny_report)
        changed["scenarios"][0]["slos"][0]["value"] = 0.5
        write_scenarios_report(changed, path)
        assert main([*validate, str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'tiny': ['slos'][0]['value']" in err
        path.write_text("{}")
        assert main(validate) == 1

    @pytest.mark.parametrize("argv", [
        ["scenario", "run", "benign-baseline", "--quick", "--out"],
        ["health", "--quick", "--export"],
        ["report", "--out"],
    ], ids=["scenario-run", "health", "report"])
    def test_output_into_missing_directory_is_refused_up_front(self, argv, tmp_path, capsys):
        target = tmp_path / "missing" / "artifact.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(target)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err.endswith(f"error: argument {argv[-1]}: cannot write {target}: "
                            f"no directory {target.parent}\n")
        assert out == ""  # refused before any run
