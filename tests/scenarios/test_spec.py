"""Scenario spec parsing, validation, and quick-override semantics."""

import json
from pathlib import Path

import pytest

from repro.scenarios.spec import (
    ChaosAction,
    ScenarioError,
    ScenarioSpec,
    WorkloadShape,
)

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"

GRID = {
    "sites": [{"name": "siteA", "nodes": 2}, {"name": "siteB", "nodes": 2}],
    "links": [{"a": "siteA", "b": "siteB", "capacity_mbps": 100.0}],
}


def minimal(**overrides):
    data = {
        "name": "t",
        "description": "a test scenario",
        "grid": GRID,
        "workload": {"shape": "prime", "tasks": 2},
        "slos": [{"metric": "completion_ratio", "op": ">=", "threshold": 1.0}],
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_round_trip_is_identity(self):
        spec = ScenarioSpec.from_dict(minimal(
            chaos=[{"kind": "outage", "site": "siteA",
                    "start_s": 10.0, "duration_s": 5.0}],
            tags=["x"],
            quick={"horizon_s": 100.0},
        ))
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()
        assert json.dumps(again.to_dict(), sort_keys=True) == \
            json.dumps(spec.to_dict(), sort_keys=True)

    def test_from_json_text_and_path(self, tmp_path):
        text = json.dumps(minimal())
        assert ScenarioSpec.from_json(text).name == "t"
        path = tmp_path / "t.json"
        path.write_text(text)
        assert ScenarioSpec.from_json(path).name == "t"

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ScenarioError, match="scenario"):
            ScenarioSpec.from_dict(minimal(bogus=1))
        with pytest.raises(ScenarioError, match="workload"):
            ScenarioSpec.from_dict(minimal(workload={"shape": "prime", "zzz": 1}))
        with pytest.raises(ScenarioError, match=r"chaos\[0\]"):
            ScenarioSpec.from_dict(minimal(chaos=[{"kind": "outage", "zzz": 1}]))

    def test_missing_description_rejected(self):
        data = minimal()
        del data["description"]
        with pytest.raises(ScenarioError, match="description"):
            ScenarioSpec.from_dict(data)

    def test_unknown_chaos_site_rejected(self):
        with pytest.raises(ScenarioError, match="unknown site"):
            ScenarioSpec.from_dict(minimal(
                chaos=[{"kind": "outage", "site": "nowhere",
                        "start_s": 0.0, "duration_s": 1.0}]
            ))

    def test_degrade_of_an_undeclared_link_rejected(self):
        grid = {**GRID, "sites": [*GRID["sites"], {"name": "siteC"}]}
        with pytest.raises(ScenarioError, match=(
            r"^scenario\.chaos\[1\]\.link: no declared link joins 'siteA' and 'siteC'$"
        )):
            ScenarioSpec.from_dict(minimal(grid=grid, chaos=[
                {"kind": "degrade", "link": ["siteB", "siteA"], "start_s": 0.0},
                {"kind": "degrade", "link": ["siteA", "siteC"], "start_s": 0.0},
            ]))

    @pytest.mark.parametrize("cut", [["siteC"], ["siteA", "siteB"]])
    def test_partition_that_cuts_no_declared_link_rejected(self, cut):
        grid = {**GRID, "sites": [*GRID["sites"], {"name": "siteC"}]}
        with pytest.raises(ScenarioError, match=(
            r"^scenario\.chaos\[0\]\.sites: partition .* cuts no declared link$"
        )):
            ScenarioSpec.from_dict(minimal(grid=grid, chaos=[
                {"kind": "partition", "sites": cut, "duration_s": 5.0},
            ]))

    def test_quick_chaos_is_checked_against_the_links_too(self):
        partition = {"kind": "partition", "sites": ["siteA"], "duration_s": 5.0}
        spec = ScenarioSpec.from_dict(minimal(chaos=[partition]))
        assert spec.chaos[0].sites == ("siteA",)
        with pytest.raises(ScenarioError, match="cuts no declared link"):
            ScenarioSpec.from_dict(minimal(
                chaos=[partition],
                quick={"chaos": [{**partition, "sites": ["siteA", "siteB"]}]},
            ))

    def test_unknown_slo_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            ScenarioSpec.from_dict(minimal(
                slos=[{"metric": "vibes", "op": ">=", "threshold": 1.0}]
            ))

    def test_bad_slo_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            ScenarioSpec.from_dict(minimal(
                slos=[{"metric": "makespan_s", "op": "<", "threshold": 1.0}]
            ))


class TestWorkloadShape:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ScenarioError, match="unknown shape"):
            WorkloadShape.from_dict({"shape": "tsunami"})

    def test_multi_vo_requires_vos(self):
        with pytest.raises(ScenarioError, match="vos"):
            WorkloadShape.from_dict({"shape": "multi_vo"})

    def test_vos_only_for_multi_vo(self):
        with pytest.raises(ScenarioError, match="vos"):
            WorkloadShape.from_dict(
                {"shape": "prime", "vos": [{"owner": "cms"}]}
            )

    def test_owners(self):
        wl = WorkloadShape.from_dict({
            "shape": "multi_vo",
            "vos": [{"owner": "cms"}, {"owner": "atlas"}, {"owner": "cms"}],
        })
        assert wl.owners() == ["atlas", "cms"]
        assert WorkloadShape.from_dict({"shape": "bag", "owner": "u"}).owners() == ["u"]


class TestChaosAction:
    def test_kind_specific_validation(self):
        with pytest.raises(ScenarioError, match="site"):
            ChaosAction.from_dict({"kind": "outage", "duration_s": 5.0}, "c")
        with pytest.raises(ScenarioError, match="duration_s"):
            ChaosAction.from_dict({"kind": "outage", "site": "a"}, "c")
        with pytest.raises(ScenarioError, match="duty"):
            ChaosAction.from_dict(
                {"kind": "flapping", "site": "a", "end_s": 10.0, "duty": 2.0}, "c"
            )
        with pytest.raises(ScenarioError, match="link"):
            ChaosAction.from_dict({"kind": "degrade"}, "c")
        with pytest.raises(ScenarioError, match="sites"):
            ChaosAction.from_dict({"kind": "partition", "duration_s": 5.0}, "c")
        with pytest.raises(ScenarioError, match="mean_utilization"):
            ChaosAction.from_dict({"kind": "weather", "mean_utilization": 1.5}, "c")


class TestQuickOverrides:
    def test_quick_merges_workload_and_replaces_lists(self):
        spec = ScenarioSpec.from_dict(minimal(
            horizon_s=5000.0,
            chaos=[{"kind": "outage", "site": "siteA",
                    "start_s": 100.0, "duration_s": 50.0}],
            quick={
                "horizon_s": 500.0,
                "workload": {"tasks": 1},
                "chaos": [],
                "slos": [{"metric": "makespan_s", "op": "<=", "threshold": 400.0}],
            },
        ))
        eff = spec.effective(quick=True)
        assert eff.horizon_s == 500.0
        assert eff.workload.tasks == 1
        assert eff.workload.shape == "prime"  # merged, not replaced
        assert eff.chaos == ()
        assert [s.metric for s in eff.slos] == ["makespan_s"]
        # quick=False leaves the spec untouched
        assert spec.effective(quick=False) is spec

    @pytest.mark.parametrize("quick, refusal", [
        # The main list has one action; the refused one is the quick list's second.
        ({"chaos": [{"kind": "outage", "site": "siteA", "duration_s": 5.0},
                    {"kind": "outage", "site": "nowhere", "duration_s": 5.0}]},
         r"^scenario\.quick\.chaos\[1\]\.site: unknown site 'nowhere'$"),
        ({"chaos": [{"kind": "partition", "sites": ["siteA", "siteB"], "duration_s": 5.0}]},
         r"^scenario\.quick\.chaos\[0\]\.sites: partition .* cuts no declared link$"),
        ({"slos": [{"metric": "completion_ratio", "op": ">=", "threshold": 1.0},
                   {"metric": "vibes", "op": ">=", "threshold": 1.0}]},
         r"^scenario\.quick\.slos\[1\]\.metric: unknown metric 'vibes'"),
        ({"workload": {"tasks": "many"}},
         r"^scenario\.quick\.workload\.tasks: expected an integer, got 'many'$"),
        ({"horizon_s": -5.0}, r"^scenario\.quick\.horizon_s: must be positive$"),
    ])
    def test_a_refusal_inside_quick_names_the_quick_path(self, quick, refusal):
        chaos = [{"kind": "outage", "site": "siteB", "duration_s": 5.0}]
        with pytest.raises(ScenarioError, match=refusal):
            ScenarioSpec.from_dict(minimal(chaos=chaos, quick=quick))

    def test_a_committed_scenario_names_its_quick_override(self):
        data = json.loads((SCENARIOS / "flapping-site.json").read_text(encoding="utf-8"))
        data["quick"]["chaos"].append({**data["quick"]["chaos"][0], "site": "nowhere"})
        with pytest.raises(ScenarioError, match=(
            r"^scenario\.quick\.chaos\[1\]\.site: unknown site 'nowhere'$"
        )):
            ScenarioSpec.from_dict(data)
        del data["quick"]["chaos"][1]
        data["quick"]["slos"][1]["metric"] = "vibes"
        with pytest.raises(ScenarioError, match=r"^scenario\.quick\.slos\[1\]\.metric: "):
            ScenarioSpec.from_dict(data)

    def test_quick_validated_at_load_time(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict(minimal(quick={"horizon_s": -5.0}))
        with pytest.raises(ScenarioError, match="quick"):
            ScenarioSpec.from_dict(minimal(quick={"seed": 3}))
