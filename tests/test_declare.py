"""Declarations refused at load: grid values and cross-references, policy
overrides, SLOs inside a scenario, and a ``TaskSpec`` sent over RPC."""

import json

import pytest

from repro.cli import main
from repro.clarens.errors import RemoteFault
from repro.config import ConfigError, GridConfig
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import TaskSpec, spec_from_wire, spec_to_wire
from repro.scenarios.spec import ScenarioError, ScenarioSpec

GRID = {
    "sites": [{"name": "a"}, {"name": "b"}],
    "links": [{"a": "a", "b": "b", "capacity_mbps": 100.0}],
}


def scenario(**overrides):
    data = {
        "name": "s", "description": "a scenario", "grid": GRID,
        "workload": {"shape": "prime", "tasks": 1},
        "slos": [{"metric": "completion_ratio", "op": ">=", "threshold": 1.0}],
    }
    data.update(overrides)
    return data


class TestGridCrossReferences:
    @pytest.mark.parametrize("change, message", [
        ({"links": [{"a": "a", "b": "z", "capacity_mbps": 1.0}]},
         "grid.links[0].b: unknown site 'z'"),
        ({"files": [{"name": "f", "size_mb": 1.0, "at": "z"}]},
         "grid.files[0].at: unknown site 'z'"),
        ({"flocking": [["a", "z"]]}, "grid.flocking[0][1]: unknown site 'z'"),
        ({"flocking": [["a"]]}, "grid.flocking[0]: expected a [src, dst] pair, got ['a']"),
    ])
    def test_an_undeclared_site_is_refused_at_load(self, change, message):
        with pytest.raises(ConfigError) as raised:
            GridConfig.from_dict(dict(GRID, **change))
        assert str(raised.value) == message

    def test_inside_a_scenario_the_path_starts_at_the_document(self):
        grid = dict(GRID, links=[{"a": "z", "b": "b", "capacity_mbps": 1.0}])
        with pytest.raises(ScenarioError) as raised:
            ScenarioSpec.from_dict(scenario(grid=grid))
        assert str(raised.value) == "scenario.grid.links[0].a: unknown site 'z'"


class TestGridValues:
    @pytest.mark.parametrize("grid, message", [
        ({"sites": [{"name": "a", "nodes": "2"}]},
         "scenario.grid.sites[0].nodes: expected an integer, got '2'"),
        (dict(GRID, links=[{"a": "a", "b": "b", "capacity_mbps": "fast"}]),
         "scenario.grid.links[0].capacity_mbps: expected a number, got 'fast'"),
        ({"sites": "ab"}, "scenario.grid.sites: expected a list, got 'ab'"),
        (dict(GRID, probe_noise="0.1"),
         "scenario.grid.probe_noise: expected a number, got '0.1'"),
    ])
    def test_a_mistyped_value_is_refused_at_load(self, grid, message):
        with pytest.raises(ScenarioError) as raised:
            ScenarioSpec.from_dict(scenario(grid=grid))
        assert str(raised.value) == message


class TestSlosInAScenario:
    @pytest.mark.parametrize("slo, message", [
        ({"metric": "vibes", "op": ">=", "threshold": 1.0},
         "scenario.slos[0].metric: unknown metric 'vibes'"),
        ({"metric": "makespan_s", "op": "<=", "threshold": "1"},
         "scenario.slos[0].threshold: expected a number, got '1'"),
        ({"metric": "makespan_s", "op": "<=", "threshold": 1.0, "p": 1},
         "scenario.slos[0]: unknown keys ['p']"),
    ])
    def test_a_bad_slo_is_a_scenario_error(self, slo, message):
        with pytest.raises(ScenarioError) as raised:
            ScenarioSpec.from_dict(scenario(slos=[slo]))
        assert str(raised.value).startswith(message)


class TestPolicyOverrides:
    @pytest.mark.parametrize("policy, message", [
        ({"auto_move": "no"}, "scenario.policy.auto_move: expected a bool, got 'no'"),
        ({"poll_interval_s": 0}, "scenario.policy.poll_interval_s: must be positive"),
        ({"warp": 9}, "scenario.policy: unknown keys ['warp']"),
    ])
    def test_scenario_validate_refuses_a_bad_override(self, tmp_path, capsys, policy, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario(policy=policy)))
        assert main(["scenario", "validate", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_the_stored_overrides_are_kept_as_written(self):
        spec = ScenarioSpec.from_dict(scenario(policy={"poll_interval_s": 20}))
        assert spec.to_dict()["policy"] == {"poll_interval_s": 20}
        assert spec.steering_policy().poll_interval_s == 20.0


class TestTaskSpecOverRpc:
    @pytest.fixture
    def client(self):
        gae = build_gae(GridBuilder(seed=1).site("a").build())
        gae.add_user("u", "p")
        return gae.client("u", "p")

    @pytest.mark.parametrize("spec, message", [
        ({"_type": "TaskSpec", "bogus": 1}, "ValueError: spec: unknown keys ['bogus']"),
        ({"nodes": "2"}, "ValueError: spec.nodes: expected an integer, got '2'"),
    ])
    def test_a_bad_struct_faults_naming_the_field(self, client, spec, message):
        with pytest.raises(RemoteFault) as raised:
            client.call("estimator.estimate_runtime", spec)
        assert str(raised.value) == message

    def test_the_wire_form_reads_back_with_or_without_its_tag(self):
        spec = TaskSpec(owner="u", arguments=("-x",), environment={"A": "1"})
        assert spec_from_wire(spec_to_wire(spec)) == spec
        assert spec_from_wire({"_type": "TaskSpec", **spec_to_wire(spec)}) == spec
