"""Declarations refused at load: grid values and cross-references, policy
overrides, SLOs inside a scenario, and a ``TaskSpec`` sent over RPC."""

import json
import math

import pytest

from repro.cli import main
from repro.clarens.errors import RemoteFault
from repro.config import ConfigError, GridConfig
from repro.declare import decode
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


def site(**fields):
    return {"name": "a", **fields}


class TestGridRules:
    """A grid ``scenario validate`` accepts is a grid that builds: each
    rule is the declaration's, refused at load with its path."""

    @pytest.mark.parametrize("grid, message", [
        ({"sites": [site(), site()]}, "scenario.grid.sites[1].name: site 'a' declared twice"),
        ({"sites": []}, "scenario.grid.sites: a grid needs at least one site"),
        ({"sites": [site(nodes=0)]}, "scenario.grid.sites[0].nodes: must be >= 1, got 0"),
        ({"sites": [site(cpus_per_node=0)]},
         "scenario.grid.sites[0].cpus_per_node: must be >= 1, got 0"),
        ({"sites": [site(background_load=-1)]},
         "scenario.grid.sites[0].background_load: must be non-negative, got -1.0"),
        ({"sites": [site(idle_hour_rate=-0.1)]},
         "scenario.grid.sites[0].idle_hour_rate: must be non-negative, got -0.1"),
        (dict(GRID, probe_noise=-0.1), "scenario.grid.probe_noise: must be non-negative, got -0.1"),
        (dict(GRID, files=[{"name": "f", "size_mb": -1, "at": "a"}]),
         "scenario.grid.files[0].size_mb: must be non-negative, got -1.0"),
        (dict(GRID, links=[{"a": "a", "b": "b", "capacity_mbps": 0}]),
         "scenario.grid.links[0].capacity_mbps: must be positive, got 0.0"),
        (dict(GRID, links=[{"a": "a", "b": "b", "capacity_mbps": 1, "latency_s": -1}]),
         "scenario.grid.links[0].latency_s: must be non-negative, got -1.0"),
        (dict(GRID, links=[{"a": "a", "b": "b", "capacity_mbps": 1, "utilization": 1}]),
         "scenario.grid.links[0].utilization: must be in [0, 1), got 1.0"),
        (dict(GRID, flocking=[["a", "a"]]),
         "scenario.grid.flocking[0]: site 'a' cannot flock to itself"),
        (dict(GRID, links=GRID["links"] + [{"a": "b", "b": "a", "capacity_mbps": 1.0}]),
         "scenario.grid.links[1]: a second link between 'b' and 'a'"),
        (dict(GRID, links=[{"a": "a", "b": "b", "capacity_mbps": math.nan}]),
         "scenario.grid.links[0].capacity_mbps: expected a finite number, got nan"),
    ])
    def test_scenario_validate_refuses_a_grid_that_would_not_build(
        self, tmp_path, capsys, grid, message
    ):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario(grid=grid)))
        assert main(["scenario", "validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_a_float_field_refuses_a_non_finite_number_at_its_path(self, value):
        grid = dict(GRID, links=[{"a": "a", "b": "b", "capacity_mbps": value}])
        with pytest.raises(ConfigError) as raised:
            decode(GridConfig, grid, "grid", ConfigError)
        assert str(raised.value) == (
            f"grid.links[0].capacity_mbps: expected a finite number, got {value!r}"
        )


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
