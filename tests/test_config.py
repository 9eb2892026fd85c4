"""Unit tests for declarative grid/scenario configuration."""

import json

import pytest

from repro.config import (
    ConfigError,
    GridConfig,
    SiteConfig,
    grid_from_config,
)
from repro.scenarios import ScenarioError, ScenarioSpec

GRID = {
    "sites": [
        {"name": "siteA", "nodes": 1, "background_load": 1.5},
        {"name": "siteB", "nodes": 1},
    ],
    "links": [{"a": "siteA", "b": "siteB", "capacity_mbps": 100.0}],
    "files": [{"name": "d.db", "size_mb": 10.0, "at": "siteB"}],
    "flocking": [["siteA", "siteB"]],
}
POLICY = {"poll_interval_s": 20.0, "min_elapsed_wall_s": 40.0,
          "slow_rate_threshold": 0.8, "min_improvement_factor": 1.2}
SPEC = {
    "name": "s",
    "description": "the Figure 7 grid, run through the scenario engine",
    "grid": GRID,
    "policy": POLICY,
    "horizon_s": 2000.0,
    "workload": {"shape": "prime", "tasks": 1},
    "slos": [{"metric": "completion_ratio", "op": ">=", "threshold": 1.0}],
}


class TestParsing:
    def test_round_trip_through_dict(self):
        grid = GridConfig.from_dict(GRID)
        assert [s.name for s in grid.sites] == ["siteA", "siteB"]
        assert grid.sites[0].background_load == 1.5
        assert grid.links[0].capacity_mbps == 100.0
        assert grid.files[0].at == "siteB"
        assert grid.flocking == [["siteA", "siteB"]]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig.from_dict(dict(GRID, typo_key=1))

    def test_unknown_site_keys_rejected(self):
        bad = json.loads(json.dumps(GRID))
        bad["sites"][0]["cpus"] = 4
        with pytest.raises(ConfigError):
            GridConfig.from_dict(bad)

    def test_missing_grid_rejected(self):
        spec = {k: v for k, v in SPEC.items() if k != "grid"}
        with pytest.raises(ScenarioError, match="grid"):
            ScenarioSpec.from_dict(spec)

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json("{nope")

    def test_bad_policy_key_rejected(self):
        spec = ScenarioSpec.from_dict(dict(SPEC, policy={"warp": 9}))
        with pytest.raises(ScenarioError, match="policy"):
            spec.steering_policy()


class TestBuilding:
    def test_grid_from_config(self):
        grid = grid_from_config(GridConfig.from_dict(GRID), seed=2005)
        assert sorted(grid.sites) == ["siteA", "siteB"]
        assert grid.site("siteA").nodes[0].load_at(0.0) == 1.5
        assert grid.catalog.replicas("d.db") == {"siteB"}
        assert grid.sites["siteB"].pool in grid.sites["siteA"].pool.flock_targets

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_from_config(GridConfig())

    def test_bad_flocking_pair_rejected(self):
        cfg = GridConfig(sites=[SiteConfig(name="a")], flocking=[["a"]])
        with pytest.raises(ConfigError):
            grid_from_config(cfg)


class TestCliScenario:
    def test_scenario_run_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s.json"
        path.write_text(json.dumps(SPEC))
        assert main(["scenario", "run", str(path), "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert "completion_ratio" in out
        assert "campaign: PASS" in out
