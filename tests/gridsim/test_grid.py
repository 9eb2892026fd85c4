"""Unit tests for the GridBuilder facade."""

import pytest

from repro.config import ConfigError, GridConfig, LinkConfig, SiteConfig
from repro.gridsim import GridBuilder, Job, Task, TaskSpec


class TestGridBuilder:
    def test_builds_declared_sites(self, two_site_grid):
        assert sorted(two_site_grid.sites) == ["siteA", "siteB"]
        assert sorted(two_site_grid.execution_services) == ["siteA", "siteB"]

    def test_background_load_applied(self, two_site_grid):
        assert two_site_grid.site("siteA").nodes[0].load_at(0.0) == 1.5
        assert two_site_grid.site("siteB").nodes[0].load_at(0.0) == 0.0

    def test_duplicate_site_rejected(self):
        with pytest.raises(ConfigError, match=r"grid.sites\[1\].name: site 'x' declared twice"):
            GridBuilder().site("x").site("x").build()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            GridBuilder().build()

    def test_the_benchmark_rigs_builder_chain(self):
        """``build_rig`` (``benchmarks/e2e/rig.py``) builds its grid with
        exactly this chain; the benchmark reads the grid it yields."""
        from benchmarks.e2e.rig import SITES

        builder = GridBuilder(seed=907)
        for site in SITES:
            builder = builder.site(site, nodes=64, cpus_per_node=4)
        grid = (
            builder.link(*SITES, capacity_mbps=622.0, latency_s=0.05).probe_noise(0.0).build()
        )
        assert grid.config == GridConfig(
            sites=[SiteConfig(site, nodes=64, cpus_per_node=4) for site in SITES],
            links=[LinkConfig(*SITES, capacity_mbps=622.0, latency_s=0.05)],
        )
        assert grid.rngs.seed == 907
        assert grid.scheduler.sites() == sorted(SITES)
        for site in SITES:
            nodes = grid.site(site).nodes
            assert [node.name for node in nodes] == [f"{site}-node{i:02d}" for i in range(64)]
            assert {node.cpu_count for node in nodes} == {4}
            assert grid.site(site).pool.total_slots == 256
            assert grid.site(site).nodes[0].load_at(0.0) == 0.0
        link = grid.network.link_between(*SITES)
        assert (link.capacity_mbps, link.latency_s, link.utilization) == (622.0, 0.05, 0.0)
        probe = grid.probe.measure(*SITES)
        assert probe.measured_mbps == probe.true_mbps == 622.0

    def test_links_registered(self, two_site_grid):
        assert two_site_grid.network.path_bandwidth_mbps("siteA", "siteB") == 100.0

    def test_files_published(self):
        grid = (
            GridBuilder()
            .site("a").site("b")
            .link("a", "b", capacity_mbps=10.0)
            .file("data.db", size_mb=50.0, at="a")
            .build()
        )
        assert grid.catalog.replicas("data.db") == {"a"}

    def test_flocking_configured(self):
        grid = GridBuilder().site("a").site("b").flock("a", "b").build()
        assert grid.sites["b"].pool in grid.sites["a"].pool.flock_targets

    def test_charge_rates_configurable(self):
        grid = GridBuilder().site("s", cpu_hour_rate=5.0, idle_hour_rate=0.5).build()
        assert grid.site("s").charge_rates.cpu_hour == 5.0

    def test_scheduler_knows_all_sites(self, two_site_grid):
        assert two_site_grid.scheduler.sites() == ["siteA", "siteB"]

    def test_end_to_end_job_run(self, two_site_grid):
        for es in two_site_grid.execution_services.values():
            es.runtime_estimator = lambda spec: spec.requested_cpu_hours * 3600.0
        t = Task(spec=TaskSpec(requested_cpu_hours=0.1), work_seconds=360.0)
        two_site_grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        two_site_grid.run()
        assert t.state.value == "completed"

    def test_probe_noise_zero_gives_exact_probe(self, two_site_grid):
        r = two_site_grid.probe.measure("siteA", "siteB")
        assert r.measured_mbps == r.true_mbps

    def test_same_seed_same_grid_behaviour(self):
        def build_and_probe(seed):
            grid = (
                GridBuilder(seed=seed)
                .site("a").site("b")
                .link("a", "b", capacity_mbps=100.0)
                .probe_noise(0.1)
                .build()
            )
            return [grid.probe.measure("a", "b").measured_mbps for _ in range(5)]

        assert build_and_probe(3) == build_and_probe(3)
        assert build_and_probe(3) != build_and_probe(4)
