"""Unit tests for periodic load publication and job-state bridging."""

import pytest

from repro.gridsim.clock import Simulator
from repro.gridsim.job import Task, TaskSpec
from repro.gridsim.site import Site
from repro.monalisa.publisher import JobStatePublisher, SiteLoadPublisher
from repro.monalisa.repository import MonALISARepository


@pytest.fixture
def repo(events):
    repo = MonALISARepository(events.emit_metric)
    events.register_stores(monalisa=repo)
    return repo


@pytest.fixture
def env(repo):
    sim = Simulator()
    site = Site.simple(sim, "siteX", background_load=2.0)
    return sim, site, repo


class TestSiteLoadPublisher:
    def test_start_publishes_immediately(self, env):
        sim, site, repo = env
        SiteLoadPublisher(sim, repo, [site], period_s=30.0).start()
        assert repo.site_load("siteX") == pytest.approx(2.0)

    def test_periodic_samples(self, env):
        sim, site, repo = env
        pub = SiteLoadPublisher(sim, repo, [site], period_s=30.0).start()
        sim.run_until(95.0)
        pub.stop()
        times, _ = repo.series("siteX", "load").as_arrays()
        assert list(times) == [0.0, 30.0, 60.0, 90.0]

    def test_load_reflects_submitted_work(self, env):
        sim, site, repo = env
        pub = SiteLoadPublisher(sim, repo, [site], period_s=10.0).start()
        site.pool.submit(Task(spec=TaskSpec(), work_seconds=100.0))
        sim.run_until(10.0)
        pub.stop()
        assert repo.site_load("siteX") > 2.0

    def test_stop_halts_publication(self, env):
        sim, site, repo = env
        pub = SiteLoadPublisher(sim, repo, [site], period_s=10.0).start()
        sim.run_until(10.0)
        pub.stop()
        sim.run_until(100.0)
        assert len(repo.series("siteX", "load")) == 2  # t=0 and t=10

    def test_double_start_is_idempotent(self, env):
        sim, site, repo = env
        pub = SiteLoadPublisher(sim, repo, [site], period_s=30.0).start()
        assert pub.start() is pub  # no error, no second periodic schedule
        sim.run_until(35.0)
        pub.stop()
        times, _ = repo.series("siteX", "load").as_arrays()
        assert list(times) == [0.0, 30.0]  # one immediate sample, one period

    def test_publish_after_stop_is_noop(self, env):
        sim, site, repo = env
        pub = SiteLoadPublisher(sim, repo, [site], period_s=30.0).start()
        pub.stop()
        pub.publish_now()
        assert len(repo.series("siteX", "load")) == 1  # only the start sample

    def test_context_manager_lifecycle(self, env):
        sim, site, repo = env
        with SiteLoadPublisher(sim, repo, [site], period_s=10.0) as pub:
            sim.run_until(10.0)
        sim.run_until(100.0)
        assert len(repo.series("siteX", "load")) == 2  # t=0 and t=10
        pub.publish_now()  # guarded after __exit__
        assert len(repo.series("siteX", "load")) == 2

    def test_invalid_period_rejected(self, env):
        sim, site, repo = env
        with pytest.raises(ValueError):
            SiteLoadPublisher(sim, repo, [site], period_s=0.0)


class TestJobStatePublisher:
    def test_state_transitions_published(self, env):
        sim, site, repo = env
        JobStatePublisher(sim, repo).attach(site)
        t = Task(spec=TaskSpec(), work_seconds=50.0)
        site.pool.submit(t)
        sim.run()
        states = [e.state for e in repo.job_events(task_id=t.task_id)]
        assert states == ["queued", "running", "completed"]

    def test_progress_reported_on_completion(self, env):
        sim, site, repo = env
        JobStatePublisher(sim, repo).attach(site)
        t = Task(spec=TaskSpec(), work_seconds=50.0)
        site.pool.submit(t)
        sim.run()
        final = repo.job_events(task_id=t.task_id)[-1]
        assert final.progress == pytest.approx(1.0)
        assert final.site == "siteX"


class TestServiceMetricsPublisher:
    @pytest.fixture
    def host_env(self, repo):
        from repro.clarens.server import ClarensHost
        from repro.monalisa.publisher import ServiceMetricsPublisher

        sim = Simulator()
        host = ClarensHost("svc-host", time_source=lambda: sim.now)
        pub = ServiceMetricsPublisher(sim, repo, host, period_s=60.0)
        return sim, repo, host, pub

    def test_publishes_counts_and_latency_series(self, host_env):
        sim, repo, host, pub = host_env
        for _ in range(4):
            host.dispatch("system.ping", [], "")
        pub.publish_now()
        assert repo.latest("svc-host", "rpc.calls") == 4.0
        assert repo.latest("svc-host", "rpc.faults") == 0.0
        assert repo.latest("svc-host", "rpc.system.ping.calls") == 4.0
        assert repo.latest("svc-host", "rpc.system.ping.p95_ms") >= 0.0

    def test_periodic_sampling_under_the_sim_clock(self, host_env):
        sim, repo, host, pub = host_env
        host.dispatch("system.ping", [], "")
        pub.start()
        sim.run_until(125.0)
        pub.stop()
        times, _ = repo.series("svc-host", "rpc.calls").as_arrays()
        assert list(times) == [0.0, 60.0, 120.0]

    def test_rejects_bad_period(self, host_env):
        from repro.monalisa.publisher import ServiceMetricsPublisher

        sim, repo, host, _ = host_env
        with pytest.raises(ValueError):
            ServiceMetricsPublisher(sim, repo, host, period_s=0.0)

    def test_idempotent_lifecycle_and_stop_guard(self, host_env):
        sim, repo, host, pub = host_env
        host.dispatch("system.ping", [], "")
        assert pub.start() is pub.start()  # double start is a no-op
        sim.run_until(65.0)
        pub.stop()
        pub.stop()  # idempotent
        pub.publish_now()  # guarded after stop
        times, _ = repo.series("svc-host", "rpc.calls").as_arrays()
        assert list(times) == [0.0, 60.0]

    def test_context_manager(self, host_env):
        sim, repo, host, pub = host_env
        host.dispatch("system.ping", [], "")
        with pub as entered:
            assert entered is pub
            sim.run_until(65.0)
        sim.run_until(300.0)
        times, _ = repo.series("svc-host", "rpc.calls").as_arrays()
        assert list(times) == [0.0, 60.0]

    def test_service_health_query_reports_it(self, host_env):
        from repro.monalisa.service import MonALISAQueryService

        sim, repo, host, pub = host_env
        host.dispatch("system.ping", [], "")
        pub.publish_now()
        repo.publish("siteA", "load", 0.0, 1.5)
        service = MonALISAQueryService(repo)
        health = service.service_health()
        assert "svc-host" in health
        assert "siteA" not in health  # sites are weather, not service health
        assert health["svc-host"]["rpc.calls"] == 1.0
        # ... and the host farm stays out of the load-only weather map.
        assert set(service.grid_weather()) == {"siteA"}
