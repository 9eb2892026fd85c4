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
