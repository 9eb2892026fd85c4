"""Integration tests: the fully wired GAE, driven through the Clarens API."""

import pytest

from repro.core.steering.optimizer import SteeringPolicy
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, JobState, Task, TaskSpec
from repro.workloads.downey import DowneyWorkloadGenerator
from repro.workloads.generators import physics_analysis_job


def make_gae(**kwargs):
    grid = (
        GridBuilder(seed=17)
        .site("caltech", nodes=2, background_load=0.2)
        .site("cern", nodes=4, background_load=0.5)
        .site("nust", nodes=1, background_load=0.0)
        .link("caltech", "cern", capacity_mbps=622.0, latency_s=0.08)
        .link("cern", "nust", capacity_mbps=45.0, latency_s=0.12)
        .file("dataset.db", size_mb=200.0, at="cern")
        .probe_noise(0.0)
        .build()
    )
    history, _ = DowneyWorkloadGenerator(seed=1995).history_and_tests(100, 20)
    gae = build_gae(grid, history=history, **kwargs)
    gae.add_user("alice", "pw")
    return gae


class TestWiring:
    def test_all_services_hosted(self):
        gae = make_gae()
        assert gae.host.registry.names() == [
            "accounting", "estimator", "jobmon", "monalisa", "steering", "system",
        ]

    def test_scheduler_load_oracle_is_monalisa(self):
        gae = make_gae()
        gae.load_publisher.publish_now()
        assert gae.scheduler.load_oracle("nust") == pytest.approx(0.0)
        assert gae.scheduler.load_oracle("cern") == pytest.approx(0.5)

    def test_every_site_has_estimator_installed(self):
        gae = make_gae()
        for es in gae.grid.execution_services.values():
            assert es.has_estimator


class TestFullJobLifecycle:
    def test_dag_job_completes_and_is_fully_monitored(self):
        gae = make_gae()
        job = physics_analysis_job(
            "alice", n_analysis_tasks=3, dataset_files=("dataset.db",),
            stage_seconds=60.0, analysis_seconds=300.0, merge_seconds=60.0,
        )
        gae.scheduler.submit_job(job)
        gae.grid.run_until(5000.0)
        assert job.state is JobState.COMPLETED

        client = gae.client("alice", "pw")
        records = client.service("jobmon").job_tasks(job.job_id)
        assert len(records) == 5
        assert all(r["status"] == "completed" for r in records)
        # Dependency order held: stage finished before any analysis started.
        by_exe = {}
        for r in records:
            by_exe.setdefault(r["task_id"], r)
        stage = next(r for r in records if r["task_id"] == job.tasks[0].task_id)
        for analysis in job.tasks[1:-1]:
            rec = next(r for r in records if r["task_id"] == analysis.task_id)
            assert rec["execution_time"] >= stage["completion_time"]

    def test_history_grows_from_completions(self):
        gae = make_gae()
        before = len(gae.history)
        t = Task(spec=TaskSpec(owner="alice"), work_seconds=30.0)
        gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
        gae.grid.run_until(100.0)
        assert len(gae.history) == before + 1

    def test_at_submission_estimates_recorded(self):
        gae = make_gae()
        t = Task(spec=TaskSpec(owner="alice"), work_seconds=30.0)
        gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
        assert gae.estimators.estimate_db.has(t.task_id)


class TestClientJourney:
    def test_login_query_steer_logout(self):
        policy = SteeringPolicy(poll_interval_s=15.0, min_elapsed_wall_s=30.0)
        gae = make_gae(policy=policy)
        t = Task(spec=TaskSpec(owner="alice", requested_cpu_hours=0.2),
                 work_seconds=600.0)
        gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
        gae.grid.run_until(60.0)

        client = gae.client("alice", "pw")
        jobmon = client.service("jobmon")
        status = jobmon.job_status(t.task_id)
        assert status == "running"

        steering = client.service("steering")
        progress = steering.task_progress(t.task_id)
        assert 0.0 < progress["progress"] < 1.0

        est = client.service("estimator")
        assert est.history_size() > 0

        client.logout()
        from repro.clarens.errors import AuthenticationError

        with pytest.raises(AuthenticationError):
            jobmon.job_status(t.task_id)

    def test_anonymous_blocked_from_everything_but_system(self):
        gae = make_gae()
        anon = gae.client()
        assert anon.ping()
        from repro.clarens.errors import AuthenticationError

        with pytest.raises(AuthenticationError):
            anon.service("jobmon").running_tasks()


class TestMultiJobContention:
    def test_queue_and_priorities_respected_across_jobs(self):
        gae = make_gae()
        # Saturate the single-slot site "nust" by routing all jobs there.
        original = gae.scheduler.select_site
        gae.scheduler.select_site = lambda t, exclude=(): "nust"
        low = Task(spec=TaskSpec(owner="alice", priority=0), work_seconds=100.0)
        mid = Task(spec=TaskSpec(owner="alice", priority=5), work_seconds=100.0)
        high = Task(spec=TaskSpec(owner="alice", priority=9), work_seconds=100.0)
        for t in (low, mid, high):
            gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
        gae.scheduler.select_site = original
        gae.grid.run_until(1000.0)
        pool = gae.grid.sites["nust"].pool
        starts = {t.task_id: pool.archive + [pool.ad(t.task_id)] for t in (low, mid, high)}
        # low started first (it arrived to an empty pool), then high, then mid.
        assert pool.ad(high.task_id).start_time < pool.ad(mid.task_id).start_time
