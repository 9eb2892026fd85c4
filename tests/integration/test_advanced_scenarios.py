"""Integration tests: gang tasks, session expiry, live web UI, stage-in."""

import json
import urllib.request

import pytest

from repro.clarens.errors import AuthenticationError
from repro.core.steering.optimizer import SteeringPolicy
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, JobState, Task, TaskSpec
from repro.webui import GAEWebUI


class TestGangTasksThroughGAE:
    def test_multi_node_job_completes_and_is_monitored(self):
        grid = (
            GridBuilder(seed=61)
            .site("big", nodes=4, cpus_per_node=2, background_load=0.0)
            .site("small", nodes=1, background_load=0.0)
            .probe_noise(0.0)
            .build()
        )
        gae = build_gae(grid)
        gae.add_user("u", "pw")
        gang = Task(
            spec=TaskSpec(owner="u", nodes=6, requested_cpu_hours=0.1),
            work_seconds=360.0,
        )
        plan = gae.scheduler.submit_job(Job(tasks=[gang], owner="u"))
        # Only "big" can host 6 slots; the scheduler must bind it there.
        assert plan.site_for(gang.task_id) == "big"
        gae.grid.run_until(1000.0)
        assert gang.state is JobState.COMPLETED
        info = gae.client("u", "pw").service("jobmon").job_info(gang.task_id)
        assert info["status"] == "completed"

    def test_scheduler_skips_sites_too_small_for_gang(self):
        grid = (
            GridBuilder(seed=62)
            .site("tiny", nodes=1, background_load=0.0)
            .site("big", nodes=8, background_load=2.0)  # loaded but large
            .probe_noise(0.0)
            .build()
        )
        gae = build_gae(grid)
        gang = Task(spec=TaskSpec(owner="u", nodes=4), work_seconds=100.0)
        # "tiny" is unloaded but can never host a 4-slot gang; the scheduler
        # must rank it out and bind the loaded-but-large site.
        plan = gae.scheduler.submit_job(Job(tasks=[gang], owner="u"))
        assert plan.site_for(gang.task_id) == "big"
        gae.grid.run_until(5000.0)
        assert gang.state is JobState.COMPLETED


class TestSessionExpiryUnderSimClock:
    def test_token_expires_as_simulation_advances(self):
        grid = GridBuilder(seed=63).site("s").build()
        gae = build_gae(grid)
        gae.host.auth.session_lifetime_s = 100.0
        gae.add_user("u", "pw")
        client = gae.client("u", "pw")
        assert client.service("estimator").history_size() == 0
        gae.grid.run_until(200.0)  # simulated time passes the lifetime
        with pytest.raises(AuthenticationError):
            client.service("estimator").history_size()
        # Re-login issues a fresh token valid from the new sim time.
        client.login("u", "pw")
        assert client.service("estimator").history_size() == 0


class TestWebUIDuringSteering:
    def test_pages_reflect_a_live_move(self):
        from repro.core.estimators.history import HistoryRepository
        from repro.workloads.generators import (
            make_prime_count_task,
            prime_job_history_records,
        )

        grid = (
            GridBuilder(seed=64)
            .site("siteA", background_load=1.5)
            .site("siteB", background_load=0.0)
            .probe_noise(0.0)
            .build()
        )
        policy = SteeringPolicy(poll_interval_s=20.0, min_elapsed_wall_s=40.0,
                                slow_rate_threshold=0.8, min_improvement_factor=1.2)
        history = HistoryRepository(prime_job_history_records(n=8, sigma=0.01))
        gae = build_gae(grid, policy=policy, history=history)
        gae.add_user("u", "pw")
        task = make_prime_count_task(owner="u")
        original = gae.scheduler.select_site
        gae.scheduler.select_site = lambda t, exclude=(): "siteA"
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
        gae.scheduler.select_site = original
        gae.start()
        gae.grid.run_until(600.0)
        gae.stop()

        with GAEWebUI(gae.client("u", "pw")) as ui:
            with urllib.request.urlopen(ui.url + "jobs", timeout=10) as resp:
                jobs_page = resp.read().decode()
            assert task.task_id in jobs_page
            assert "completed" in jobs_page
            with urllib.request.urlopen(
                ui.url + f"state/{task.task_id}", timeout=10
            ) as resp:
                state = json.loads(resp.read().decode())
            assert state["site"] == "siteB"  # it was moved, then completed


class TestStageInThroughGAE:
    def test_data_heavy_dag_respects_transfer_times(self):
        grid = (
            GridBuilder(seed=65)
            .site("data", background_load=0.0)
            .site("compute", background_load=0.0)
            .link("data", "compute", capacity_mbps=80.0, latency_s=0.0)
            .file("dataset.db", size_mb=100.0, at="data")  # 10 s transfer
            .probe_noise(0.0)
            .build()
        )
        gae = build_gae(grid)
        gae.add_user("u", "pw")
        t = Task(
            spec=TaskSpec(owner="u", input_files=("dataset.db",),
                          requested_cpu_hours=0.01),
            work_seconds=36.0,
        )
        # Force the compute site so the transfer must actually happen.
        original = gae.scheduler.select_site
        gae.scheduler.select_site = lambda task, exclude=(): "compute"
        gae.scheduler.submit_job(Job(tasks=[t], owner="u"))
        gae.scheduler.select_site = original
        gae.grid.run_until(500.0)
        ad = gae.grid.sites["compute"].pool.ad(t.task_id)
        assert ad.start_time == pytest.approx(10.0)
        assert ad.end_time == pytest.approx(46.0)
        # The monitoring record reflects the post-staging submission.
        info = gae.client("u", "pw").service("jobmon").job_info(t.task_id)
        assert info["submission_time"] == pytest.approx(10.0)


class TestGangSteering:
    def test_slow_gang_task_is_moved_whole(self):
        """A multi-slot task crawls on a loaded site; the steering loop
        moves the whole gang to a site with enough free slots."""
        from repro.core.estimators.history import HistoryRepository, TaskRecord
        from repro.core.steering.optimizer import SteeringPolicy

        grid = (
            GridBuilder(seed=66)
            .site("loaded", nodes=4, background_load=1.5)
            .site("free", nodes=4, background_load=0.0)
            .probe_noise(0.0)
            .build()
        )
        spec = TaskSpec(owner="u", nodes=3, requested_cpu_hours=600.0 / 3600.0)
        history = HistoryRepository(
            TaskRecord.from_spec(spec, runtime_s=600.0) for _ in range(6)
        )
        policy = SteeringPolicy(poll_interval_s=20.0, min_elapsed_wall_s=40.0,
                                slow_rate_threshold=0.8, min_improvement_factor=1.2)
        gae = build_gae(grid, policy=policy, history=history)
        gang = Task(spec=spec, work_seconds=600.0)
        original = gae.scheduler.select_site
        gae.scheduler.select_site = lambda t, exclude=(): "loaded"
        gae.scheduler.submit_job(Job(tasks=[gang], owner="u"))
        gae.scheduler.select_site = original
        gae.start()
        gae.grid.run_until(3000.0)
        gae.stop()
        assert gang.state is JobState.COMPLETED
        free_pool = gae.grid.sites["free"].pool
        assert free_pool.has_task(gang.task_id)
        # The whole gang ran at the new site: the archived ad shows 3 nodes'
        # worth of slots were allocated (verified via completion and slots).
        moves = [a for a in gae.steering.actions if a.result and a.result.ok]
        assert len(moves) == 1
