"""Unit tests for the Optimizer (§4.2.2): detection and best-site choice."""

import pytest

from repro.core.steering.optimizer import SteeringPolicy
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job
from repro.workloads.generators import make_prime_count_task, prime_job_history_records
from repro.core.estimators.history import HistoryRepository


def make_gae(policy=None, load_a=1.5):
    grid = (
        GridBuilder(seed=1)
        .site("siteA", background_load=load_a)
        .site("siteB", background_load=0.0)
        .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.0)
        .probe_noise(0.0)
        .build()
    )
    history = HistoryRepository(prime_job_history_records(n=8, sigma=0.0))
    return build_gae(grid, policy=policy, history=history)


def submit_to(gae, site_name, task, owner="alice"):
    """Force a job onto a specific site (reproducing the paper's setup)."""
    original = gae.scheduler.select_site
    gae.scheduler.select_site = lambda t, exclude=(): site_name
    try:
        return gae.scheduler.submit_job(Job(tasks=[task], owner=owner))
    finally:
        gae.scheduler.select_site = original


class TestPolicyValidation:
    def test_bad_preference(self):
        with pytest.raises(ValueError):
            SteeringPolicy(preference="lucky")

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            SteeringPolicy(slow_rate_threshold=0.0)
        with pytest.raises(ValueError):
            SteeringPolicy(slow_rate_threshold=1.5)

    def test_bad_improvement_factor(self):
        with pytest.raises(ValueError):
            SteeringPolicy(min_improvement_factor=0.5)

    def test_bad_poll_interval(self):
        with pytest.raises(ValueError):
            SteeringPolicy(poll_interval_s=0.0)

    def test_cheap_preference_requires_accounting(self):
        gae = make_gae()
        from repro.core.steering.optimizer import Optimizer

        with pytest.raises(ValueError):
            Optimizer(
                sim=gae.sim,
                policy=SteeringPolicy(preference="cheap"),
                plans=gae.scheduler.plans,
                monitoring=gae.monitoring.executable,
                estimators=gae.estimators,
                accounting=None,
            )


class TestDetection:
    def test_healthy_task_not_moved(self):
        gae = make_gae()
        task = make_prime_count_task()
        submit_to(gae, "siteB", task)  # free CPU, rate 1.0
        gae.sim.run_until(100.0)
        decision = gae.steering.optimizer.evaluate(task.task_id)
        assert not decision.should_move
        assert "healthy" in decision.reason

    def test_grace_period_respected(self):
        gae = make_gae(policy=SteeringPolicy(min_elapsed_wall_s=120.0))
        task = make_prime_count_task()
        submit_to(gae, "siteA", task)
        gae.sim.run_until(60.0)
        decision = gae.steering.optimizer.evaluate(task.task_id)
        assert not decision.should_move
        assert "grace" in decision.reason

    def test_slow_task_on_loaded_site_flagged(self):
        gae = make_gae(policy=SteeringPolicy(min_elapsed_wall_s=60.0))
        task = make_prime_count_task()
        submit_to(gae, "siteA", task)  # load 1.5 -> rate 0.4
        gae.sim.run_until(100.0)
        decision = gae.steering.optimizer.evaluate(task.task_id)
        assert decision.should_move
        assert decision.target_site == "siteB"
        assert decision.progress_rate == pytest.approx(0.4, rel=0.01)
        assert decision.best_alternative_s < decision.remaining_here_s

    def test_queued_task_not_evaluated_for_move(self):
        gae = make_gae()
        blocker = make_prime_count_task()
        queued = make_prime_count_task()
        submit_to(gae, "siteA", blocker)
        submit_to(gae, "siteA", queued)
        gae.sim.run_until(100.0)
        decision = gae.steering.optimizer.evaluate(queued.task_id)
        assert not decision.should_move
        assert "not running" in decision.reason

    def test_unknown_task_handled(self):
        gae = make_gae()
        decision = gae.steering.optimizer.evaluate("ghost")
        assert not decision.should_move

    def test_no_move_without_sufficient_improvement(self):
        # siteB nearly as loaded as siteA: moving is pointless.
        gae = make_gae(load_a=1.5)
        gae.grid.sites["siteB"].nodes[0].load_profile = (
            gae.grid.sites["siteA"].nodes[0].load_profile
        )
        task = make_prime_count_task()
        submit_to(gae, "siteA", task)
        # Seed MonALISA-load so the alternative looks equally bad via queue?
        # The estimator's completion includes queue time only; emulate a busy
        # alternative by stuffing siteB's queue.
        for _ in range(10):
            filler = make_prime_count_task()
            gae.grid.execution_services["siteB"].submit_task(filler)
            gae.estimators.estimate_db.record(filler.task_id, 283.0)
        gae.sim.run_until(100.0)
        decision = gae.steering.optimizer.evaluate(task.task_id)
        assert not decision.should_move


class TestTargetChoice:
    def test_fast_preference_picks_min_completion(self):
        grid = (
            GridBuilder(seed=1)
            .site("siteA", background_load=2.0)
            .site("siteB", background_load=0.0)
            .site("siteC", background_load=0.0)
            .probe_noise(0.0)
            .build()
        )
        history = HistoryRepository(prime_job_history_records(n=8, sigma=0.0))
        gae = build_gae(grid, history=history)
        # Make siteC busier than siteB so "fast" prefers siteB.
        filler = make_prime_count_task()
        gae.grid.execution_services["siteC"].submit_task(filler)
        gae.estimators.estimate_db.record(filler.task_id, 283.0)
        task = make_prime_count_task()
        original = gae.scheduler.select_site
        gae.scheduler.select_site = lambda t, exclude=(): "siteA"
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
        gae.scheduler.select_site = original
        gae.sim.run_until(100.0)
        decision = gae.steering.optimizer.evaluate(task.task_id)
        assert decision.should_move
        assert decision.target_site == "siteB"

    def test_cheap_preference_uses_accounting(self):
        grid = (
            GridBuilder(seed=1)
            .site("siteA", background_load=2.0, cpu_hour_rate=1.0)
            .site("siteB", background_load=0.0, cpu_hour_rate=10.0)
            .site("siteC", background_load=0.0, cpu_hour_rate=0.1)
            .probe_noise(0.0)
            .build()
        )
        history = HistoryRepository(prime_job_history_records(n=8, sigma=0.0))
        gae = build_gae(grid, history=history,
                        policy=SteeringPolicy(preference="cheap"))
        task = make_prime_count_task()
        original = gae.scheduler.select_site
        gae.scheduler.select_site = lambda t, exclude=(): "siteA"
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
        gae.scheduler.select_site = original
        gae.sim.run_until(100.0)
        decision = gae.steering.optimizer.evaluate(task.task_id)
        assert decision.should_move
        assert decision.target_site == "siteC"  # cheapest eligible

    def test_checkpointable_task_counts_only_remaining_work(self):
        gae = make_gae()
        task = make_prime_count_task(checkpointable=True)
        submit_to(gae, "siteA", task)
        gae.sim.run_until(200.0)  # 80 s accrued at rate 0.4
        decision = gae.steering.optimizer.evaluate(task.task_id)
        assert decision.should_move
        # Remaining work ~203 s beats the full 283 s restart.
        assert decision.candidates["siteB"] < 283.0
