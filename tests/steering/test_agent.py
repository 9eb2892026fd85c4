"""Unit tests for the adaptive steering agent (§1's learning agent)."""

import pytest

from repro.core.steering.agent import AdaptiveSteeringAgent
from repro.core.steering.optimizer import SteeringPolicy
from repro.core.monitoring.records import MonitoringRecord
from repro.core.estimators.history import HistoryRepository
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, JobState
from repro.workloads.generators import make_prime_count_task, prime_job_history_records


def make_record(task_id="t1", elapsed=40.0, started_at=0.0, progress=0.2, owner="alice"):
    return MonitoringRecord(
        task_id=task_id, job_id="j1", site="siteA", status="running",
        elapsed_time_s=elapsed, estimated_run_time_s=283.0,
        remaining_time_s=243.0, progress=progress, queue_position=-1,
        priority=0, submission_time=0.0, execution_time=started_at,
        completion_time=None, cpu_time_used_s=elapsed, input_io_mb=0.0,
        output_io_mb=0.0, owner=owner,
    )


class TestObservation:
    def test_records_rate_and_reaction(self):
        agent = AdaptiveSteeringAgent()
        # Moved at t=100 after starting at t=0 with 40s accrued -> rate 0.4.
        agent.observe_manual_move(100.0, make_record(elapsed=40.0))
        [obs] = agent.observations
        assert obs.progress_rate == pytest.approx(0.4)
        assert obs.reaction_time_s == pytest.approx(100.0)

    def test_never_started_tasks_skipped(self):
        agent = AdaptiveSteeringAgent()
        rec = make_record()
        rec = type(rec)(**{**rec.__dict__, "execution_time": None})
        agent.observe_manual_move(100.0, rec)
        assert agent.n_observations == 0

    def test_rate_capped_at_one(self):
        agent = AdaptiveSteeringAgent()
        agent.observe_manual_move(10.0, make_record(elapsed=50.0))
        assert agent.observations[0].progress_rate == 1.0


class TestLearning:
    def test_below_min_observations_returns_base(self):
        base = SteeringPolicy(slow_rate_threshold=0.8)
        agent = AdaptiveSteeringAgent(base_policy=base, min_observations=3)
        agent.observe_manual_move(100.0, make_record())
        assert agent.recommended_policy() == base

    def test_threshold_learned_from_rates(self):
        agent = AdaptiveSteeringAgent(min_observations=3, rate_quantile=1.0,
                                      safety_margin=1.0)
        # Users moved jobs running at rates 0.3, 0.5, 0.55.
        for t, elapsed in ((100.0, 30.0), (100.0, 50.0), (100.0, 55.0)):
            agent.observe_manual_move(t, make_record(elapsed=elapsed))
        policy = agent.recommended_policy()
        assert policy.slow_rate_threshold == pytest.approx(0.55)

    def test_reaction_time_drives_poll_and_grace(self):
        agent = AdaptiveSteeringAgent(min_observations=2)
        agent.observe_manual_move(60.0, make_record(elapsed=30.0))
        agent.observe_manual_move(100.0, make_record(task_id="t2", elapsed=40.0))
        policy = agent.recommended_policy()
        assert policy.poll_interval_s == pytest.approx(40.0)   # median 80 / 2
        assert policy.min_elapsed_wall_s == pytest.approx(40.0)

    def test_threshold_clamped_valid(self):
        agent = AdaptiveSteeringAgent(min_observations=1, safety_margin=10.0)
        agent.observe_manual_move(100.0, make_record(elapsed=99.0))
        assert 0.0 < agent.recommended_threshold() <= 0.99

    def test_summary_mentions_observations(self):
        agent = AdaptiveSteeringAgent(min_observations=1)
        assert "no manual moves" in agent.summary()
        agent.observe_manual_move(100.0, make_record())
        assert "1 manual moves" in agent.summary()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSteeringAgent(min_observations=0)
        with pytest.raises(ValueError):
            AdaptiveSteeringAgent(rate_quantile=0.0)


class TestEndToEndLearning:
    def make_gae(self):
        grid = (
            GridBuilder(seed=13)
            .site("siteA", background_load=1.0)
            .site("siteB", background_load=0.0)
            .probe_noise(0.0)
            .build()
        )
        history = HistoryRepository(prime_job_history_records(n=8, sigma=0.0))
        # Autonomous moving disabled: only the human moves jobs.
        policy = SteeringPolicy(auto_move=False, min_elapsed_wall_s=1e9)
        gae = build_gae(grid, policy=policy, history=history)
        gae.add_user("alice", "pw")
        return gae

    def submit_pinned(self, gae, site="siteA"):
        t = make_prime_count_task(owner="alice")
        original = gae.scheduler.select_site
        gae.scheduler.select_site = lambda task, exclude=(): site
        gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
        gae.scheduler.select_site = original
        return t

    def test_agent_learns_from_manual_moves_through_the_api(self):
        gae = self.make_gae()
        agent = AdaptiveSteeringAgent(min_observations=2)
        gae.steering.attach_agent(agent)
        client = gae.client("alice", "pw")
        steering = client.service("steering")

        # Alice moves two jobs by hand after watching them crawl (rate 0.5).
        for _ in range(2):
            t = self.submit_pinned(gae)
            gae.grid.run_until(gae.sim.now + 120.0)
            steering.move(t.task_id, "siteB")
        assert agent.n_observations == 2
        learned = agent.recommended_policy()
        # She moved at rate 0.5, so the learned threshold covers 0.5.
        assert learned.slow_rate_threshold >= 0.5
        # Reaction ~120 s -> poll/grace ~60 s.
        assert learned.poll_interval_s == pytest.approx(60.0)

    def test_adopted_policy_drives_autonomous_moves(self):
        gae = self.make_gae()
        agent = AdaptiveSteeringAgent(min_observations=2)
        gae.steering.attach_agent(agent)
        client = gae.client("alice", "pw")
        for _ in range(2):
            t = self.submit_pinned(gae)
            gae.grid.run_until(gae.sim.now + 120.0)
            client.service("steering").move(t.task_id, "siteB")

        learned = agent.recommended_policy()
        from dataclasses import replace
        gae.steering.adopt_policy(replace(learned, auto_move=True))

        # Let the manually moved jobs drain off siteB first, then submit a
        # new slow job: the loop should now move it autonomously.
        gae.grid.run_until(gae.sim.now + 700.0)
        t = self.submit_pinned(gae)
        gae.steering.start()
        gae.grid.run_until(gae.sim.now + 1000.0)
        gae.stop()
        assert t.state is JobState.COMPLETED
        assert any(a.task_id == t.task_id for a in gae.steering.actions)
        assert gae.grid.execution_services["siteB"].pool.has_task(t.task_id)

    def test_optimizer_moves_do_not_train_the_agent(self):
        gae = self.make_gae()
        from dataclasses import replace
        gae.steering.adopt_policy(
            replace(gae.steering.policy, auto_move=True, min_elapsed_wall_s=60.0,
                    poll_interval_s=30.0)
        )
        agent = AdaptiveSteeringAgent(min_observations=1)
        gae.steering.attach_agent(agent)
        t = self.submit_pinned(gae)
        gae.steering.start()
        gae.grid.run_until(800.0)
        gae.stop()
        # The autonomous loop moved the job, but the agent saw no *manual* move.
        assert any(a.task_id == t.task_id for a in gae.steering.actions)
        assert agent.n_observations == 0
