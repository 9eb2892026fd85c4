"""Unit tests for the Command Processor (§4.2.2)."""

import pytest

from repro.core.steering.commands import COMMAND_LOG_CAPACITY, CommandProcessor
from repro.core.steering.subscriber import Subscriber
from repro.gridsim.clock import Simulator
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Job, JobState, Task, TaskSpec
from repro.gridsim.scheduler import SphinxScheduler
from repro.gridsim.site import Site


@pytest.fixture
def env():
    sim = Simulator()
    scheduler = SphinxScheduler(sim)
    services = {}
    for name, load in (("fast", 0.0), ("slow", 2.0)):
        es = ExecutionService(Site.simple(sim, name, background_load=load))
        es.runtime_estimator = lambda spec: spec.requested_cpu_hours * 3600.0
        scheduler.register_site(es)
        services[name] = es
    subscriber = Subscriber()
    scheduler.plan_listeners.append(subscriber.receive_plan)
    processor = CommandProcessor(subscriber, scheduler, services)
    return sim, scheduler, services, processor


def submit(scheduler, work=100.0, checkpointable=False):
    t = Task(spec=TaskSpec(requested_cpu_hours=work / 3600.0), work_seconds=work,
             checkpointable=checkpointable)
    scheduler.submit_job(Job(tasks=[t], owner="u"))
    return t


class TestVerbs:
    def test_kill(self, env):
        sim, scheduler, _, proc = env
        t = submit(scheduler)
        result = proc.kill(t.task_id)
        assert result.ok
        assert t.state is JobState.KILLED

    def test_pause_and_resume(self, env):
        sim, scheduler, _, proc = env
        t = submit(scheduler)
        assert proc.pause(t.task_id).ok
        assert t.state is JobState.PAUSED
        assert proc.resume(t.task_id).ok
        assert t.state is JobState.RUNNING

    def test_set_priority(self, env):
        sim, scheduler, services, proc = env
        t = submit(scheduler)
        result = proc.set_priority(t.task_id, 9)
        assert result.ok
        assert services["fast"].job_status(t.task_id).priority == 9

    def test_move_auto_target(self, env):
        sim, scheduler, services, proc = env
        t = submit(scheduler)          # lands on "fast"
        sim.run_until(20.0)
        result = proc.move(t.task_id)
        assert result.ok
        assert "slow" in result.detail
        assert services["slow"].pool.has_task(t.task_id)

    def test_move_explicit_target(self, env):
        sim, scheduler, services, proc = env
        t = submit(scheduler)
        result = proc.move(t.task_id, target_site="slow")
        assert result.ok
        assert services["slow"].pool.has_task(t.task_id)

    def test_move_restarts_noncheckpointable_from_zero(self, env):
        sim, scheduler, services, proc = env
        t = submit(scheduler, work=100.0)
        sim.run_until(40.0)
        proc.move(t.task_id, target_site="slow")
        assert services["slow"].pool.ad(t.task_id).accrued_work == 0.0

    def test_move_carries_checkpoint(self, env):
        sim, scheduler, services, proc = env
        t = submit(scheduler, work=100.0, checkpointable=True)
        sim.run_until(40.0)
        result = proc.move(t.task_id, target_site="slow")
        assert "carried 40.0s" in result.detail
        assert services["slow"].pool.ad(t.task_id).accrued_work == pytest.approx(40.0)


class TestFailureHandling:
    def test_unknown_task_fails_cleanly(self, env):
        _, _, _, proc = env
        result = proc.kill("ghost")
        assert not result.ok
        assert "ghost" in result.detail

    def test_verb_against_down_service_fails_cleanly(self, env):
        sim, scheduler, services, proc = env
        t = submit(scheduler)
        services["fast"].fail(crash_pool=False)
        result = proc.pause(t.task_id)
        assert not result.ok
        assert "down" in result.detail

    def test_invalid_transition_reported(self, env):
        sim, scheduler, _, proc = env
        t = submit(scheduler)
        result = proc.resume(t.task_id)  # not paused
        assert not result.ok

    def test_log_records_everything(self, env):
        sim, scheduler, _, proc = env
        t = submit(scheduler)
        proc.pause(t.task_id)
        proc.resume(t.task_id)
        proc.kill("ghost")
        assert [(r.command, r.ok) for r in proc.log] == [
            ("pause", True), ("resume", True), ("kill", False),
        ]

    def test_log_is_a_ring_of_the_newest_results(self, env):
        """An always-on host must not keep one result per verb for ever."""
        sim, scheduler, _, proc = env
        t = submit(scheduler)
        verbs = 3 * COMMAND_LOG_CAPACITY
        for i in range(verbs):
            proc.set_priority(t.task_id, i)
        assert len(proc.log) == COMMAND_LOG_CAPACITY
        assert [r.detail for r in proc.log] == [
            f"priority={i}" for i in range(verbs - COMMAND_LOG_CAPACITY, verbs)
        ]
