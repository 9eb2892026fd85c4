"""Unit tests for the JMManager / JMExecutable information flow (§5.3)."""

import pytest

from repro.core.monitoring.collector import JobInformationCollector
from repro.core.monitoring.db_manager import DBManager
from repro.core.monitoring.manager import JMExecutable, JMManager
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Job, Task, TaskSpec
from repro.gridsim.site import Site


@pytest.fixture
def env(sim, events):
    site = Site.simple(sim, "s1")
    es = ExecutionService(site)
    db = DBManager(events.emit_monitoring)
    events.register_stores(db_manager=db)
    collector = JobInformationCollector(sim, db)
    collector.attach(es)
    manager = JMManager(db, collector)
    return sim, es, db, manager


def make_task(work=100.0):
    return Task(spec=TaskSpec(), work_seconds=work)


class TestGetInfo:
    def test_terminal_answered_from_db(self, env):
        sim, es, db, manager = env
        t = make_task(work=10.0)
        es.submit_task(t)
        sim.run()
        record = manager.get_info(t.task_id)
        assert record.status == "completed"

    def test_live_task_recollected_fresh(self, env):
        sim, es, db, manager = env
        t = make_task(work=100.0)
        es.submit_task(t)
        sim.run_until(20.0)
        first = manager.get_info(t.task_id)
        sim.run_until(40.0)
        second = manager.get_info(t.task_id)
        assert second.elapsed_time_s > first.elapsed_time_s

    def test_unknown_task_returns_none(self, env):
        _, _, _, manager = env
        assert manager.get_info("ghost") is None

    def test_db_fallback_when_collector_cannot_reach(self, env):
        sim, es, db, manager = env
        t = make_task()
        es.submit_task(t)
        # Stash a (stale, non-terminal) record, then take the service down.
        db.update(manager.collector._snapshot(es.pool.ad(t.task_id), "s1"))
        es.fail(crash_pool=False)
        record = manager.get_info(t.task_id)
        assert record is not None
        assert record.status == "running"  # the stale stored snapshot


class TestGetJobInfo:
    def test_covers_all_job_tasks(self, env):
        sim, es, db, manager = env
        tasks = [make_task(work=10.0), make_task(work=20.0)]
        job = Job(tasks=tasks, owner="u")
        for t in tasks:
            es.submit_task(t)
        sim.run()
        records = manager.get_job_info(job.job_id)
        assert {r.task_id for r in records} == {t.task_id for t in tasks}
        assert all(r.status == "completed" for r in records)

    def test_includes_still_running_tasks(self, env):
        sim, es, db, manager = env
        tasks = [make_task(work=10.0), make_task(work=500.0)]
        job = Job(tasks=tasks, owner="u")
        for t in tasks:
            es.submit_task(t)
        sim.run_until(20.0)
        records = manager.get_job_info(job.job_id)
        statuses = {r.task_id: r.status for r in records}
        assert statuses[tasks[0].task_id] == "completed"
        assert statuses[tasks[1].task_id] == "running"


class TestJMExecutable:
    def test_forwards_to_manager(self, env):
        sim, es, db, manager = env
        executable = JMExecutable(manager)
        t = make_task(work=10.0)
        es.submit_task(t)
        sim.run()
        assert executable.get_info(t.task_id).status == "completed"
        assert executable.get_info("ghost") is None
