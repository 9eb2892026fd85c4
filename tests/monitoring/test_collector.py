"""Unit tests for the Job Information Collector (§5.2)."""

import pytest

from repro.core.monitoring.collector import JobInformationCollector
from repro.core.monitoring.db_manager import DBManager
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Task, TaskSpec
from repro.gridsim.site import Site


@pytest.fixture
def env(sim, events):
    site = Site.simple(sim, "s1", background_load=0.0)
    es = ExecutionService(site)
    db = DBManager(events.emit_monitoring)
    events.register_stores(db_manager=db)
    collector = JobInformationCollector(sim, db, estimate_lookup=lambda tid: 100.0)
    collector.attach(es)
    return sim, es, db, collector


def make_task(work=100.0, **kw):
    return Task(spec=TaskSpec(**kw), work_seconds=work)


class TestTerminalUpdates:
    def test_completion_pushed_to_db(self, env):
        sim, es, db, _ = env
        t = make_task(work=50.0)
        es.submit_task(t)
        sim.run()
        stored = db.get(t.task_id)
        assert stored.status == "completed"
        assert stored.completion_time == pytest.approx(50.0)

    def test_failure_pushed_to_db(self, env):
        sim, es, db, _ = env
        t = make_task()
        es.submit_task(t)
        es.pool.fail_task(t.task_id)
        assert db.get(t.task_id).status == "failed"

    def test_kill_pushed_to_db(self, env):
        sim, es, db, _ = env
        t = make_task()
        es.submit_task(t)
        es.kill_task(t.task_id)
        assert db.get(t.task_id).status == "killed"

    def test_move_pushed_to_db(self, env):
        sim, es, db, _ = env
        t = make_task()
        es.submit_task(t)
        es.vacate_task(t.task_id)
        assert db.get(t.task_id).status == "moved"

    def test_running_not_in_db_yet(self, env):
        sim, es, db, _ = env
        t = make_task()
        es.submit_task(t)
        assert db.get(t.task_id) is None


class TestLiveCollection:
    def test_collect_running_task(self, env):
        sim, es, db, collector = env
        t = make_task(work=100.0)
        es.submit_task(t)
        sim.run_until(30.0)
        record = collector.collect(t.task_id)
        assert record.status == "running"
        assert record.elapsed_time_s == pytest.approx(30.0)
        assert record.estimated_run_time_s == 100.0
        assert record.remaining_time_s == pytest.approx(70.0)
        assert record.snapshot_time == 30.0

    def test_collect_unknown_returns_none(self, env):
        _, _, _, collector = env
        assert collector.collect("ghost") is None

    def test_collect_skips_down_services(self, env):
        sim, es, _, collector = env
        t = make_task()
        es.submit_task(t)
        es.fail(crash_pool=False)
        assert collector.collect(t.task_id) is None

    def test_collect_running_across_sites(self, env):
        sim, es, db, collector = env
        site2 = Site.simple(sim, "s2")
        es2 = ExecutionService(site2)
        collector.attach(es2)
        t1, t2 = make_task(), make_task()
        es.submit_task(t1)
        es2.submit_task(t2)
        records = collector.collect_running()
        assert {r.site for r in records} == {"s1", "s2"}

    def test_queue_position_reported(self, env):
        sim, es, _, collector = env
        t1, t2 = make_task(), make_task()
        es.submit_task(t1)
        es.submit_task(t2)
        assert collector.collect(t2.task_id).queue_position == 0

    def test_double_attach_rejected(self, env):
        sim, es, _, collector = env
        with pytest.raises(ValueError):
            collector.attach(es)

    def test_attached_sites_sorted(self, env):
        sim, es, _, collector = env
        assert collector.attached_sites() == ["s1"]

    def test_estimate_lookup_failure_degrades_to_zero(self, sim, events):
        site = Site.simple(sim, "s")
        es = ExecutionService(site)

        def broken_lookup(tid):
            raise KeyError(tid)

        db = DBManager(events.emit_monitoring)
        collector = JobInformationCollector(sim, db, estimate_lookup=broken_lookup)
        collector.attach(es)
        t = make_task()
        es.submit_task(t)
        assert collector.collect(t.task_id).estimated_run_time_s == 0.0
