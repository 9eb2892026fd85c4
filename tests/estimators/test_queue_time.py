"""Unit tests for the Queue Time Estimator (§6.2)."""

import pytest

from repro.core.estimators.queue_time import (
    QueueEstimationError,
    QueueTimeEstimator,
    RuntimeEstimateDB,
)
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Task, TaskSpec
from repro.gridsim.site import Site


@pytest.fixture
def env(sim):
    site = Site.simple(sim, "s")
    return sim, ExecutionService(site), RuntimeEstimateDB()


def make_task(work=100.0, priority=0):
    return Task(spec=TaskSpec(priority=priority), work_seconds=work)


class TestRuntimeEstimateDB:
    def test_record_and_lookup(self):
        db = RuntimeEstimateDB()
        db.record("t1", 120.0)
        assert db.lookup("t1") == 120.0
        assert db.has("t1")
        assert len(db) == 1

    def test_missing_lookup_raises(self):
        with pytest.raises(QueueEstimationError):
            RuntimeEstimateDB().lookup("ghost")

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError):
            RuntimeEstimateDB().record("t", -1.0)


class TestQueueTimeEstimator:
    def test_empty_pool_zero_wait(self, env):
        sim, es, db = env
        t = make_task()
        es.submit_task(t)
        db.record(t.task_id, 100.0)
        qte = QueueTimeEstimator(db)
        # Running task: nothing ahead of it.
        assert qte.estimate(es, t.task_id) == 0.0

    def test_paper_algorithm_sums_remaining(self, env):
        """§6.2: remaining = estimated - elapsed for each task ahead."""
        sim, es, db = env
        running = make_task(work=100.0)
        queued = make_task(work=50.0)
        es.submit_task(running)
        es.submit_task(queued)
        db.record(running.task_id, 100.0)
        db.record(queued.task_id, 50.0)
        sim.run_until(30.0)  # running has 30 s elapsed
        qte = QueueTimeEstimator(db)
        assert qte.estimate(es, queued.task_id) == pytest.approx(70.0)

    def test_higher_priority_queued_tasks_count(self, env):
        sim, es, db = env
        blocker = make_task(work=1000.0)
        high = make_task(work=200.0, priority=9)
        me = make_task(work=10.0, priority=0)
        for t, est in ((blocker, 1000.0), (high, 200.0), (me, 10.0)):
            es.submit_task(t)
            db.record(t.task_id, est)
        qte = QueueTimeEstimator(db)
        assert qte.estimate(es, me.task_id) == pytest.approx(1200.0)

    def test_lower_priority_tasks_ignored(self, env):
        sim, es, db = env
        blocker = make_task(work=1000.0)
        me = make_task(work=10.0, priority=5)
        low = make_task(work=500.0, priority=0)
        for t, est in ((blocker, 1000.0), (me, 10.0), (low, 500.0)):
            es.submit_task(t)
            db.record(t.task_id, est)
        qte = QueueTimeEstimator(db)
        assert qte.estimate(es, me.task_id) == pytest.approx(1000.0)

    def test_breakdown_details(self, env):
        sim, es, db = env
        running = make_task(work=100.0)
        queued = make_task(work=50.0)
        es.submit_task(running)
        es.submit_task(queued)
        db.record(running.task_id, 100.0)
        db.record(queued.task_id, 50.0)
        bd = QueueTimeEstimator(db).breakdown(es, queued.task_id)
        assert bd.ahead == ((running.task_id, 100.0),)
        assert bd.queue_time_s == 100.0

    def test_missing_estimate_strict_raises(self, env):
        sim, es, db = env
        running = make_task()
        queued = make_task()
        es.submit_task(running)
        es.submit_task(queued)
        with pytest.raises(QueueEstimationError):
            QueueTimeEstimator(db, fallback_runtime_s=None).estimate(es, queued.task_id)

    def test_missing_estimate_fallback_used(self, env):
        sim, es, db = env
        running = make_task()
        queued = make_task()
        es.submit_task(running)
        es.submit_task(queued)
        qte = QueueTimeEstimator(db, fallback_runtime_s=42.0)
        assert qte.estimate(es, queued.task_id) == pytest.approx(42.0)

    def test_remaining_floors_at_zero(self, env):
        """A task running longer than its estimate contributes 0, not negative."""
        sim, es, db = env
        running = make_task(work=100.0)
        queued = make_task()
        es.submit_task(running)
        es.submit_task(queued)
        db.record(running.task_id, 10.0)  # underestimate
        db.record(queued.task_id, 10.0)
        sim.run_until(50.0)
        assert QueueTimeEstimator(db).estimate(es, queued.task_id) == 0.0

    def test_per_slot_division(self, sim):
        site = Site.simple(sim, "s", n_nodes=2)
        es = ExecutionService(site)
        db = RuntimeEstimateDB()
        tasks = [make_task(work=100.0) for _ in range(3)]
        for t in tasks:
            es.submit_task(t)
            db.record(t.task_id, 100.0)
        qte = QueueTimeEstimator(db)
        plain = qte.estimate(es, tasks[2].task_id)
        halved = qte.estimate(es, tasks[2].task_id, per_slot=True)
        assert halved == pytest.approx(plain / 2)

    def test_estimate_for_new_counts_running_and_equal_priority(self, env):
        sim, es, db = env
        running = make_task(work=100.0)
        queued = make_task(work=50.0, priority=0)
        es.submit_task(running)
        es.submit_task(queued)
        db.record(running.task_id, 100.0)
        db.record(queued.task_id, 50.0)
        qte = QueueTimeEstimator(db)
        assert qte.estimate_for_new(es, priority=0) == pytest.approx(150.0)
        # A higher-priority newcomer jumps the equal-priority queue.
        assert qte.estimate_for_new(es, priority=5) == pytest.approx(100.0)
