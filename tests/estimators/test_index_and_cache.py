"""Unit tests for the PR-2 estimator hot paths.

Covers the multi-attribute history index, the incremental queue
accounting (including the event sources the property tests cannot reach
cheaply, like flocking) and the TTL bandwidth cache.  The linear-scan
references they are compared against live beside the property suite.
"""

import pytest

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.queue_time import (
    QueueEstimationError,
    QueueTimeEstimator,
    RuntimeEstimateDB,
)
from repro.core.estimators.transfer_time import TransferTimeEstimator
from repro.gridsim.clock import Simulator
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Task, TaskSpec
from repro.gridsim.network import IperfProbe, Link, Network
from repro.gridsim.site import Site
from tests.property.test_properties_index_accounting import (
    scanned_matching,
    scanned_queue_estimate,
)


def record(owner="alice", executable="reco", runtime_s=100.0, status="successful"):
    return TaskRecord(
        owner=owner, account="cms", partition="compute", queue="q", nodes=1,
        task_type="batch", executable=executable, requested_cpu_hours=1.0,
        runtime_s=runtime_s, status=status,
    )


def target(owner="alice", executable="reco"):
    return {
        "owner": owner, "account": "cms", "partition": "compute", "queue": "q",
        "nodes": 1, "task_type": "batch", "executable": executable,
    }


class TestHistoryIndex:
    def test_indexed_and_naive_agree_including_order(self):
        history = HistoryRepository(
            [record(runtime_s=r) for r in (10.0, 20.0, 30.0)]
            + [record(owner="bob", runtime_s=99.0)]
        )
        template = ("owner", "executable")
        assert history.matching(template, target()) == scanned_matching(
            history, template, target()
        )
        assert [r.runtime_s for r in history.matching(template, target())] == [
            10.0, 20.0, 30.0,
        ]

    def test_add_after_query_updates_live_buckets(self):
        history = HistoryRepository([record()])
        template = ("owner",)
        assert len(history.matching(template, target())) == 1  # builds the index
        history.add(record(runtime_s=55.0))
        assert len(history.matching(template, target())) == 2

    def test_failed_records_never_match(self):
        history = HistoryRepository([record(), record(status="failed")])
        assert len(history.matching(("owner",), target())) == 1

    def test_unhashable_target_value_falls_back_to_scan(self):
        history = HistoryRepository([record()])
        weird = dict(target(), owner=["not", "hashable"])
        assert history.matching(("owner",), weird) == []

    def test_index_stats_reports_buckets(self):
        history = HistoryRepository([record(), record(owner="bob")])
        history.matching(("owner",), target())
        stats = history.index_stats()
        assert stats["records"] == 2
        assert stats["successful"] == 2
        assert stats["templates"]["owner"] == 2  # one bucket per owner


def _service_with_estimator(fallback=None, cpus=1):
    sim = Simulator()
    service = ExecutionService(Site.simple(sim, "site", cpus_per_node=cpus))
    db = RuntimeEstimateDB()
    estimator = QueueTimeEstimator(db, fallback_runtime_s=fallback)
    estimator.attach(service)
    return sim, service, db, estimator


class TestQueueAccounting:
    def test_strict_mode_raises_exactly_like_naive(self):
        _, service, db, estimator = _service_with_estimator(fallback=None)
        running = Task(spec=TaskSpec(), work_seconds=500.0)
        queued = Task(spec=TaskSpec(), work_seconds=500.0)
        service.submit_task(running)
        db.record(running.task_id, 500.0)
        service.submit_task(queued)  # no estimate recorded: strict error
        with pytest.raises(QueueEstimationError):
            estimator.estimate_for_new(service, priority=0)
        with pytest.raises(QueueEstimationError):
            scanned_queue_estimate(estimator, service, priority=0)
        # the moment the estimate lands, both answer again — equally
        db.record(queued.task_id, 800.0)
        assert estimator.estimate_for_new(service) == scanned_queue_estimate(
            estimator, service
        )

    def test_attach_is_idempotent(self):
        _, service, _, estimator = _service_with_estimator(fallback=60.0)
        assert estimator.attach(service) is estimator.attach(service)

    def test_flocked_job_leaves_the_accounting(self):
        sim = Simulator()
        full = ExecutionService(Site.simple(sim, "full", cpus_per_node=1))
        idle = ExecutionService(Site.simple(sim, "idle", cpus_per_node=1))
        full.pool.enable_flocking(idle.pool)
        db = RuntimeEstimateDB()
        estimator = QueueTimeEstimator(db, fallback_runtime_s=300.0)
        estimator.attach(full)
        first = Task(spec=TaskSpec(), work_seconds=1000.0)
        second = Task(spec=TaskSpec(), work_seconds=1000.0)
        service_estimates = {}
        for task in (first, second):
            db.record(task.task_id, 1000.0)
            full.submit_task(task)  # second flocks straight to the idle pool
        service_estimates["incremental"] = estimator.estimate_for_new(full)
        service_estimates["naive"] = scanned_queue_estimate(estimator, full)
        assert idle.has_task(second.task_id)
        assert not full.has_task(second.task_id)
        assert service_estimates["incremental"] == service_estimates["naive"]
        assert full.queue_accounting.queued_depth() == 0

    def test_estimate_shrinks_as_running_task_progresses(self):
        sim, service, db, estimator = _service_with_estimator(fallback=None)
        task = Task(spec=TaskSpec(), work_seconds=1000.0)
        db.record(task.task_id, 1000.0)
        service.submit_task(task)
        before = estimator.estimate_for_new(service)
        sim.run_until(200.0)
        after = estimator.estimate_for_new(service)
        assert after == pytest.approx(before - 200.0)
        assert after == scanned_queue_estimate(estimator, service)


def _star_network():
    network = Network()
    network.add_link(Link("a", "b", capacity_mbps=800.0))
    return IperfProbe(network, noise_sigma=0.0)


class TestTransferCache:
    def test_ttl_expiry_forces_reprobe(self):
        ticks = iter(range(1000))
        est = TransferTimeEstimator(
            _star_network(), cache_ttl_s=2.0, clock=lambda: float(next(ticks))
        )
        est.estimate("a", "b", 10.0)   # t=0: miss
        est.estimate("a", "b", 10.0)   # t=1: hit
        est.estimate("a", "b", 10.0)   # t=2: expired -> reprobe
        assert est.cache_stats.hits == 1
        assert est.cache_stats.misses == 2
        assert est.cache_stats.expirations == 1

    def test_fresh_bypasses_and_refreshes(self):
        ticks = iter(range(1000))
        probe = _star_network()
        est = TransferTimeEstimator(
            probe, cache_ttl_s=100.0, clock=lambda: float(next(ticks))
        )
        fresh = TransferTimeEstimator(probe)  # no TTL: probes on every estimate
        est.estimate("a", "b", 10.0)
        assert est.estimate("a", "b", 10.0) == fresh.estimate("a", "b", 10.0)
        est.invalidate()
        est.estimate("a", "b", 10.0)              # re-probe, counted as a miss
        assert est.estimate("a", "b", 10.0) == fresh.estimate("a", "b", 10.0)
        assert est.cache_stats.misses == 2
        assert est.cache_stats.hits == 2

    def test_invalidate_by_site_and_wholesale(self):
        ticks = iter(range(1000))
        probe = _star_network()
        probe.network.add_link(Link("a", "c", capacity_mbps=100.0))
        est = TransferTimeEstimator(
            probe, cache_ttl_s=1e9, clock=lambda: float(next(ticks))
        )
        est.estimate("a", "b", 10.0)
        est.estimate("a", "c", 10.0)
        assert est.invalidate(src="b") == 1
        assert est.invalidate() == 1

    def test_no_ttl_probes_every_time(self):
        est = TransferTimeEstimator(_star_network())
        est.estimate("a", "b", 10.0)
        est.estimate("a", "b", 10.0)
        assert est.cache_stats.hits == 0
        assert est.cache_stats.misses == 0  # cache disabled entirely

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            TransferTimeEstimator(_star_network(), cache_ttl_s=0.0)
