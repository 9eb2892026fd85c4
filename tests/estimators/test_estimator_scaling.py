"""Estimator hot-path cost must not grow with history size or queue depth.

Count-based, so it cannot flake: the work one estimate does is counted
(``TaskRecord.attribute`` evaluations, per-ad remaining-runtime
evaluations), never timed.  Same style as
``tests/gridsim/test_admission_scaling.py``.
"""

import pytest

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.queue_time import QueueTimeEstimator, RuntimeEstimateDB
from repro.core.estimators.runtime import RuntimeEstimator
from repro.gridsim.clock import Simulator
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Task, TaskSpec
from repro.gridsim.site import Site

BUCKET = 5
QUERIES = 20
BANDS = 5


def counting(monkeypatch, cls, name):
    """Replace ``cls.name`` with a counting wrapper; returns the tally."""
    tally = {"calls": 0}
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        tally["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return tally


def history_of(n_records):
    """*n_records* records, ``BUCKET`` per distinct application."""
    return HistoryRepository(
        TaskRecord(
            owner="alice", account="cms", partition="compute", queue="q",
            nodes=1, task_type="batch", executable=f"app{i // BUCKET:05d}",
            requested_cpu_hours=1.0 + i % BUCKET, runtime_s=100.0 + i % 7,
        )
        for i in range(n_records)
    )


def attribute_evaluations_per_estimate(monkeypatch, n_records):
    estimator = RuntimeEstimator(history_of(n_records))
    n_apps = n_records // BUCKET
    specs = [
        TaskSpec(
            owner="alice", account="cms", partition="compute", queue="q",
            nodes=1, task_type="batch",
            executable=f"app{(q * n_apps) // QUERIES:05d}",
            requested_cpu_hours=2.5,
        )
        for q in range(QUERIES)
    ]
    assert estimator.estimate(specs[0]).n_similar == BUCKET  # builds the buckets
    with monkeypatch.context() as patch:
        tally = counting(patch, TaskRecord, "attribute")
        for spec in specs:
            estimator.estimate(spec)
    return tally["calls"] / QUERIES


def test_attribute_evaluations_per_runtime_estimate_ignore_history_size(monkeypatch):
    small = attribute_evaluations_per_estimate(monkeypatch, 1_000)
    large = attribute_evaluations_per_estimate(monkeypatch, 10_000)
    # Only the matched bucket is read; a scan would evaluate >= one
    # attribute per history record.
    assert small == large
    assert 0 < small <= 4 * BUCKET


@pytest.mark.parametrize("depth", [200, 2_000])
def test_remaining_evaluations_per_queue_estimate_equal_running_ads(monkeypatch, depth):
    sim = Simulator()
    service = ExecutionService(Site.simple(sim, "site", n_nodes=1, cpus_per_node=2))
    db = RuntimeEstimateDB()
    estimator = QueueTimeEstimator(db)
    estimator.attach(service)
    for i in range(depth):
        task = Task(spec=TaskSpec(priority=i % BANDS), work_seconds=500.0 + i)
        db.record(task.task_id, 600.0 + i)
        service.submit_task(task)
    sim.run_until(50.0)
    running = len(service.running_info())
    assert running == 2 and len(service.queue_info()) == depth - running

    tally = counting(monkeypatch, QueueTimeEstimator, "_remaining")
    for priority in range(BANDS):
        estimator.estimate_for_new(service, priority=priority)
    # The queued part comes from the band totals: no queued ad is visited.
    assert tally["calls"] == BANDS * running


def test_ladder_walks_per_estimate_follow_history_versions_not_estimates(monkeypatch):
    history = history_of(1_000)
    estimator = RuntimeEstimator(history)
    tally = counting(monkeypatch, HistoryRepository, "matching")
    specs = [
        TaskSpec(
            owner="alice", account="cms", partition="compute", queue="q", nodes=1,
            task_type="batch", executable="app00007", requested_cpu_hours=1.0 + i / 100,
        )
        for i in range(400)
    ]
    values = {estimator.estimate(spec).value for spec in specs}
    assert len(values) == len(specs)  # one fit, evaluated at each spec's own request
    assert tally["calls"] == 1  # the full template already has BUCKET matches
    assert len(estimator._fits) == 1

    # Any append is a new version — the quiet fold of a restore included.
    for notify in (True, False):
        record = TaskRecord.from_spec(specs[0], runtime_s=99.0)
        history.add(record, notify=notify)
        before = tally["calls"]
        assert estimator.estimate(specs[0]).n_similar == len(history) - 1_000 + BUCKET
        assert 0 < tally["calls"] - before <= 7
        estimator.estimate(specs[1])
        assert tally["calls"] - before <= 7 and len(estimator._fits) == 1
