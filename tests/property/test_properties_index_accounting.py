"""Property-based tests: the indexed hot paths equal their naive baselines.

Two families of invariants back the PR-2 estimator optimisations:

- the multi-attribute history index answers every template query with
  exactly the records (same order) a linear scan finds, no matter how the
  history was built up or queried in between;
- the incremental per-priority-band queue accounting produces queue-wait
  estimates **bit-identical** to the naive §6.2 queue scan under arbitrary
  interleavings of submit / start / complete / kill / re-prioritise
  events and estimate recordings.

The naive baselines live here, not in the production classes:
:func:`scanned_matching` and :func:`scanned_queue_estimate`.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.queue_time import QueueTimeEstimator, RuntimeEstimateDB
from repro.core.estimators.similarity import DEFAULT_LADDER
from repro.gridsim.clock import Simulator
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import JobState, Task, TaskSpec, reset_id_counters
from repro.gridsim.site import Site

# ----------------------------------------------------------------------
# the references
# ----------------------------------------------------------------------
def scanned_matching(history, template, target):
    """The §6.1 similarity query as a linear scan of the training set."""
    return [
        r for r in history.successful()
        if all(r.attribute(a) == target.get(a) for a in template)
    ]


def scanned_queue_estimate(estimator, service, priority=0):
    """The §6.2 sum written out over the pool's queue and the estimate DB.

    Everything running, plus every queued task at or above *priority*;
    remainders are summed per priority band, then overall, with
    :func:`math.fsum` (the grouping the incremental accounting keeps).
    """
    db, fallback = estimator.estimate_db, estimator.fallback_runtime_s

    def remaining(ad):
        from_db = db.has(ad.task_id) or fallback is None  # no fallback: lookup raises
        estimated = db.lookup(ad.task_id) if from_db else fallback
        return max(0.0, estimated - ad.elapsed_runtime())

    bands = {}
    for ad in service.queue_info():
        if ad.priority >= priority:
            bands.setdefault(ad.priority, []).append(remaining(ad))
    running = [remaining(ad) for ad in service.running_info()]
    return math.fsum(running + [math.fsum(parts) for parts in bands.values()])


# ----------------------------------------------------------------------
# history index == linear scan
# ----------------------------------------------------------------------
owners = st.sampled_from(["alice", "bob", "carol"])
executables = st.sampled_from(["reco", "simulate", "merge"])
partitions = st.sampled_from(["compute", "io"])
statuses = st.sampled_from(["successful", "failed"])

record_rows = st.tuples(
    owners, executables, partitions, statuses,
    st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
)


def _record(owner, executable, partition, status, runtime):
    return TaskRecord(
        owner=owner, account="cms", partition=partition, queue="q", nodes=1,
        task_type="batch", executable=executable, requested_cpu_hours=1.0,
        runtime_s=runtime, status=status,
    )


def _target(owner, executable, partition):
    return {
        "owner": owner, "account": "cms", "partition": partition, "queue": "q",
        "nodes": 1, "task_type": "batch", "executable": executable,
        "requested_cpu_hours": 1.0,
    }


class TestHistoryIndexProperties:
    @given(st.lists(record_rows, max_size=60), owners, executables, partitions)
    def test_indexed_matching_equals_naive(self, rows, owner, executable, partition):
        history = HistoryRepository([_record(*row) for row in rows])
        target = _target(owner, executable, partition)
        for template in DEFAULT_LADDER:
            if not template:
                continue
            assert history.matching(template, target) == scanned_matching(
                history, template, target
            )

    @given(
        st.lists(record_rows, min_size=1, max_size=40),
        st.lists(record_rows, max_size=20),
        owners, executables,
    )
    def test_index_stays_consistent_across_interleaved_adds(
        self, initial, late, owner, executable
    ):
        """Queries between adds warm the index; later adds must keep it true."""
        history = HistoryRepository([_record(*row) for row in initial])
        target = _target(owner, executable, "compute")
        for template in (("executable",), ("executable", "owner")):
            history.matching(template, target)  # warm the buckets
        for row in late:
            history.add(_record(*row))
            for template in (("executable",), ("executable", "owner"), ("owner",)):
                assert history.matching(template, target) == scanned_matching(
                    history, template, target
                )

    @given(st.lists(record_rows, max_size=40))
    def test_fresh_repository_agrees_with_incremental_one(self, rows):
        """Building record-by-record equals building from the full list."""
        incremental = HistoryRepository()
        for row in rows:
            incremental.add(_record(*row))
        bulk = HistoryRepository([_record(*row) for row in rows])
        target = _target("alice", "reco", "compute")
        for template in DEFAULT_LADDER:
            if not template:
                continue
            assert incremental.matching(template, target) == bulk.matching(
                template, target
            )


# ----------------------------------------------------------------------
# incremental queue accounting == naive queue scan
# ----------------------------------------------------------------------
events = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=0, max_value=3),            # priority band
            st.floats(min_value=10.0, max_value=5e3, allow_nan=False),  # work
            st.floats(min_value=10.0, max_value=5e3, allow_nan=False),  # estimate
            st.booleans(),                                    # record before submit?
        ),
        st.tuples(st.just("advance"), st.floats(min_value=1.0, max_value=400.0)),
        st.tuples(st.just("kill"), st.integers(min_value=0, max_value=100)),
        st.tuples(
            st.just("reprioritise"),
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=3),
        ),
    ),
    min_size=1,
    max_size=40,
)

ACTIONABLE = (JobState.QUEUED, JobState.RUNNING, JobState.PAUSED)


def _live(service, task_ids, index):
    """The index-th task (mod population) still sitting in the pool."""
    candidates = [
        tid for tid in task_ids
        if service.has_task(tid)
        and service.pool.ad(tid).state in ACTIONABLE
    ]
    if not candidates:
        return None
    return candidates[index % len(candidates)]


class TestQueueAccountingProperties:
    @given(events=events)
    @settings(max_examples=60, deadline=None)
    def test_incremental_estimate_identical_to_naive(self, events):
        reset_id_counters()
        sim = Simulator()
        service = ExecutionService(Site.simple(sim, "site", cpus_per_node=2))
        db = RuntimeEstimateDB()
        estimator = QueueTimeEstimator(db, fallback_runtime_s=1800.0)
        estimator.attach(service)
        task_ids = []

        def check():
            for priority in range(5):
                incremental = estimator.estimate_for_new(service, priority=priority)
                naive = scanned_queue_estimate(estimator, service, priority)
                assert incremental == naive  # bit-identical, not approx

        for event in events:
            kind = event[0]
            if kind == "submit":
                _, priority, work, estimate, record_before = event
                task = Task(spec=TaskSpec(priority=priority), work_seconds=work)
                if record_before:
                    db.record(task.task_id, estimate)
                    service.submit_task(task)
                else:
                    # the scheduler's real ordering: estimate lands after
                    # the pool submit, via the estimate-db listener
                    service.submit_task(task)
                    db.record(task.task_id, estimate)
                task_ids.append(task.task_id)
            elif kind == "advance":
                sim.run_until(sim.now + event[1])
            elif kind == "kill":
                target = _live(service, task_ids, event[1])
                if target is not None:
                    service.kill_task(target)
            elif kind == "reprioritise":
                target = _live(service, task_ids, event[1])
                if target is not None:
                    service.set_task_priority(target, event[2])
            check()

    @given(events=events)
    @settings(max_examples=30, deadline=None)
    def test_accounted_depth_matches_queue(self, events):
        reset_id_counters()
        sim = Simulator()
        service = ExecutionService(Site.simple(sim, "site", cpus_per_node=1))
        db = RuntimeEstimateDB()
        estimator = QueueTimeEstimator(db, fallback_runtime_s=600.0)
        acct = estimator.attach(service)
        task_ids = []
        for event in events:
            if event[0] == "submit":
                task = Task(spec=TaskSpec(priority=event[1]), work_seconds=event[2])
                service.submit_task(task)
                db.record(task.task_id, event[3])
                task_ids.append(task.task_id)
            elif event[0] == "advance":
                sim.run_until(sim.now + event[1])
            elif event[0] == "kill":
                target = _live(service, task_ids, event[1])
                if target is not None:
                    service.kill_task(target)
            elif event[0] == "reprioritise":
                target = _live(service, task_ids, event[1])
                if target is not None:
                    service.set_task_priority(target, event[2])
            assert acct.queued_depth() == len(service.queue_info())
