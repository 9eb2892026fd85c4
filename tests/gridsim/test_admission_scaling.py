"""Admission cost must not grow with the number of live jobs.

Count-based, so it cannot flake: the work ``submit_job`` does per call is
counted (queue-order key evaluations, commitment-map iterations, history
lookups, node slot reads, idle-queue elements visited), never timed.  The
timed version of the same claim is ``setup_s`` of the end-to-end benchmark.
"""

import math

import pytest

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorJobAd, CondorPool
from repro.gridsim.job import Job, JobState, Task, TaskSpec
from repro.gridsim.node import Node

JOBS = 4000
TAIL = 500


def two_site_gae():
    grid = (
        GridBuilder(seed=3)
        .site("siteA", nodes=2, cpus_per_node=2)
        .site("siteB", nodes=2, cpus_per_node=2)
        .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05)
        .probe_noise(0.0)
        .build()
    )
    gae = build_gae(grid)
    gae.start()
    return gae


def single_task_job(i):
    task = Task(spec=TaskSpec(owner="u", priority=i % 5), work_seconds=100.0 + i % 7)
    return Job(tasks=[task], owner="u")


class _NeverIterated(dict):
    """A commitment map that may be read by key but not walked."""

    def _walked(self, *args):
        raise AssertionError("the commitment map was iterated on the admission path")

    __iter__ = keys = values = items = _walked


def test_key_evaluations_per_submit_stay_logarithmic(monkeypatch):
    gae = two_site_gae()
    evaluations = 0
    original = CondorJobAd.sort_key

    def counting_sort_key(ad):
        nonlocal evaluations
        evaluations += 1
        return original(ad)

    monkeypatch.setattr(CondorJobAd, "sort_key", counting_sort_key)
    for i in range(JOBS - TAIL):
        gae.scheduler.submit_job(single_task_job(i))
    before_tail = evaluations
    for i in range(JOBS - TAIL, JOBS):
        gae.scheduler.submit_job(single_task_job(i))
    per_submit = (evaluations - before_tail) / TAIL

    queued = sum(len(site.pool.queue_snapshot()) for site in gae.grid.sites.values())
    assert queued > JOBS - 100  # the queues really are this long
    # Placement by bisection: ~log2(n) keys.  A full re-sort costs ~n/2 here.
    assert per_submit <= 4 * math.log2(JOBS) + 8, per_submit


def test_rank_sites_reads_a_count_not_the_commitment_map():
    gae = two_site_gae()
    scheduler = gae.scheduler
    for i in range(50):
        scheduler.submit_job(single_task_job(i))
    scheduler._commitments = _NeverIterated(scheduler._commitments)
    probe = single_task_job(50)
    ranks = scheduler.rank_sites(probe.tasks[0])
    assert len(ranks) == 2
    # A whole admission walks it no more than a ranking does.
    scheduler.submit_job(probe)
    assert probe.tasks[0].task_id in scheduler._commitments


# ----------------------------------------------------------------------
# one runtime fit per (attribute tuple, history version)
# ----------------------------------------------------------------------
def matching_calls(monkeypatch):
    """Count ``HistoryRepository.matching`` calls; returns the tally."""
    tally = {"calls": 0}
    original = HistoryRepository.matching

    def counting_matching(self, attributes, target):
        tally["calls"] += 1
        return original(self, attributes, target)

    monkeypatch.setattr(HistoryRepository, "matching", counting_matching)
    return tally


@pytest.mark.parametrize("seeded", [False, True], ids=["empty-history", "seeded-history"])
def test_history_lookups_per_submit_are_zero_until_the_history_moves(monkeypatch, seeded):
    gae = two_site_gae()
    if seeded:
        for i in range(6):
            gae.history.add(TaskRecord.from_spec(TaskSpec(owner="u"), runtime_s=100.0 + i))
    for i in range(JOBS - TAIL):
        gae.scheduler.submit_job(single_task_job(i))
    tally = matching_calls(monkeypatch)
    for i in range(JOBS - TAIL, JOBS):
        gae.scheduler.submit_job(single_task_job(i))
    # Two ranking probes and the at-submission estimate per job, all served
    # from the fit the first job of this history version computed.
    assert tally["calls"] == 0

    gae.history.add(TaskRecord.from_spec(TaskSpec(owner="u"), runtime_s=120.0))
    gae.scheduler.submit_job(single_task_job(JOBS))
    assert 0 < tally["calls"] <= 7  # one walk down the seven-rung ladder
    after_first = tally["calls"]
    gae.scheduler.submit_job(single_task_job(JOBS + 1))
    assert tally["calls"] == after_first


def test_fit_memo_is_bounded_by_attribute_tuples_not_by_tasks():
    gae = two_site_gae()
    for i in range(6):
        spec = TaskSpec(owner="u", requested_cpu_hours=1.0 + i)
        gae.history.add(TaskRecord.from_spec(spec, runtime_s=100.0 * (1 + i)))
    values = set()
    for i in range(JOBS):
        spec = TaskSpec(owner="u", priority=i % 5, requested_cpu_hours=1.0 + i / JOBS)
        task = Task(spec=spec, work_seconds=100.0)
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
        values.add(gae.estimators.estimate_db.lookup(task.task_id))
    # Every task got its own regression estimate out of the one shared fit.
    assert len(values) == JOBS
    assert len(gae.estimators.runtime._fits) == 1


# ----------------------------------------------------------------------
# slot counts and non-queued positions without a walk
# ----------------------------------------------------------------------
def free_slot_reads_per_submit_into_a_full_pool(monkeypatch, n_nodes):
    pool = CondorPool(Simulator(), "p", [Node(name=f"n{i}") for i in range(n_nodes)])
    for i in range(n_nodes):
        pool.submit(Task(spec=TaskSpec(), work_seconds=1_000.0))
    assert pool.busy_slots == pool.total_slots == n_nodes
    reads = 0
    original = Node.free_slots.fget

    def counting_free_slots(node):
        nonlocal reads
        reads += 1
        return original(node)

    monkeypatch.setattr(Node, "free_slots", property(counting_free_slots))
    for i in range(50):
        pool.submit(Task(spec=TaskSpec(priority=i % 5), work_seconds=1_000.0))
    assert len(pool.queue_snapshot()) == 50
    return reads / 50


def test_slot_reads_per_submit_into_a_full_pool_ignore_node_count(monkeypatch):
    small = free_slot_reads_per_submit_into_a_full_pool(monkeypatch, 8)
    large = free_slot_reads_per_submit_into_a_full_pool(monkeypatch, 512)
    # The head-of-queue check reads the pool's own busy count.
    assert small == large == 0


class _VisitCounting(list):
    """An idle queue that counts the elements handed out by iteration."""

    visited = 0

    def __iter__(self):
        for ad in super().__iter__():
            self.visited += 1
            yield ad


def test_position_of_a_non_queued_ad_never_looks_at_the_idle_queue():
    gae = two_site_gae()
    jobs = [single_task_job(i) for i in range(400)]
    for job in jobs:
        gae.scheduler.submit_job(job)
    gae.sim.run_until(150.0)  # some complete, eight run, the rest queue
    pools = [site.pool for site in gae.grid.sites.values()]
    for pool in pools:
        pool._idle = _VisitCounting(pool._idle)
    states = {JobState.RUNNING: [], JobState.COMPLETED: [], JobState.QUEUED: []}
    for job in jobs:
        states[job.tasks[0].state].append(job.tasks[0].task_id)
    assert all(len(ids) >= 8 for ids in states.values())

    for task_id in states[JobState.RUNNING] + states[JobState.COMPLETED] + ["no-such-task"]:
        assert all(pool.queue_position(task_id) == -1 for pool in pools)
    assert sum(pool._idle.visited for pool in pools) == 0

    # R running ads used to cost R x |idle| here.
    records = gae.monitoring.collector.collect_running()
    assert len(records) == len(states[JobState.RUNNING]) == 8
    assert {r.queue_position for r in records} == {-1}
    assert sum(pool._idle.visited for pool in pools) == 0

    # A queued ad is still found by the walk (ROADMAP item 2 keeps it linear).
    last = pools[0].queue_snapshot()[-1]
    assert pools[0].queue_position(last.task_id) == len(pools[0].queue_snapshot()) - 1
    assert pools[0]._idle.visited > 0
