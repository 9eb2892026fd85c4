"""Unit tests for multi-node (gang) task scheduling in the pool."""

import pytest

from repro.gridsim.condor import CondorError, CondorPool
from repro.gridsim.job import JobState, Task, TaskSpec
from repro.gridsim.node import LoadProfile, Node


def make_pool(sim, node_specs):
    """node_specs: list of (cpu_count, load)."""
    nodes = [
        Node(name=f"n{i}", cpu_count=c, load_profile=LoadProfile.constant(l))
        for i, (c, l) in enumerate(node_specs)
    ]
    return CondorPool(sim, "pool", nodes)


def gang_task(nodes, work=100.0, priority=0):
    return Task(
        spec=TaskSpec(nodes=nodes, priority=priority, requested_cpu_hours=work / 3600.0),
        work_seconds=work,
    )


class TestCombineMaxProfile:
    def test_single_profile_identity(self):
        p = LoadProfile.constant(2.0)
        assert LoadProfile.combine_max([p]) is p

    def test_max_of_constants(self):
        combined = LoadProfile.combine_max(
            [LoadProfile.constant(1.0), LoadProfile.constant(3.0)]
        )
        assert combined.load_at(0.0) == 3.0

    def test_union_of_breakpoints(self):
        a = LoadProfile.steps([(0.0, 0.0), (100.0, 5.0)])
        b = LoadProfile.steps([(0.0, 2.0), (200.0, 0.0)])
        c = LoadProfile.combine_max([a, b])
        assert c.load_at(50.0) == 2.0    # max(0, 2)
        assert c.load_at(150.0) == 5.0   # max(5, 2)
        assert c.load_at(250.0) == 5.0   # max(5, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LoadProfile.combine_max([])


class TestGangDispatch:
    def test_gang_spans_multiple_nodes(self, sim):
        pool = make_pool(sim, [(2, 0.0), (2, 0.0)])
        t = gang_task(nodes=4, work=50.0)
        pool.submit(t)
        ad = pool.ad(t.task_id)
        assert t.state is JobState.RUNNING
        assert len(ad.allocated) == 2
        assert pool.busy_slots == 4
        sim.run()
        assert ad.end_time == pytest.approx(50.0)

    def test_gang_waits_for_enough_slots(self, sim):
        pool = make_pool(sim, [(2, 0.0)])
        small = gang_task(nodes=1, work=30.0)
        big = gang_task(nodes=2, work=10.0)
        pool.submit(small)
        pool.submit(big)
        assert big.state is JobState.QUEUED  # only 1 slot free
        sim.run_until(30.0)
        assert big.state is JobState.RUNNING
        sim.run()
        assert pool.ad(big.task_id).end_time == pytest.approx(40.0)

    def test_no_backfill_preserves_queue_order(self, sim):
        pool = make_pool(sim, [(2, 0.0)])
        pool.submit(gang_task(nodes=1, work=50.0))   # occupies 1 slot
        blocked = gang_task(nodes=2, work=10.0)       # can't fit yet
        little = gang_task(nodes=1, work=10.0)        # *could* fit, but waits
        pool.submit(blocked)
        pool.submit(little)
        assert blocked.state is JobState.QUEUED
        assert little.state is JobState.QUEUED  # strict order: no backfill
        sim.run()
        assert pool.ad(blocked.task_id).start_time < pool.ad(little.task_id).start_time

    def test_oversized_gang_rejected(self, sim):
        pool = make_pool(sim, [(2, 0.0)])
        with pytest.raises(CondorError):
            pool.submit(gang_task(nodes=5))

    def test_oversized_gang_allowed_with_flocking(self, sim):
        pool = make_pool(sim, [(1, 0.0)])
        big_pool = make_pool(sim, [(4, 0.0)])
        big_pool.name = "big"
        pool.enable_flocking(big_pool)
        t = gang_task(nodes=3, work=20.0)
        pool.submit(t)  # flocks to the big pool
        assert big_pool.has_task(t.task_id)
        sim.run()
        assert t.state is JobState.COMPLETED


class TestGangProgress:
    def test_slowest_node_sets_the_pace(self, sim):
        """SPMD gang: progress at the max-load node's rate."""
        pool = make_pool(sim, [(1, 0.0), (1, 1.0)])  # free + half-speed
        t = gang_task(nodes=2, work=100.0)
        pool.submit(t)
        sim.run()
        # Rate = 1/(1+max load) = 0.5 -> 200 s.
        assert pool.ad(t.task_id).end_time == pytest.approx(200.0)

    def test_gang_pause_resume(self, sim):
        pool = make_pool(sim, [(2, 0.0)])
        t = gang_task(nodes=2, work=100.0)
        pool.submit(t)
        sim.run_until(30.0)
        pool.pause(t.task_id)
        sim.run_until(200.0)
        pool.resume(t.task_id)
        sim.run()
        assert pool.ad(t.task_id).end_time == pytest.approx(270.0)

    def test_gang_vacate_releases_all_slots(self, sim):
        pool = make_pool(sim, [(2, 0.0), (2, 0.0)])
        t = gang_task(nodes=4, work=100.0)
        pool.submit(t)
        sim.run_until(25.0)
        ad = pool.vacate(t.task_id)
        assert ad.accrued_work == pytest.approx(25.0)
        assert pool.busy_slots == 0
        assert all(n.free_slots == n.cpu_count for n in pool.nodes)

    def test_gang_failure_releases_all_slots(self, sim):
        pool = make_pool(sim, [(4, 0.0)])
        t = gang_task(nodes=3)
        pool.submit(t)
        pool.fail_task(t.task_id)
        assert pool.busy_slots == 0

    def test_profile_change_respected_for_gang(self, sim):
        stepped = LoadProfile.steps([(0.0, 0.0), (50.0, 3.0)])
        nodes = [
            Node(name="a", load_profile=stepped),
            Node(name="b", load_profile=LoadProfile.constant(1.0)),
        ]
        pool = CondorPool(sim, "p", nodes)
        t = gang_task(nodes=2, work=100.0)
        pool.submit(t)
        sim.run()
        # First 50 s at rate 1/(1+max(0,1))=0.5 -> 25 work; remaining 75 at
        # rate 1/(1+max(3,1))=0.25 -> 300 s more.
        assert pool.ad(t.task_id).end_time == pytest.approx(350.0)
