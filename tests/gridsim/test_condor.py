"""Unit tests for the Condor-like batch pool."""

import pytest

from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorError, CondorPool
from repro.gridsim.job import JobState, Task, TaskSpec
from repro.gridsim.node import LoadProfile, Node


def make_pool(sim, n_nodes=1, cpus=1, load=0.0):
    nodes = [
        Node(name=f"n{i}", cpu_count=cpus, load_profile=LoadProfile.constant(load))
        for i in range(n_nodes)
    ]
    return CondorPool(sim, "pool", nodes)


def make_task(work=100.0, priority=0, checkpointable=False, **kw):
    return Task(
        spec=TaskSpec(priority=priority, **kw),
        work_seconds=work,
        checkpointable=checkpointable,
    )


class TestSubmission:
    def test_submit_assigns_condor_ids_sequentially(self, sim):
        pool = make_pool(sim, n_nodes=2)
        ids = [pool.submit(make_task()) for _ in range(2)]
        assert ids == [1, 2]

    def test_submit_starts_immediately_when_slot_free(self, sim):
        pool = make_pool(sim)
        t = make_task()
        pool.submit(t)
        assert t.state is JobState.RUNNING

    def test_excess_tasks_queue(self, sim):
        pool = make_pool(sim)
        t1, t2 = make_task(), make_task()
        pool.submit(t1)
        pool.submit(t2)
        assert t1.state is JobState.RUNNING
        assert t2.state is JobState.QUEUED
        assert pool.queue_position(t2.task_id) == 0

    def test_duplicate_live_submission_rejected(self, sim):
        pool = make_pool(sim)
        t = make_task()
        pool.submit(t)
        with pytest.raises(CondorError):
            pool.submit(t)

    def test_terminal_ad_archived_on_resubmission(self, sim):
        pool = make_pool(sim)
        t = make_task(work=10.0)
        pool.submit(t)
        pool.kill(t.task_id)
        pool.submit(t)  # rerun after kill
        assert len(pool.archive) == 1
        assert pool.ad(t.task_id).state is JobState.RUNNING

    def test_invalid_initial_work_rejected(self, sim):
        pool = make_pool(sim)
        with pytest.raises(CondorError):
            pool.submit(make_task(work=10.0), initial_work=20.0)


class TestCompletion:
    def test_free_cpu_completes_in_work_seconds(self, sim):
        pool = make_pool(sim)
        t = make_task(work=283.0)
        pool.submit(t)
        sim.run()
        ad = pool.ad(t.task_id)
        assert t.state is JobState.COMPLETED
        assert ad.end_time == pytest.approx(283.0)
        assert ad.accrued_work == pytest.approx(283.0)

    def test_loaded_cpu_stretches_completion(self, sim):
        pool = make_pool(sim, load=1.0)
        t = make_task(work=100.0)
        pool.submit(t)
        sim.run()
        assert pool.ad(t.task_id).end_time == pytest.approx(200.0)

    def test_queued_task_starts_after_predecessor(self, sim):
        pool = make_pool(sim)
        t1, t2 = make_task(work=50.0), make_task(work=30.0)
        pool.submit(t1)
        pool.submit(t2)
        sim.run()
        ad2 = pool.ad(t2.task_id)
        assert ad2.start_time == pytest.approx(50.0)
        assert ad2.end_time == pytest.approx(80.0)

    def test_on_complete_callbacks_fire(self, sim):
        pool = make_pool(sim)
        done = []
        pool.on_complete.append(lambda ad: done.append(ad.task_id))
        t = make_task(work=10.0)
        pool.submit(t)
        sim.run()
        assert done == [t.task_id]

    def test_progress_tracks_wall_clock_accrual(self, sim):
        """The paper's 141s-of-283s => ~50% progress example."""
        pool = make_pool(sim, load=1.0)  # half rate
        t = make_task(work=283.0)
        pool.submit(t)
        sim.run_until(282.0)
        ad = pool.status(t.task_id)
        assert ad.accrued_work == pytest.approx(141.0)
        assert ad.progress == pytest.approx(141.0 / 283.0)

    def test_load_profile_change_handled_analytically(self, sim):
        profile = LoadProfile.steps([(0.0, 1.0), (100.0, 0.0)])
        pool = CondorPool(sim, "p", [Node(name="n", load_profile=profile)])
        t = make_task(work=150.0)
        pool.submit(t)
        sim.run()
        # 100 s at half rate = 50 work; 100 more at full rate.
        assert pool.ad(t.task_id).end_time == pytest.approx(200.0)


class TestPriorities:
    def test_higher_priority_dispatches_first(self, sim):
        pool = make_pool(sim)
        blocker = make_task(work=10.0)
        low = make_task(work=5.0, priority=1)
        high = make_task(work=5.0, priority=9)
        pool.submit(blocker)
        pool.submit(low)
        pool.submit(high)
        assert pool.queue_snapshot()[0].task_id == high.task_id
        sim.run()
        assert pool.ad(high.task_id).start_time < pool.ad(low.task_id).start_time

    def test_fifo_within_priority(self, sim):
        pool = make_pool(sim)
        pool.submit(make_task(work=10.0))
        a = make_task(work=5.0, priority=3)
        b = make_task(work=5.0, priority=3)
        pool.submit(a)
        pool.submit(b)
        snap = pool.queue_snapshot()
        assert [ad.task_id for ad in snap] == [a.task_id, b.task_id]

    def test_set_priority_reorders_queue(self, sim):
        pool = make_pool(sim)
        pool.submit(make_task(work=10.0))
        a = make_task(work=5.0, priority=1)
        b = make_task(work=5.0, priority=1)
        pool.submit(a)
        pool.submit(b)
        pool.set_priority(b.task_id, 10)
        assert pool.queue_snapshot()[0].task_id == b.task_id

    def test_set_priority_on_terminal_rejected(self, sim):
        pool = make_pool(sim)
        t = make_task(work=1.0)
        pool.submit(t)
        sim.run()
        with pytest.raises(CondorError):
            pool.set_priority(t.task_id, 5)

    def test_tasks_ahead_of(self, sim):
        pool = make_pool(sim)
        running = make_task(work=100.0)
        ahead = make_task(work=10.0, priority=5)
        me = make_task(work=10.0, priority=1)
        behind = make_task(work=10.0, priority=0)
        for t in (running, ahead, me, behind):
            pool.submit(t)
        names = {ad.task_id for ad in pool.tasks_ahead_of(me.task_id)}
        assert names == {running.task_id, ahead.task_id}


class TestJobControl:
    def test_pause_freezes_progress(self, sim):
        pool = make_pool(sim)
        t = make_task(work=100.0)
        pool.submit(t)
        sim.run_until(30.0)
        pool.pause(t.task_id)
        sim.run_until(500.0)
        ad = pool.status(t.task_id)
        assert ad.state is JobState.PAUSED
        assert ad.accrued_work == pytest.approx(30.0)

    def test_resume_continues_from_pause_point(self, sim):
        pool = make_pool(sim)
        t = make_task(work=100.0)
        pool.submit(t)
        sim.run_until(30.0)
        pool.pause(t.task_id)
        sim.run_until(100.0)
        pool.resume(t.task_id)
        sim.run()
        assert pool.ad(t.task_id).end_time == pytest.approx(170.0)

    def test_pause_keeps_slot(self, sim):
        pool = make_pool(sim)
        t1, t2 = make_task(work=100.0), make_task(work=10.0)
        pool.submit(t1)
        pool.submit(t2)
        pool.pause(t1.task_id)
        assert t2.state is JobState.QUEUED  # slot not released

    def test_pause_non_running_rejected(self, sim):
        pool = make_pool(sim)
        t1, t2 = make_task(), make_task()
        pool.submit(t1)
        pool.submit(t2)
        with pytest.raises(CondorError):
            pool.pause(t2.task_id)

    def test_resume_non_paused_rejected(self, sim):
        pool = make_pool(sim)
        t = make_task()
        pool.submit(t)
        with pytest.raises(CondorError):
            pool.resume(t.task_id)

    def test_kill_releases_slot_and_dispatches_next(self, sim):
        pool = make_pool(sim)
        t1, t2 = make_task(work=100.0), make_task(work=10.0)
        pool.submit(t1)
        pool.submit(t2)
        pool.kill(t1.task_id)
        assert t1.state is JobState.KILLED
        assert t2.state is JobState.RUNNING

    def test_kill_terminal_rejected(self, sim):
        pool = make_pool(sim)
        t = make_task(work=1.0)
        pool.submit(t)
        sim.run()
        with pytest.raises(CondorError):
            pool.kill(t.task_id)

    def test_vacate_returns_progress(self, sim):
        pool = make_pool(sim)
        t = make_task(work=100.0)
        pool.submit(t)
        sim.run_until(40.0)
        ad = pool.vacate(t.task_id)
        assert ad.state is JobState.MOVED
        assert ad.accrued_work == pytest.approx(40.0)

    def test_unknown_task_raises(self, sim):
        pool = make_pool(sim)
        with pytest.raises(CondorError):
            pool.ad("ghost")
        with pytest.raises(CondorError):
            pool.ad_by_condor_id(99)


class TestFailure:
    def test_fail_task_fires_callbacks(self, sim):
        pool = make_pool(sim)
        failed = []
        pool.on_failed.append(lambda ad: failed.append(ad.task_id))
        t = make_task()
        pool.submit(t)
        pool.fail_task(t.task_id)
        assert failed == [t.task_id]
        assert t.state is JobState.FAILED

    def test_crash_fails_everything(self, sim):
        pool = make_pool(sim, n_nodes=2)
        tasks = [make_task() for _ in range(3)]
        for t in tasks:
            pool.submit(t)
        victims = pool.crash()
        assert len(victims) == 3
        assert all(t.state is JobState.FAILED for t in tasks)

    def test_crash_skips_already_terminal(self, sim):
        pool = make_pool(sim)
        t = make_task(work=1.0)
        pool.submit(t)
        sim.run()
        assert pool.crash() == []


class TestFlocking:
    def test_idle_jobs_flock_to_free_pool(self, sim):
        a = make_pool(sim)
        b = CondorPool(sim, "poolB", [Node(name="bn")])
        a.enable_flocking(b)
        t1, t2 = make_task(work=100.0), make_task(work=50.0)
        a.submit(t1)
        a.submit(t2)  # no free slot at A -> flocks to B
        assert b.has_task(t2.task_id)
        assert t2.state is JobState.RUNNING

    def test_checkpointable_flocked_job_carries_work(self, sim):
        a = make_pool(sim)
        b = CondorPool(sim, "poolB", [Node(name="bn")])
        t1 = make_task(work=100.0)
        a.submit(t1)
        t2 = make_task(work=100.0, checkpointable=True)
        a.submit(t2)  # queued at A (no flocking yet)
        # Manually seed progress then enable flocking via resubmission path:
        a.enable_flocking(b)
        a._try_flock()
        assert b.has_task(t2.task_id)

    def test_self_flocking_rejected(self, sim):
        pool = make_pool(sim)
        with pytest.raises(CondorError):
            pool.enable_flocking(pool)


class TestLoadIndicator:
    def test_empty_pool_load_zero(self, sim):
        assert make_pool(sim).current_load() == 0.0

    def test_load_grows_with_occupancy_and_queue(self, sim):
        pool = make_pool(sim)
        pool.submit(make_task())
        l1 = pool.current_load()
        pool.submit(make_task())
        l2 = pool.current_load()
        assert 0 < l1 < l2

    def test_background_load_included(self, sim):
        pool = make_pool(sim, load=2.0)
        assert pool.current_load() == pytest.approx(2.0)


class TestFlockChains:
    def test_flocking_cascades_through_a_chain(self, sim):
        """A -> B -> C: if B is also full, the job lands at C."""
        a = make_pool(sim)
        b = CondorPool(sim, "poolB", [Node(name="bn")])
        c = CondorPool(sim, "poolC", [Node(name="cn")])
        a.enable_flocking(b)
        b.enable_flocking(c)
        # Fill A and B.
        a.submit(make_task(work=1000.0))
        b.submit(make_task(work=1000.0))
        overflow = make_task(work=10.0)
        a.submit(overflow)  # A full -> flocks to B; B full -> flocks to C
        assert c.has_task(overflow.task_id)
        sim.run_until(20.0)
        assert overflow.state is JobState.COMPLETED


class TestPausedTaskControl:
    def test_vacate_paused_task_and_restart_elsewhere(self, sim):
        a = make_pool(sim)
        b = CondorPool(sim, "poolB", [Node(name="bn")])
        t = make_task(work=100.0)
        a.submit(t)
        sim.run_until(30.0)
        a.pause(t.task_id)
        ad = a.vacate(t.task_id)
        assert ad.accrued_work == pytest.approx(30.0)
        assert a.nodes[0].free_slots == 1  # the held slot was released
        b.submit(t, initial_work=ad.accrued_work if t.checkpointable else 0.0)
        sim.run()
        assert t.state is JobState.COMPLETED

    def test_kill_paused_task(self, sim):
        pool = make_pool(sim)
        t = make_task()
        pool.submit(t)
        pool.pause(t.task_id)
        pool.kill(t.task_id)
        assert t.state is JobState.KILLED
        assert pool.nodes[0].free_slots == 1

    def test_paused_task_survives_queue_churn(self, sim):
        pool = make_pool(sim, n_nodes=2)
        paused = make_task(work=100.0)
        pool.submit(paused)
        pool.pause(paused.task_id)
        # Other work flows through the remaining slot.
        others = [make_task(work=5.0) for _ in range(3)]
        for o in others:
            pool.submit(o)
        sim.run_until(100.0)
        assert all(o.state is JobState.COMPLETED for o in others)
        assert paused.state is JobState.PAUSED
        pool.resume(paused.task_id)
        sim.run()
        assert paused.state is JobState.COMPLETED

    def test_mutual_flocking_with_no_capacity_does_not_loop(self, sim):
        """A <-> B, both full: the job stays queued, no infinite handoff."""
        a = make_pool(sim)
        b = CondorPool(sim, "poolB", [Node(name="bn")])
        a.enable_flocking(b)
        b.enable_flocking(a)
        a.submit(make_task(work=1000.0))
        b.submit(make_task(work=1000.0))
        waiting = make_task(work=10.0)
        a.submit(waiting)  # nowhere to go; must terminate cleanly
        assert waiting.state is JobState.QUEUED
        assert a.has_task(waiting.task_id)
        sim.run_until(1011.0)
        assert waiting.state is JobState.COMPLETED

    def test_flock_to_reachable_capacity_through_full_middle_both_ways(self, sim):
        """Cycle-safe reachability: A <-> B, C hangs off B with capacity."""
        a = make_pool(sim)
        b = CondorPool(sim, "poolB", [Node(name="bn")])
        c = CondorPool(sim, "poolC", [Node(name="cn")])
        a.enable_flocking(b)
        b.enable_flocking(a, c)
        a.submit(make_task(work=1000.0))
        b.submit(make_task(work=1000.0))
        job = make_task(work=10.0)
        a.submit(job)
        assert c.has_task(job.task_id)
        sim.run_until(20.0)
        assert job.state is JobState.COMPLETED


class TestRestore:
    def queued_pool(self, sim, priorities=(0, 5, 0, 9, 5)):
        pool = make_pool(sim)
        pool.submit(make_task(work=1000.0, priority=10))  # holds the only slot
        tasks = [make_task(priority=p) for p in priorities]
        for t in tasks:
            pool.submit(t)
        return pool, {t.task_id: t for t in tasks + [pool.running_snapshot()[0].task]}

    def test_round_trip_keeps_dispatch_order_and_places_later_submits(self, sim):
        pool, tasks = self.queued_pool(sim)
        restored = make_pool(Simulator())
        restored.restore_state(pool.snapshot_state(), tasks.__getitem__)
        assert [ad.task_id for ad in restored.queue_snapshot()] == [
            ad.task_id for ad in pool.queue_snapshot()
        ]
        late = make_task(priority=7)
        restored.submit(late)
        queue = restored.queue_snapshot()
        assert queue == sorted(queue, key=lambda ad: ad.sort_key())
        assert restored.queue_position(late.task_id) == 1  # behind the 9, ahead of the 5s

    def test_out_of_order_idle_queue_rejected(self, sim):
        pool, tasks = self.queued_pool(sim)
        state = pool.snapshot_state()
        state["idle"][1], state["idle"][2] = state["idle"][2], state["idle"][1]
        offender = state["idle"][2]
        with pytest.raises(CondorError) as err:
            make_pool(Simulator()).restore_state(state, tasks.__getitem__)
        assert "pool pool" in str(err.value) and offender in str(err.value)

    def test_duplicated_idle_entry_rejected(self, sim):
        pool, tasks = self.queued_pool(sim)
        state = pool.snapshot_state()
        state["idle"].insert(1, state["idle"][0])
        with pytest.raises(CondorError, match=state["idle"][0]):
            make_pool(Simulator()).restore_state(state, tasks.__getitem__)

    # -- the queue holds exactly the QUEUED ads; allocations must fit ----
    def gang_pool(self, sim):
        """Two 2-cpu nodes: a 3-slot gang spans both, a 1-slot task fills
        the rest, a third task queues."""
        pool = make_pool(sim, n_nodes=2, cpus=2)
        tasks = [make_task(work=500.0, nodes=3), make_task(work=500.0), make_task()]
        for t in tasks:
            pool.submit(t)
        gang = pool.ad(tasks[0].task_id)
        assert [n.name for n in gang.allocated] == ["n0", "n1"]
        assert pool.busy_slots == 4 and len(pool.queue_snapshot()) == 1
        return pool, {t.task_id: t for t in tasks}, tasks

    def test_gang_round_trip_recounts_busy_slots_and_frees_what_nodes_held(self, sim):
        pool, by_id, (gang, single, queued) = self.gang_pool(sim)
        sim.run_until(10.0)
        restored_sim = Simulator(start=sim.now)
        restored = make_pool(restored_sim, n_nodes=2, cpus=2)
        restored.restore_state(pool.snapshot_state(), by_id.__getitem__)
        assert restored.busy_slots == 4 and restored._free_slots_total() == 0
        assert [n.free_slots for n in restored.nodes] == [0, 0]
        assert restored.queue_position(queued.task_id) == 0
        assert restored.queue_position(gang.task_id) == -1
        # Killing the gang frees the three slots its nodes held: the queued
        # task starts, and the count is again what the nodes say.
        restored.kill(gang.task_id)
        assert restored.ad(queued.task_id).state is JobState.RUNNING
        assert restored.busy_slots == 2 == sum(len(n.running_task_ids) for n in restored.nodes)
        restored_sim.run()
        assert restored.busy_slots == 0

    def refused(self, sim, corrupt):
        pool, by_id, tasks = self.gang_pool(sim)
        state = pool.snapshot_state()
        offender = corrupt(state, *tasks)
        with pytest.raises(CondorError) as err:
            make_pool(Simulator(), n_nodes=2, cpus=2).restore_state(state, by_id.__getitem__)
        assert "pool pool" in str(err.value) and offender in str(err.value)

    def test_idle_entry_that_is_not_queued_rejected(self, sim):
        def corrupt(state, gang, single, queued):
            state["idle"].insert(0, single.task_id)  # a RUNNING ad, in order
            return single.task_id

        self.refused(sim, corrupt)

    def test_queued_ad_missing_from_idle_rejected(self, sim):
        def corrupt(state, gang, single, queued):
            state["idle"].remove(queued.task_id)
            return queued.task_id

        self.refused(sim, corrupt)

    def test_allocation_a_node_cannot_seat_rejected(self, sim):
        def corrupt(state, gang, single, queued):
            wire = next(w for w in state["ads"] if w["task_id"] == gang.task_id)
            wire["allocated"] = [["n0", 3]]  # n0 has two cpus
            return gang.task_id

        self.refused(sim, corrupt)
