"""Property-based tests: batch-pool conservation and ordering invariants."""

from collections import Counter

import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorJobAd, CondorPool
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Job, JobState, Task, TaskSpec
from repro.gridsim.node import LoadProfile, Node
from repro.gridsim.scheduler import SphinxScheduler
from repro.gridsim.site import Site

work_values = st.floats(min_value=1.0, max_value=500.0, allow_nan=False)
priorities = st.integers(min_value=0, max_value=9)
loads = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


class TestPoolProperties:
    @given(
        st.lists(st.tuples(work_values, priorities), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=4),
        loads,
    )
    @settings(max_examples=60, deadline=None)
    def test_every_job_completes_with_exact_work(self, jobs, slots, load):
        sim = Simulator()
        pool = CondorPool(
            sim, "p",
            [Node(name="n", cpu_count=slots, load_profile=LoadProfile.constant(load))],
        )
        tasks = [
            Task(spec=TaskSpec(priority=p), work_seconds=w) for w, p in jobs
        ]
        for t in tasks:
            pool.submit(t)
        sim.run()
        for t in tasks:
            ad = pool.ad(t.task_id)
            assert t.state is JobState.COMPLETED
            assert abs(ad.accrued_work - t.work_seconds) < 1e-6
            # Wall time on node is work / rate.
            assert ad.end_time - ad.start_time >= t.work_seconds - 1e-6

    @given(st.lists(st.tuples(work_values, priorities), min_size=2, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_single_slot_start_order_respects_priority(self, jobs):
        sim = Simulator()
        blocker = Task(spec=TaskSpec(priority=10), work_seconds=5.0)
        pool = CondorPool(sim, "p", [Node(name="n")])
        pool.submit(blocker)
        tasks = [Task(spec=TaskSpec(priority=p), work_seconds=w) for w, p in jobs]
        for t in tasks:
            pool.submit(t)
        sim.run()
        starts = [(pool.ad(t.task_id).start_time, -t.priority, pool.ad(t.task_id).condor_id) for t in tasks]
        # Start times must be sorted consistently with (priority desc, id asc).
        expected_order = sorted(tasks, key=lambda t: (-t.priority, pool.ad(t.task_id).condor_id))
        actual_order = sorted(tasks, key=lambda t: pool.ad(t.task_id).start_time)
        assert [t.task_id for t in actual_order] == [t.task_id for t in expected_order]

    @given(
        st.lists(work_values, min_size=1, max_size=10),
        st.floats(min_value=1.0, max_value=200.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_pause_resume_preserves_total_work(self, works, pause_at):
        sim = Simulator()
        pool = CondorPool(sim, "p", [Node(name="n")])
        t = Task(spec=TaskSpec(), work_seconds=sum(works))
        pool.submit(t)
        sim.run_until(min(pause_at, sum(works) / 2))
        pool.pause(t.task_id)
        sim.run_until(sim.now + 100.0)
        pool.resume(t.task_id)
        sim.run()
        total = sum(works)
        assert abs(pool.ad(t.task_id).accrued_work - total) < 1e-6 * max(1.0, total)

    @given(st.lists(work_values, min_size=1, max_size=12), st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_slots_never_oversubscribed(self, works, slots):
        sim = Simulator()
        node = Node(name="n", cpu_count=slots)
        pool = CondorPool(sim, "p", [node])
        for w in works:
            pool.submit(Task(spec=TaskSpec(), work_seconds=w))
        while sim.step():
            assert len(node.running_task_ids) <= slots


# ----------------------------------------------------------------------
# admission by bisection: same queue, same starts, same counts
# ----------------------------------------------------------------------
class AppendAndSortPool(CondorPool):
    """The reference admission: append, then re-sort the whole idle queue.

    ``submit`` as it stood before placement by bisection, minus the two
    argument-range checks (the interleavings below never trip them).
    """

    def submit(self, task, initial_work=0.0):
        if task.task_id in self._ads:
            old = self._ads[task.task_id]
            assert old.state.is_terminal
            self.archive.append(old)
            del self._ads[task.task_id]
            del self._by_condor_id[old.condor_id]
        ad = CondorJobAd(
            task=task,
            condor_id=self._next_condor_id,
            priority=task.spec.priority,
            submit_time=self.sim.now,
            accrued_work=initial_work,
        )
        self._next_condor_id += 1
        self._ads[task.task_id] = ad
        self._by_condor_id[ad.condor_id] = ad
        task.state = JobState.QUEUED
        ad.state = JobState.QUEUED
        self._idle.append(ad)
        self._idle.sort(key=CondorJobAd.sort_key)
        self._notify_state(ad)
        self._try_dispatch()
        return ad.condor_id


class FlockingRig:
    """Two mutually flocking pools (1 and 2 slots) behind one scheduler."""

    SITES = (("a", 1), ("b", 2))

    def __init__(self, pool_cls):
        self.sim = Simulator()
        self.scheduler = SphinxScheduler(self.sim)
        self.pools = {}
        self.tasks = []
        #: task id -> submission index: ids differ between the two rigs of
        #: one example, submission order does not.
        self.index = {}
        self.starts = []  # (submission index, site, time) in start order
        self.forwards = 0
        for name, slots in self.SITES:
            site = Site.simple(self.sim, name, n_nodes=slots)
            site.pool = pool_cls(self.sim, name, site.pool.nodes)
            service = ExecutionService(site)
            service.runtime_estimator = lambda spec: 100.0
            self.scheduler.register_site(service)
            site.pool.on_state_change.append(self._start_logger(name))
            site.pool.on_forwarded.append(self._count_forward)
            self.pools[name] = site.pool
        self.pools["a"].enable_flocking(self.pools["b"])
        self.pools["b"].enable_flocking(self.pools["a"])

    def _start_logger(self, site):
        def on_state_change(ad):
            if ad.state is JobState.RUNNING:
                self.starts.append((self.index[ad.task_id], site, self.sim.now))

        return on_state_change

    def _count_forward(self, ad):
        self.forwards += 1

    def _live(self, pick):
        """The pick-th task not yet in a terminal state, with its pool."""
        live = [t for t in self.tasks if not t.state.is_terminal]
        if not live:
            return None, None
        task = live[pick % len(live)]
        return task, self.pools[self.scheduler.site_of_task(task.task_id)]

    def apply(self, op, pick, value):
        if op == "submit":
            task = Task(
                spec=TaskSpec(priority=value % 4),
                work_seconds=20.0 + 10.0 * (pick % 5),
                checkpointable=bool(pick % 2),
            )
            self.index[task.task_id] = len(self.tasks)
            self.tasks.append(task)
            self.scheduler.submit_job(Job(tasks=[task], owner="u"))
            return
        if op == "advance":
            self.sim.run_until(self.sim.now + 5.0 * (1 + value))
            return
        task, pool = self._live(pick)
        if task is None:
            return
        if op == "set_priority":
            pool.set_priority(task.task_id, value % 4)
        elif op == "pause":  # suspend a running task / resume a suspended one
            state = pool.ad(task.task_id).state
            if state is JobState.RUNNING:
                pool.pause(task.task_id)
            elif state is JobState.PAUSED:
                pool.resume(task.task_id)
        elif op == "kill":
            pool.kill(task.task_id)
        elif op == "move":  # the steering service's vacate-then-redirect
            ad = pool.vacate(task.task_id)
            carried = ad.accrued_work if task.checkpointable else 0.0
            self.scheduler.redirect_task(task.task_id, carry_work=carried)
        elif op == "fail":  # Backup & Recovery's fail-then-resubmit
            pool.fail_task(task.task_id)
            self.scheduler.resubmit_task(task.task_id)

    def queues(self):
        return {
            name: [self.index[ad.task_id] for ad in pool.queue_snapshot()]
            for name, pool in self.pools.items()
        }


def assert_counts_are_a_recount(scheduler):
    recount = Counter(scheduler._commitments.values())
    assert all(n >= 0 for n in scheduler._committed_count.values())
    assert {s: n for s, n in scheduler._committed_count.items() if n} == dict(recount)


def assert_slot_counts_and_positions_are_a_rescan(pool, task_ids):
    """The pool's O(1) answers against the walks they replaced.

    *task_ids* is every id ever submitted anywhere — queued, running,
    paused, terminal, flocked away to the other pool — plus an unknown one.
    """
    assert pool.busy_slots == sum(len(n.running_task_ids) for n in pool.nodes)
    assert pool._free_slots_total() == sum(n.free_slots for n in pool.nodes)
    for task_id in [*task_ids, "no-such-task"]:
        scan = -1
        for i, ad in enumerate(pool.queue_snapshot()):
            if ad.task_id == task_id:
                scan = i
                break
        assert pool.queue_position(task_id) == scan


admission_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "submit", "submit", "submit", "advance", "set_priority",
                "pause", "kill", "move", "fail",
            ]
        ),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=8,
    max_size=60,
)


class TestAdmissionByBisection:
    @given(admission_ops)
    @settings(max_examples=120, deadline=None)
    def test_interleavings_match_append_and_sort_reference(self, ops):
        subject, reference = FlockingRig(CondorPool), FlockingRig(AppendAndSortPool)
        for op in ops:
            subject.apply(*op)
            reference.apply(*op)
            for name, pool in subject.pools.items():
                queued = [
                    pool.ad(t.task_id)
                    for t in subject.tasks
                    if pool.has_task(t.task_id)
                    and pool.ad(t.task_id).state is JobState.QUEUED
                ]
                assert pool.queue_snapshot() == sorted(queued, key=CondorJobAd.sort_key)
                assert_slot_counts_and_positions_are_a_rescan(
                    pool, [t.task_id for t in subject.tasks]
                )
            assert subject.queues() == reference.queues()
            assert subject.starts == reference.starts
            assert_counts_are_a_recount(subject.scheduler)
        hypothesis.event(f"flock-forwards: {min(subject.forwards, 3)}")

        # A restored scheduler recounts; a restored pool accepts the queue
        # it is handed and keeps placing later arrivals in dispatch order.
        restored = SphinxScheduler(Simulator())
        restored.restore_state(subject.scheduler.snapshot_state())
        assert_counts_are_a_recount(restored)
        assert restored._committed_count == {
            s: n for s, n in subject.scheduler._committed_count.items() if n
        }
        for name, pool in subject.pools.items():
            twin = CondorPool(Simulator(), name, [Node(name=n.name) for n in pool.nodes])
            twin.restore_state(pool.snapshot_state(), restored.task)
            assert [ad.task_id for ad in twin.queue_snapshot()] == [
                ad.task_id for ad in pool.queue_snapshot()
            ]
            assert twin.busy_slots == pool.busy_slots
            assert_slot_counts_and_positions_are_a_rescan(
                twin, [t.task_id for t in subject.tasks]
            )
