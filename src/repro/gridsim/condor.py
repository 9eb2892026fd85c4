"""A Condor-like batch pool simulator.

This is the substrate standing in for the Condor pools the paper ran on
(§3: "an execution service (which can be based on any execution engine such
as Condor)").  It reproduces the Condor behaviours the paper's experiments
rely on:

- a priority queue of idle jobs (higher numeric priority runs first; FIFO
  within a priority level),
- per-job *accumulated wall-clock time* that advances only while the job
  actually receives CPU — the quantity §7 uses to chart job progress ("this
  'wall-clock' time does not include the time during which the job is idle
  and waiting for the CPU"),
- background CPU load on nodes diluting that accrual (Figure 7's site A),
- job-control verbs: suspend (pause), resume, kill (remove), change
  priority, and vacate-for-move,
- optional checkpointing: a vacated checkpointable job carries its accrued
  work to the next pool ("the job can be completed even quicker … if it is
  checkpoint-able and flocking is enabled", §7),
- flocking: a pool with no free slots may forward idle jobs to a friendly
  pool.

Finish times are computed *analytically* from piecewise-constant load
profiles (see :mod:`repro.gridsim.node`), so the simulation is exact — no
time-stepping error in any figure.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.gridsim.clock import Simulator
from repro.gridsim.events import EventHandle
from repro.gridsim.job import JobState, Task
from repro.gridsim.node import LoadProfile, Node


class CondorError(RuntimeError):
    """Raised for invalid job-control operations (unknown id, bad state)."""


@dataclass(slots=True)
class CondorJobAd:
    """The pool's bookkeeping record for one task (a Condor "ClassAd").

    ``accrued_work`` is the Condor accumulated-wall-clock counter: CPU
    seconds of useful work completed so far.  Progress fraction is
    ``accrued_work / task.work_seconds`` — exactly the paper's "if the job
    has accumulated 141 s of wall-clock time … roughly 50 % of the job is
    complete" for the 283 s prime job.
    """

    task: Task
    condor_id: int
    priority: int
    submit_time: float
    state: JobState = JobState.QUEUED
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    accrued_work: float = 0.0
    last_sync: Optional[float] = None
    #: Nodes holding this task's slots (several for a gang task); the
    #: shared empty tuple while the task holds none.
    allocated: Tuple[Node, ...] = ()
    #: Pointwise-max load profile across the allocated nodes.
    effective_profile: Optional[LoadProfile] = None
    input_io_mb: float = 0.0
    output_io_mb: float = 0.0
    local_output_files: Tuple[str, ...] = ()
    _finish_handle: Optional[EventHandle] = None

    @property
    def task_id(self) -> str:
        return self.task.task_id

    @property
    def node(self) -> Optional[Node]:
        """The first allocated node (None while queued/terminal)."""
        return self.allocated[0] if self.allocated else None

    @property
    def slots_needed(self) -> int:
        """CPU slots this task occupies when running (spec.nodes)."""
        return self.task.spec.nodes

    @property
    def remaining_work(self) -> float:
        """CPU-seconds of work still to do."""
        return max(0.0, self.task.work_seconds - self.accrued_work)

    @property
    def progress(self) -> float:
        """Completed fraction in [0, 1]."""
        return min(1.0, self.accrued_work / self.task.work_seconds)

    def elapsed_runtime(self) -> float:
        """Accumulated wall-clock (CPU) time, Condor-style."""
        return self.accrued_work

    def sort_key(self) -> tuple:
        """Queue order: higher priority first, then FIFO by condor id."""
        return (-self.priority, self.condor_id)


class CondorPool:
    """A single site's batch pool.

    Parameters
    ----------
    sim:
        The owning discrete-event simulator.
    name:
        Pool (site) name, used in job ads and flocking.
    nodes:
        Worker nodes; each contributes ``cpu_count`` slots.
    """

    def __init__(self, sim: Simulator, name: str, nodes: List[Node]) -> None:
        if not nodes:
            raise ValueError("a pool needs at least one node")
        self.sim = sim
        self.name = name
        self.nodes = list(nodes)
        # The node list is fixed at construction, so the slot total is too.
        self._total_slots = sum(n.cpu_count for n in self.nodes)
        # Slots the nodes hold for tasks, counted where this pool occupies
        # and releases them; derived state — rebuilt by restore_state.
        self._busy_slots = 0
        self._next_condor_id = 1
        self._ads: Dict[str, CondorJobAd] = {}          # task_id -> ad
        self._by_condor_id: Dict[int, CondorJobAd] = {}
        self._idle: List[CondorJobAd] = []              # queued, kept sorted
        self.archive: List[CondorJobAd] = []            # terminal ads displaced by resubmission
        self.flock_targets: List["CondorPool"] = []
        self.on_complete: List[Callable[[CondorJobAd], None]] = []
        self.on_failed: List[Callable[[CondorJobAd], None]] = []
        self.on_state_change: List[Callable[[CondorJobAd], None]] = []
        #: Fired when an idle job leaves this pool by flocking elsewhere.
        #: The ad's state is still QUEUED but the pool no longer owns it —
        #: incremental queue accounting subscribes here to drop the job's
        #: contribution from this pool's per-priority-band sums.
        self.on_forwarded: List[Callable[[CondorJobAd], None]] = []
        #: Fired by :meth:`set_priority` with the ad and its previous
        #: priority, before the state-change notification — the queue
        #: accounting re-files the job from the band it sat in.
        self.on_reprioritised: List[Callable[[CondorJobAd, int], None]] = []

    # ------------------------------------------------------------------
    # submission and dispatch
    # ------------------------------------------------------------------
    def submit(self, task: Task, initial_work: float = 0.0) -> int:
        """Enqueue *task*; returns its Condor id.

        ``initial_work`` seeds the accrued-work counter — used when a
        checkpointable job flocks/moves in from another pool.
        """
        if task.task_id in self._ads:
            old = self._ads[task.task_id]
            if not old.state.is_terminal:
                raise CondorError(
                    f"task {task.task_id} already submitted to pool {self.name}"
                )
            # A terminal earlier attempt is archived so the task may rerun
            # here (restart-on-same-site after a failure or kill).
            self.archive.append(old)
            del self._ads[task.task_id]
            del self._by_condor_id[old.condor_id]
        if initial_work < 0 or initial_work > task.work_seconds:
            raise CondorError(
                f"initial_work {initial_work!r} outside [0, {task.work_seconds}]"
            )
        if task.spec.nodes > self.total_slots and not self.flock_targets:
            raise CondorError(
                f"task {task.task_id} needs {task.spec.nodes} slots but pool "
                f"{self.name} only has {self.total_slots}"
            )
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
        insort(self._idle, ad, key=CondorJobAd.sort_key)
        self._notify_state(ad)
        self._try_dispatch()
        return ad.condor_id

    def _free_slots_total(self) -> int:
        return self._total_slots - self._busy_slots

    def _try_dispatch(self) -> None:
        # Strict order: the head of the queue runs first.  No backfilling —
        # that keeps the Queue Time Estimator's §6.2 semantics honest (the
        # per-slot division option models drain rate instead).
        while self._idle:
            head = self._idle[0]
            if head.slots_needed > self._free_slots_total():
                self._try_flock()
                return
            self._idle.pop(0)
            self._start(head)

    def _reachable_capacity(self, need: int, visited: frozenset) -> bool:
        """Whether any pool reachable over flock edges can seat *need* slots."""
        for p in self.flock_targets:
            if id(p) in visited:
                continue
            if p._free_slots_total() >= need:
                return True
            if p._reachable_capacity(need, visited | {id(p)}):
                return True
        return False

    def _try_flock(self) -> None:
        """Forward idle jobs toward friendly pools with free slots.

        Flocking cascades: a job handed to a full neighbour keeps moving
        along the flock chain as long as capacity is reachable somewhere
        (cycle-safe via the visited set), as Condor flocking chains do.
        """
        if not self.flock_targets:
            return
        still_idle: List[CondorJobAd] = []
        for ad in self._idle:
            target: Optional["CondorPool"] = None
            for p in self.flock_targets:
                if p._free_slots_total() >= ad.slots_needed or p._reachable_capacity(
                    ad.slots_needed, frozenset({id(self), id(p)})
                ):
                    target = p
                    break
            if target is None:
                still_idle.append(ad)
                continue
            # Hand the job over: it leaves this pool entirely.  The target's
            # own dispatch forwards it onward if the target is full.
            del self._ads[ad.task_id]
            del self._by_condor_id[ad.condor_id]
            for cb in list(self.on_forwarded):
                cb(ad)
            carried = ad.accrued_work if ad.task.checkpointable else 0.0
            target.submit(ad.task, initial_work=carried)
        self._idle = still_idle

    def _start(self, ad: CondorJobAd) -> None:
        # Greedy slot allocation across nodes; a gang task may span several.
        remaining = ad.slots_needed
        allocated = []
        for node in self.nodes:
            if remaining == 0:
                break
            take = min(node.free_slots, remaining)
            if take > 0:
                node.occupy(ad.task_id, slots=take)
                self._busy_slots += take
                allocated.append(node)
                remaining -= take
        assert remaining == 0, "dispatch guaranteed enough free slots"
        ad.allocated = tuple(allocated)
        ad.effective_profile = LoadProfile.combine_max(
            [n.load_profile for n in ad.allocated]
        )
        ad.state = JobState.RUNNING
        ad.task.state = JobState.RUNNING
        if ad.start_time is None:
            ad.start_time = self.sim.now
        ad.last_sync = self.sim.now
        self._arm_finish(ad)
        self._notify_state(ad)

    def _arm_finish(self, ad: CondorJobAd, at: Optional[float] = None) -> None:
        if at is None:  # the instant the remaining work accrues
            assert ad.effective_profile is not None
            now = self.sim.now
            at = now + ad.effective_profile.time_to_accrue(now, ad.remaining_work)
        ad._finish_handle = self.sim.at(
            at, lambda: self._finish(ad), label=f"finish:{ad.task_id}@{self.name}"
        )

    def _sync(self, ad: CondorJobAd) -> None:
        """Bring the accrued-work counter up to the current instant."""
        if (
            ad.state is not JobState.RUNNING
            or ad.last_sync is None
            or ad.effective_profile is None
        ):
            return
        ad.accrued_work = min(
            ad.task.work_seconds,
            ad.accrued_work
            + ad.effective_profile.work_between(ad.last_sync, self.sim.now),
        )
        ad.last_sync = self.sim.now

    def _finish(self, ad: CondorJobAd) -> None:
        self._sync(ad)
        ad.state = JobState.COMPLETED
        ad.task.state = JobState.COMPLETED
        ad.end_time = self.sim.now
        ad.output_io_mb = sum(1.0 for _ in ad.task.spec.output_files)  # 1 MB/file default
        ad.local_output_files = ad.task.spec.output_files
        self._release(ad)
        for cb in list(self.on_complete):
            cb(ad)
        self._notify_state(ad)
        self._try_dispatch()

    def _release(self, ad: CondorJobAd) -> None:
        for node in ad.allocated:
            self._busy_slots -= node.release(ad.task_id)
        ad.allocated = ()
        ad.effective_profile = None
        ad._finish_handle = None

    def _notify_state(self, ad: CondorJobAd) -> None:
        for cb in list(self.on_state_change):
            cb(ad)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def ad(self, task_id: str) -> CondorJobAd:
        """The job ad for a task id (CondorError if unknown)."""
        try:
            return self._ads[task_id]
        except KeyError:
            raise CondorError(f"no task {task_id!r} in pool {self.name}") from None

    def ad_by_condor_id(self, condor_id: int) -> CondorJobAd:
        """The job ad for a Condor id (CondorError if unknown)."""
        try:
            return self._by_condor_id[condor_id]
        except KeyError:
            raise CondorError(f"no condor id {condor_id} in pool {self.name}") from None

    def has_task(self, task_id: str) -> bool:
        """Whether this pool knows the task."""
        return task_id in self._ads

    def status(self, task_id: str) -> CondorJobAd:
        """The up-to-date ad (accrual synced to now) for a task."""
        ad = self.ad(task_id)
        self._sync(ad)
        return ad

    def queue_snapshot(self) -> List[CondorJobAd]:
        """Idle (queued) ads in dispatch order."""
        return list(self._idle)

    def running_snapshot(self, job_id: Optional[str] = None) -> List[CondorJobAd]:
        """Currently running ads (accruals synced), in condor-id order;
        with a *job_id*, only that job's."""
        running = [
            ad for ad in self._ads.values()
            if ad.state is JobState.RUNNING and (job_id is None or ad.task.job_id == job_id)
        ]
        for ad in running:
            self._sync(ad)
        return sorted(running, key=lambda a: a.condor_id)

    def queue_position(self, task_id: str) -> int:
        """0-based position in the idle queue; -1 if not queued."""
        ad = self._ads.get(task_id)
        # An ad is in ``_idle`` iff this pool owns it and it is QUEUED.
        if ad is None or ad.state is not JobState.QUEUED:
            return -1
        for i, queued in enumerate(self._idle):
            if queued is ad:
                return i
        return -1

    def tasks_ahead_of(self, task_id: str) -> List[CondorJobAd]:
        """Ads that will complete before the given queued task can start.

        This is the input set of the Queue Time Estimator (§6.2): every
        running job plus every queued job with higher priority (or equal
        priority but earlier submission).  A task that is already running
        (or finished) has nothing ahead of it.
        """
        ad = self.ad(task_id)
        if ad.state is not JobState.QUEUED:
            return []
        ahead = [a for a in self.running_snapshot() if a.task_id != task_id]
        for other in self._idle:
            if other.task_id == task_id:
                continue
            if other.sort_key() < ad.sort_key():
                ahead.append(other)
        return ahead

    @property
    def total_slots(self) -> int:
        """Total CPU slots across all nodes."""
        return self._total_slots

    @property
    def busy_slots(self) -> int:
        """Slots currently running a task."""
        return self._busy_slots

    def current_load(self) -> float:
        """Pool load indicator published to MonALISA.

        Combines slot occupancy with node background load: 0 means an empty,
        idle pool; values >1 mean oversubscription (queued work waiting).
        """
        bg = sum(n.load_at(self.sim.now) for n in self.nodes) / len(self.nodes)
        occupancy = self.busy_slots / self.total_slots
        queued = len(self._idle) / self.total_slots
        return bg + occupancy + queued

    # ------------------------------------------------------------------
    # job-control verbs (the steering service's command set)
    # ------------------------------------------------------------------
    def pause(self, task_id: str) -> None:
        """Suspend a running task (keeps its slot, Condor-suspend style)."""
        ad = self.ad(task_id)
        if ad.state is not JobState.RUNNING:
            raise CondorError(f"cannot pause task in state {ad.state.value}")
        self._sync(ad)
        if ad._finish_handle is not None:
            ad._finish_handle.cancel()
            ad._finish_handle = None
        ad.state = JobState.PAUSED
        ad.task.state = JobState.PAUSED
        self._notify_state(ad)

    def resume(self, task_id: str) -> None:
        """Resume a paused task on its retained slot."""
        ad = self.ad(task_id)
        if ad.state is not JobState.PAUSED:
            raise CondorError(f"cannot resume task in state {ad.state.value}")
        ad.state = JobState.RUNNING
        ad.task.state = JobState.RUNNING
        ad.last_sync = self.sim.now
        self._arm_finish(ad)
        self._notify_state(ad)

    def kill(self, task_id: str) -> None:
        """Remove a task from the pool (condor_rm)."""
        ad = self.ad(task_id)
        if ad.state.is_terminal:
            raise CondorError(f"cannot kill task in state {ad.state.value}")
        self._terminate(ad, JobState.KILLED)

    def vacate(self, task_id: str) -> CondorJobAd:
        """Evict a task so it can be moved to another pool.

        Returns the final ad; the caller reads ``accrued_work`` to carry
        progress forward when the task is checkpointable.
        """
        ad = self.ad(task_id)
        if ad.state.is_terminal:
            raise CondorError(f"cannot vacate task in state {ad.state.value}")
        self._terminate(ad, JobState.MOVED)
        return ad

    def fail_task(self, task_id: str) -> None:
        """Force a task failure (failure-injection hook)."""
        ad = self.ad(task_id)
        if ad.state.is_terminal:
            raise CondorError(f"cannot fail task in state {ad.state.value}")
        self._terminate(ad, JobState.FAILED)
        for cb in list(self.on_failed):
            cb(ad)

    def crash(self) -> List[CondorJobAd]:
        """Take the whole pool down: every non-terminal task fails.

        Returns the failed ads.  Used to exercise the steering service's
        Backup & Recovery module.
        """
        victims = [ad for ad in self._ads.values() if not ad.state.is_terminal]
        for ad in victims:
            self._terminate(ad, JobState.FAILED)
            for cb in list(self.on_failed):
                cb(ad)
        return victims

    def _terminate(self, ad: CondorJobAd, final_state: JobState) -> None:
        if ad.state is JobState.RUNNING:
            self._sync(ad)
        if ad._finish_handle is not None:
            ad._finish_handle.cancel()
        if ad in self._idle:
            self._idle.remove(ad)
        if ad.allocated:
            self._release(ad)
        ad.state = final_state
        ad.task.state = final_state
        ad.end_time = self.sim.now
        self._notify_state(ad)
        self._try_dispatch()

    def set_priority(self, task_id: str, priority: int) -> None:
        """Change a task's priority; re-sorts the idle queue if needed."""
        ad = self.ad(task_id)
        if ad.state.is_terminal:
            raise CondorError(f"cannot reprioritise task in state {ad.state.value}")
        previous, ad.priority = ad.priority, int(priority)
        ad.task.spec = ad.task.spec.with_priority(int(priority))
        if ad in self._idle:
            self._idle.sort(key=CondorJobAd.sort_key)
        for cb in list(self.on_reprioritised):
            cb(ad, previous)
        self._notify_state(ad)

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def _ad_to_wire(self, ad: CondorJobAd) -> Dict[str, object]:
        return {
            "task_id": ad.task_id,
            "condor_id": ad.condor_id,
            "priority": ad.priority,
            "submit_time": ad.submit_time,
            "state": ad.state.value,
            "start_time": ad.start_time,
            "end_time": ad.end_time,
            "accrued_work": ad.accrued_work,
            "last_sync": ad.last_sync,
            # Slot allocation survives by (node name, slot count); the
            # effective profile is recomputed on restore.
            "allocated": [
                [node.name, node.running_task_ids.count(ad.task_id)]
                for node in ad.allocated
            ],
            "input_io_mb": ad.input_io_mb,
            "output_io_mb": ad.output_io_mb,
            "local_output_files": list(ad.local_output_files),
            # Re-armed as is: recomputing it at the barrier may round apart.
            "finish_at": None if ad._finish_handle is None else ad._finish_handle.time,
        }

    @staticmethod
    def _ad_from_wire(
        data: Dict[str, object], task_resolver: Callable[[str], Task]
    ) -> CondorJobAd:
        return CondorJobAd(
            task=task_resolver(data["task_id"]),  # type: ignore[arg-type]
            condor_id=int(data["condor_id"]),  # type: ignore[arg-type]
            priority=int(data["priority"]),  # type: ignore[arg-type]
            submit_time=data["submit_time"],  # type: ignore[assignment]
            state=JobState(data["state"]),
            start_time=data["start_time"],  # type: ignore[assignment]
            end_time=data["end_time"],  # type: ignore[assignment]
            accrued_work=data["accrued_work"],  # type: ignore[assignment]
            last_sync=data["last_sync"],  # type: ignore[assignment]
            input_io_mb=data["input_io_mb"],  # type: ignore[assignment]
            output_io_mb=data["output_io_mb"],  # type: ignore[assignment]
            local_output_files=tuple(data["local_output_files"]),  # type: ignore[arg-type]
        )

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of all pool bookkeeping.

        Running accruals are synced to *now* first, so the snapshot is
        exact at the checkpoint instant.  Tasks are referenced by id —
        the scheduler checkpoint owns the task objects themselves.
        """
        for ad in self._ads.values():
            self._sync(ad)
        return {
            "next_condor_id": self._next_condor_id,
            "ads": [self._ad_to_wire(ad) for ad in self._ads.values()],
            "idle": [ad.task_id for ad in self._idle],
            "archive": [self._ad_to_wire(ad) for ad in self.archive],
        }

    def restore_state(
        self, state: Dict[str, object], task_resolver: Callable[[str], Task]
    ) -> None:
        """Rebuild the pool from :meth:`snapshot_state` output.

        A restore replays *state*, not events: no callbacks fire and no
        dispatch pass runs.  RUNNING ads re-occupy their recorded slots
        and re-arm their analytic finish events at the recorded instant;
        PAUSED ads keep their slots with the finish event disarmed, as
        a live suspend leaves them.  The idle queue must arrive in
        dispatch order (as :meth:`snapshot_state` writes it) and hold
        exactly the QUEUED ads, and every recorded allocation must fit
        its node; anything else raises :class:`CondorError` rather than
        being repaired.
        """
        by_name = {node.name: node for node in self.nodes}
        self._next_condor_id = int(state["next_condor_id"])  # type: ignore[arg-type]
        self._ads = {}
        self._by_condor_id = {}
        self._idle = []
        self.archive = [
            self._ad_from_wire(wire, task_resolver)
            for wire in state["archive"]  # type: ignore[union-attr]
        ]
        for wire in state["ads"]:  # type: ignore[union-attr]
            ad = self._ad_from_wire(wire, task_resolver)
            self._ads[ad.task_id] = ad
            self._by_condor_id[ad.condor_id] = ad
            if ad.state in (JobState.RUNNING, JobState.PAUSED):
                allocated = []
                for node_name, slots in wire["allocated"]:
                    try:
                        node = by_name[node_name]
                        node.occupy(ad.task_id, slots=int(slots))
                    except (KeyError, RuntimeError) as exc:
                        raise CondorError(
                            f"pool {self.name}: cannot seat restored task "
                            f"{ad.task_id} on node {node_name}: {exc}"
                        ) from None
                    allocated.append(node)
                ad.allocated = tuple(allocated)
                ad.effective_profile = LoadProfile.combine_max(
                    [n.load_profile for n in ad.allocated]
                )
            if ad.state is JobState.RUNNING:
                ad.last_sync = self.sim.now
                # A format-2 row written before ``finish_at`` re-derives it.
                self._arm_finish(ad, wire.get("finish_at"))
        self._busy_slots = sum(len(n.running_task_ids) for n in self.nodes)
        # queue_position answers from ad.state before it looks at the queue,
        # so the queue must hold the QUEUED ads and nothing else.
        idle: List[CondorJobAd] = []
        for task_id in state["idle"]:  # type: ignore[union-attr]
            ad = self._ads.get(task_id)
            if ad is None or ad.state is not JobState.QUEUED:
                raise CondorError(
                    f"pool {self.name}: restored idle queue names task "
                    f"{task_id}, which is not queued here"
                )
            idle.append(ad)
        listed = set(state["idle"])  # type: ignore[call-overload]
        for ad in self._ads.values():
            if ad.state is JobState.QUEUED and ad.task_id not in listed:
                raise CondorError(
                    f"pool {self.name}: queued task {ad.task_id} is missing "
                    f"from the restored idle queue"
                )
        # submit() places new ads by bisection, so a queue restored out of
        # dispatch order would silently mis-place every later arrival.
        for ahead, ad in zip(idle, idle[1:]):
            if ahead.sort_key() >= ad.sort_key():
                raise CondorError(
                    f"pool {self.name}: restored idle queue is out of dispatch "
                    f"order at task {ad.task_id}"
                )
        self._idle = idle

    def enable_flocking(self, *pools: "CondorPool") -> None:
        """Allow idle jobs to flock to the given pools when this one is full."""
        for pool in pools:
            if pool is self:
                raise CondorError("a pool cannot flock to itself")
            if pool not in self.flock_targets:
                self.flock_targets.append(pool)
