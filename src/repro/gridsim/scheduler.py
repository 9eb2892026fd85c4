"""A Sphinx-like scheduling middleware.

Sphinx (the GAE scheduler the paper integrates with) is substituted by
:class:`SphinxScheduler`, which implements the §6.1 scheduling protocol
verbatim:

a. contact the available execution sites and pass the task's attributes to
   each site's execution service,
b. each execution service estimates the task's run time with its site-local
   estimator,
c. the estimate is returned to the scheduler,
d. the scheduler contacts the (MonALISA-style) load oracle for the load at
   each site,
e. the scheduler selects the site with the least estimated run time and the
   minimum queue time.

On submission the scheduler emits a *concrete job plan* (task → site
bindings) to its plan listeners — the steering service's Subscriber is the
canonical listener (§4.2.1).  It also services redirect requests ("Requests
for job redirection are sent to the scheduler", §4.2.2) and resubmission
after execution-service failure ("the Backup and Recovery module contacts
Sphinx to allocate a new execution service. The scheduler will then resubmit
the job", §4.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorJobAd
from repro.gridsim.execution import ExecutionService, ExecutionServiceDown
from repro.gridsim.job import (
    ConcreteJobPlan,
    Job,
    JobState,
    Task,
    TaskBinding,
    job_from_wire,
    job_to_wire,
    plan_from_wire,
    plan_to_wire,
)
from repro.gridsim.storage import ReplicaCatalog


class SchedulingError(RuntimeError):
    """Raised when no site can run a task, or for unknown jobs/tasks."""


@dataclass
class SiteRank:
    """One site's score for a task, with the ingredients that produced it."""

    site_name: str
    score: float
    estimated_runtime: float
    load: float
    stage_in_time: float = 0.0


def default_ranking(estimated_runtime: float, load: float, stage_in_time: float) -> float:
    """The default site score: smaller is better.

    Expected completion ≈ runtime stretched by current load, plus the time
    to stage input data in.  This is the paper's "least estimated run time
    and … queue time … a minimum" folded into one comparable number (load is
    the queue-time proxy MonALISA provides in step d).
    """
    return estimated_runtime * (1.0 + load) + stage_in_time


@dataclass(slots=True)
class _JobEntry:
    job: Job
    plan: ConcreteJobPlan


class SphinxScheduler:
    """Schedules jobs over a set of execution services.

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    load_oracle:
        Callable ``site_name -> float`` returning current load (step d of
        §6.1).  Defaults to asking the execution service directly; the GAE
        wiring replaces it with the MonALISA repository.
    replica_catalog:
        Optional catalog used to charge input-staging time in site ranking.
    ranking:
        Score function ``(runtime, load, stage_in) -> float``; lower wins.
    fallback_runtime:
        Estimate assumed for a site whose estimator is missing (the paper
        notes estimator availability per site is optional).
    """

    def __init__(
        self,
        sim: Simulator,
        load_oracle: Optional[Callable[[str], float]] = None,
        replica_catalog: Optional[ReplicaCatalog] = None,
        ranking: Callable[[float, float, float], float] = default_ranking,
        fallback_runtime: float = 3600.0,
        simulate_stage_in: bool = True,
    ) -> None:
        self.sim = sim
        self.load_oracle = load_oracle
        self.replica_catalog = replica_catalog
        self.ranking = ranking
        self.fallback_runtime = fallback_runtime
        #: When true (and a replica catalog is wired), a task with remote
        #: input files spends the ground-truth transfer time *staging in*
        #: before it reaches the site queue — the §7 "time taken to
        #: transfer the data files needed by the job" made real.
        self.simulate_stage_in = simulate_stage_in
        #: task_id -> (site, stage-in finish time) for in-flight transfers.
        self.staging: Dict[str, Tuple[str, float]] = {}
        #: task_id -> accrued work the in-flight task carries to its site.
        #: Parallel to :attr:`staging`; a checkpoint needs it to re-arm the
        #: delivery with the same seed work the interrupted transfer held.
        self._staging_work: Dict[str, float] = {}
        #: Commitment tracking: task_id -> site it is currently counted
        #: against.  The load oracle (MonALISA) is only as fresh as its
        #: publish period, and zero-age when a whole job is planned in one
        #: instant — without this term every tied task lands on the same
        #: site.  Sphinx balanced; so do we.
        self.commitment_aware = True
        self._commitments: Dict[str, str] = {}
        #: site -> how many entries of ``_commitments`` name it, so ranking
        #: reads a count; written only by :meth:`_commit`/:meth:`_uncommit`.
        self._committed_count: Dict[str, int] = {}
        self._services: Dict[str, ExecutionService] = {}
        self._jobs: Dict[str, _JobEntry] = {}
        self._task_index: Dict[str, str] = {}  # task_id -> job_id
        #: Ids of every task handed to a site at least once, and of every
        #: task a pool reported complete.  One set each for the whole
        #: scheduler (task ids are unique across jobs): a set per job
        #: costs 216 B before it holds anything.
        self._submitted: Set[str] = set()
        self._completed: Set[str] = set()
        self.plan_listeners: List[Callable[[ConcreteJobPlan, Job], None]] = []
        self.completion_listeners: List[Callable[[Task, str], None]] = []
        # Called as (task, site_name) right after every pool submission —
        # the estimator service uses this to record its at-submission
        # runtime estimate (§6.2 step c).
        self.submission_listeners: List[Callable[[Task, str], None]] = []
        # Called as (task, site_name, delay_s, kind) whenever a task's data
        # goes in flight before it can queue; ``kind`` is "input" for
        # stage-in and "ckpt-image" for checkpoint-image transfers during a
        # move.  The observability layer turns these into transfer spans.
        self.staging_listeners: List[Callable[[Task, str, float, str], None]] = []

    # ------------------------------------------------------------------
    # site registry
    # ------------------------------------------------------------------
    def register_site(self, service: ExecutionService) -> None:
        """Make an execution site available for scheduling."""
        name = service.site.name
        if name in self._services:
            raise SchedulingError(f"site {name!r} already registered")
        # Kept in name order — the order ranking visits sites in — so
        # nothing sorts per call.
        self._services = dict(sorted([*self._services.items(), (name, service)]))
        service.pool.on_complete.append(self._on_task_complete)

        def on_state_change(ad) -> None:
            if ad.state.is_terminal:
                self._uncommit(ad.task_id)
            elif ad.state is JobState.QUEUED:
                self._note_arrival(ad.task_id, name)

        service.pool.on_state_change.append(on_state_change)

    def sites(self) -> List[str]:
        """Registered site names, sorted."""
        return list(self._services)

    def service(self, site_name: str) -> ExecutionService:
        """The execution service at a site (SchedulingError if unknown)."""
        try:
            return self._services[site_name]
        except KeyError:
            raise SchedulingError(f"unknown site {site_name!r}") from None

    # ------------------------------------------------------------------
    # commitment tracking
    # ------------------------------------------------------------------
    def _commit(self, task_id: str, site_name: str) -> None:
        """Count *task_id* against *site_name* (and no longer anywhere else).

        A re-commit assigns in place: the map's insertion order is what a
        checkpoint serialises, so it must not depend on rebinds.
        """
        previous = self._commitments.get(task_id)
        if previous == site_name:
            return
        if previous is not None:
            self._committed_count[previous] -= 1
        self._commitments[task_id] = site_name
        self._committed_count[site_name] = self._committed_count.get(site_name, 0) + 1

    def _uncommit(self, task_id: str) -> None:
        """Stop counting *task_id* against any site (no-op if uncounted)."""
        site_name = self._commitments.pop(task_id, None)
        if site_name is not None:
            self._committed_count[site_name] -= 1

    # ------------------------------------------------------------------
    # site selection (§6.1 a–e)
    # ------------------------------------------------------------------
    def rank_sites(
        self, task: Task, exclude: Iterable[str] = ()
    ) -> List[SiteRank]:
        """Score every reachable site for *task*; best (lowest) first."""
        excluded = set(exclude)
        ranks: List[SiteRank] = []
        for name, service in self._services.items():
            if name in excluded:
                continue
            try:
                service.ping()
            except ExecutionServiceDown:
                continue
            # A gang task can never start on a site with fewer total slots
            # than it needs (unless the pool can flock it away).
            if (
                task.spec.nodes > service.pool.total_slots
                and not service.pool.flock_targets
            ):
                continue
            if service.has_estimator:
                try:
                    runtime = service.estimate_runtime(task.spec)
                except (RuntimeError, ValueError):
                    runtime = self.fallback_runtime
            else:
                runtime = self.fallback_runtime
            if self.load_oracle is not None:
                load = float(self.load_oracle(name))
            else:
                load = service.current_load()
            if self.commitment_aware:
                committed = self._committed_count.get(name, 0)
                load += committed / max(1, service.pool.total_slots)
            stage_in = 0.0
            if self.replica_catalog is not None and task.spec.input_files:
                # Inputs of downstream DAG tasks may not exist yet; they
                # contribute no ranking signal until produced.
                stage_in = self.replica_catalog.stage_in_time(
                    list(task.spec.input_files), name, missing="skip"
                )
            ranks.append(
                SiteRank(
                    site_name=name,
                    score=self.ranking(runtime, load, stage_in),
                    estimated_runtime=runtime,
                    load=load,
                    stage_in_time=stage_in,
                )
            )
        ranks.sort(key=lambda r: (r.score, r.site_name))
        return ranks

    def select_site(self, task: Task, exclude: Iterable[str] = ()) -> str:
        """Best site for *task* (SchedulingError when none are available)."""
        ranks = self.rank_sites(task, exclude=exclude)
        if not ranks:
            raise SchedulingError(
                f"no execution site available for task {task.task_id}"
            )
        return ranks[0].site_name

    # ------------------------------------------------------------------
    # job submission
    # ------------------------------------------------------------------
    def submit_job(self, job: Job) -> ConcreteJobPlan:
        """Plan and launch a job.

        Produces a concrete job plan binding every task to its chosen site,
        notifies plan listeners (the steering Subscriber), and submits every
        dependency-free task immediately.
        """
        if job.job_id in self._jobs:
            raise SchedulingError(f"job {job.job_id} already submitted")
        binding_list = []
        for t in job.topological_order():
            site = self.select_site(t)
            binding_list.append(TaskBinding(task_id=t.task_id, site_name=site))
            # Count the binding immediately so the next task in this same
            # plan sees the site as busier (intra-plan load balancing).
            self._commit(t.task_id, site)
        bindings = tuple(binding_list)
        plan = ConcreteJobPlan(job_id=job.job_id, bindings=bindings, created_at=self.sim.now)
        entry = _JobEntry(job=job, plan=plan)
        self._jobs[job.job_id] = entry
        for t in job.tasks:
            self._task_index[t.task_id] = job.job_id
        self._emit_plan(entry)
        self._submit_ready(entry)
        return plan

    def _emit_plan(self, entry: _JobEntry) -> None:
        for listener in list(self.plan_listeners):
            listener(entry.plan, entry.job)

    def _submit_ready(self, entry: _JobEntry) -> None:
        for task in entry.job.ready_tasks(self._completed):
            if task.task_id in self._submitted:
                continue
            site_name = entry.plan.site_for(task.task_id)
            self._submit_to(task, site_name)

    def _submit_to(self, task: Task, site_name: str, initial_work: float = 0.0) -> None:
        delay = self._stage_in_delay(task, site_name)
        self._submitted.add(task.task_id)
        self._commit(task.task_id, site_name)
        if delay <= 0.0:
            self._deliver(task, site_name, initial_work)
            return
        # The input data is in flight; the task reaches the queue when the
        # last file lands.
        self._stage(task, site_name, delay, initial_work, "input")

    def _stage(
        self, task: Task, site_name: str, delay: float, work: float, kind: str
    ) -> None:
        """Put *task* in flight towards *site_name*; :meth:`_arrive` lands it."""
        self.staging[task.task_id] = (site_name, self.sim.now + delay)
        self._staging_work[task.task_id] = work
        self._emit_staging(task, site_name, delay, kind)
        self._schedule_arrival(task.task_id)

    def _schedule_arrival(self, task_id: str) -> None:
        scheduled = self.staging[task_id]
        site_name, finish_time = scheduled
        self.sim.at(
            max(finish_time, self.sim.now),
            lambda: self._arrive(task_id, scheduled),
            label=f"arrive:{task_id}->{site_name}",
        )

    def _arrive(self, task_id: str, scheduled: Tuple[str, float]) -> None:
        """Complete the delayed delivery that was *scheduled* — if it still stands.

        ``staging[task_id]`` records the one delivery in flight, and
        :meth:`resubmit_task` / :meth:`redirect_task` clear or overwrite it:
        an arrival whose entry is gone or different was superseded.  A task
        killed in flight stays dead; a target that is down on arrival is
        re-routed as Backup & Recovery would, not raised out of the simulator.
        """
        if self.staging.get(task_id) != scheduled:
            return
        site_name = scheduled[0]
        work = self._staging_work[task_id]
        self._unstage(task_id)
        task = self.task(task_id)
        if task.state.is_terminal:
            return
        try:
            self.service(site_name).ping()
        except ExecutionServiceDown:
            self.resubmit_task(task_id, exclude={site_name})
            return
        self._submitted.add(task_id)
        self._deliver(task, site_name, work)

    def _unstage(self, task_id: str) -> None:
        """Forget any delivery still in flight: the caller supersedes it."""
        self.staging.pop(task_id, None)
        self._staging_work.pop(task_id, None)

    def _emit_staging(self, task: Task, site_name: str, delay: float, kind: str) -> None:
        for listener in list(self.staging_listeners):
            listener(task, site_name, delay, kind)

    def _deliver(self, task: Task, site_name: str, initial_work: float) -> None:
        service = self.service(site_name)
        service.submit_task(task, initial_work=initial_work)
        for listener in list(self.submission_listeners):
            listener(task, site_name)

    def _stage_in_delay(self, task: Task, site_name: str) -> float:
        if (
            not self.simulate_stage_in
            or self.replica_catalog is None
            or not task.spec.input_files
        ):
            return 0.0
        return self.replica_catalog.stage_in_time(
            list(task.spec.input_files), site_name, missing="skip"
        )

    def _note_arrival(self, task_id: str, site_name: str) -> None:
        """Keep the plan honest when Condor flocking moves a queued task.

        Flocking happens entirely inside the pools; without this hook the
        concrete plan would keep binding the task to the pool it left, so
        steering verbs (pause/move/kill) would be sent to the wrong site.
        On arrival at an unplanned pool the binding is updated and the
        revised plan re-emitted to the plan listeners (the Subscriber).
        """
        job_id = self._task_index.get(task_id)
        if job_id is None:
            return  # a task submitted around the scheduler
        entry = self._jobs[job_id]
        if entry.plan.site_for(task_id) == site_name:
            return
        entry.plan = entry.plan.rebind(task_id, site_name)
        self._commit(task_id, site_name)
        self._emit_plan(entry)

    def _on_task_complete(self, ad: CondorJobAd) -> None:
        job_id = self._task_index.get(ad.task_id)
        if job_id is None:
            return  # a task submitted around the scheduler
        entry = self._jobs[job_id]
        self._completed.add(ad.task_id)
        for listener in list(self.completion_listeners):
            listener(ad.task, entry.plan.site_for(ad.task_id))
        self._submit_ready(entry)

    # ------------------------------------------------------------------
    # redirection and resubmission
    # ------------------------------------------------------------------
    def redirect_task(
        self,
        task_id: str,
        new_site: Optional[str] = None,
        carry_work: float = 0.0,
        image_size_mb: float = 0.0,
    ) -> str:
        """Move a (vacated) task to a new site; returns the site chosen.

        The caller — the steering service — must already have vacated the
        task at its old site.  ``carry_work`` is the checkpointed progress
        to seed at the new site (0 for non-checkpointable tasks);
        ``image_size_mb`` is the checkpoint image that must travel from the
        old site first, charged as real simulated transfer time (§7: "the
        time taken to transfer the data files needed by the job").
        """
        entry = self._entry_for_task(task_id)
        task = entry.job.task(task_id)
        old_site = entry.plan.site_for(task_id)
        self._unstage(task_id)
        if new_site is None:
            new_site = self.select_site(task, exclude={old_site})
        elif new_site not in self._services:
            raise SchedulingError(f"unknown target site {new_site!r}")
        entry.plan = entry.plan.rebind(task_id, new_site)
        task.state = JobState.PENDING
        image_delay = self._image_transfer_delay(old_site, new_site, image_size_mb)
        if image_delay > 0.0:
            self._stage(task, new_site, image_delay, carry_work, "ckpt-image")
        else:
            self._submit_to(task, new_site, initial_work=carry_work)
        self._emit_plan(entry)
        return new_site

    def _image_transfer_delay(
        self, src: str, dst: str, image_size_mb: float
    ) -> float:
        if (
            image_size_mb <= 0.0
            or not self.simulate_stage_in
            or self.replica_catalog is None
            or self.replica_catalog.network is None
            or src == dst
        ):
            return 0.0
        try:
            return self.replica_catalog.network.transfer_time(src, dst, image_size_mb)
        except Exception:
            return 0.0  # unreachable route: the image travels out of band

    def resubmit_task(self, task_id: str, exclude: Iterable[str] = ()) -> str:
        """Re-run a failed task on a fresh site; returns the site chosen.

        Used by Backup & Recovery after an execution-service failure.  The
        failed site is excluded automatically.
        """
        entry = self._entry_for_task(task_id)
        task = entry.job.task(task_id)
        old_site = entry.plan.site_for(task_id)
        self._unstage(task_id)
        excluded = set(exclude) | {old_site}
        try:
            new_site = self.select_site(task, exclude=excluded)
        except SchedulingError:
            # Fall back to any live site, even the failed one if it recovered.
            new_site = self.select_site(task)
        entry.plan = entry.plan.rebind(task_id, new_site)
        task.state = JobState.PENDING
        self._submit_to(task, new_site, initial_work=0.0)
        self._emit_plan(entry)
        return new_site

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _entry_for_task(self, task_id: str) -> _JobEntry:
        job_id = self._task_index.get(task_id)
        if job_id is None:
            raise SchedulingError(f"unknown task {task_id!r}")
        return self._jobs[job_id]

    def job(self, job_id: str) -> Job:
        """The job object for an id (SchedulingError if unknown)."""
        try:
            return self._jobs[job_id].job
        except KeyError:
            raise SchedulingError(f"unknown job {job_id!r}") from None

    def plan(self, job_id: str) -> ConcreteJobPlan:
        """The *current* concrete plan (reflects redirects/resubmits)."""
        try:
            return self._jobs[job_id].plan
        except KeyError:
            raise SchedulingError(f"unknown job {job_id!r}") from None

    def site_of_task(self, task_id: str) -> str:
        """The site a task is currently bound to."""
        return self._entry_for_task(task_id).plan.site_for(task_id)

    def task(self, task_id: str) -> Task:
        """The task object for an id (SchedulingError if unknown)."""
        return self._entry_for_task(task_id).job.task(task_id)

    def jobs(self) -> List[Job]:
        """All submitted jobs."""
        return [e.job for e in self._jobs.values()]

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of every job entry and in-flight transfer.

        The scheduler checkpoint is the system of record for task/job
        objects; pool snapshots reference them by id and are resolved
        against the restored entries via :meth:`task`.
        """

        def of_job(task_ids: Set[str], job: Job) -> List[str]:
            return sorted(task_ids.intersection(t.task_id for t in job.tasks))

        return {
            "jobs": [
                {
                    "job": job_to_wire(entry.job),
                    "plan": plan_to_wire(entry.plan),
                    "completed": of_job(self._completed, entry.job),
                    "submitted": of_job(self._submitted, entry.job),
                }
                for entry in self._jobs.values()
            ],
            "commitments": [
                [task_id, site] for task_id, site in self._commitments.items()
            ],
            "staging": [
                [task_id, site, finish_time, self._staging_work.get(task_id, 0.0)]
                for task_id, (site, finish_time) in self.staging.items()
            ],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild job entries from :meth:`snapshot_state` output.

        No plan/staging listeners fire — a restore replays state, not
        events (the original plan announcements and transfer spans live
        in the restored steering/observability state).  In-flight
        stage-in transfers are re-armed to land at their original finish
        times with the work they were carrying.
        """
        self._jobs = {}
        self._task_index = {}
        self._submitted = set()
        self._completed = set()
        for wire in state["jobs"]:  # type: ignore[union-attr]
            job = job_from_wire(wire["job"])
            plan = plan_from_wire(wire["plan"])
            self._jobs[job.job_id] = _JobEntry(job=job, plan=plan)
            self._completed.update(wire["completed"])
            self._submitted.update(wire["submitted"])
            for t in job.tasks:
                self._task_index[t.task_id] = job.job_id
        # The per-site counts are derived state: rebuilt, never persisted.
        self._commitments = {}
        self._committed_count = {}
        for task_id, site in state["commitments"]:  # type: ignore[union-attr]
            self._commit(task_id, site)
        self.staging = {}
        self._staging_work = {}
        for task_id, site, finish_time, initial_work in state["staging"]:  # type: ignore[union-attr]
            self.staging[task_id] = (site, finish_time)
            self._staging_work[task_id] = initial_work
            self._schedule_arrival(task_id)
