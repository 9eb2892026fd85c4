"""The Subscriber (§4.2.1).

"A scheduler (e.g. Sphinx in GAE) sends a 'concrete job plan' (a job plan
precisely describing the nodes where the job will be executed) to the
Steering Service.  The Subscriber analyzes the received job plan to get the
list of Execution Services to be used for the execution of the job."

The subscriber is the steering service's registry of everything it is
responsible for: jobs, their current plans, and the execution services
those plans touch.  Updated plans (after redirects/resubmissions) replace
earlier ones for the same job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set

from repro.gridsim.job import ConcreteJobPlan, Job, Task, plan_from_wire, plan_to_wire


@dataclass(slots=True)
class Subscription:
    """One job under steering-service management."""

    job: Job
    plan: ConcreteJobPlan
    plan_history: List[ConcreteJobPlan] = field(default_factory=list)

    @property
    def execution_sites(self) -> List[str]:
        """The execution services the current plan uses."""
        return self.plan.sites()


class Subscriber:
    """Receives and indexes concrete job plans."""

    def __init__(self) -> None:
        self._subscriptions: Dict[str, Subscription] = {}
        self._task_index: Dict[str, str] = {}  # task_id -> job_id

    def receive_plan(self, plan: ConcreteJobPlan, job: Job) -> Subscription:
        """Accept a (possibly updated) concrete job plan from the scheduler.

        This is the callable registered on
        :attr:`SphinxScheduler.plan_listeners`.
        """
        existing = self._subscriptions.get(job.job_id)
        if existing is None:
            sub = Subscription(job=job, plan=plan, plan_history=[plan])
            self._subscriptions[job.job_id] = sub
            for task in job.tasks:
                self._task_index[task.task_id] = job.job_id
        else:
            existing.plan = plan
            existing.plan_history.append(plan)
            sub = existing
        return sub

    # ------------------------------------------------------------------
    def subscription(self, job_id: str) -> Subscription:
        """The subscription for a job (KeyError if never received)."""
        return self._subscriptions[job_id]

    def has_job(self, job_id: str) -> bool:
        """Whether a plan for this job was ever received."""
        return job_id in self._subscriptions

    def job_of_task(self, task_id: str) -> str:
        """The job a task belongs to (KeyError if unknown)."""
        return self._task_index[task_id]

    def task(self, task_id: str) -> Task:
        """The task object for an id."""
        return self._subscriptions[self.job_of_task(task_id)].job.task(task_id)

    def site_of_task(self, task_id: str) -> str:
        """The site the *current* plan binds a task to."""
        sub = self._subscriptions[self.job_of_task(task_id)]
        return sub.plan.site_for(task_id)

    def jobs(self) -> List[Job]:
        """All subscribed jobs, in subscription order."""
        return [s.job for s in self._subscriptions.values()]

    def active_tasks(self) -> List[Task]:
        """Tasks not yet in a settled terminal state, across all jobs.

        MOVED is treated as live: a moved task's new incarnation is still
        the steering service's responsibility.
        """
        out: List[Task] = []
        for sub in self._subscriptions.values():
            for task in sub.job.tasks:
                if not task.state.is_terminal or task.state.value == "moved":
                    out.append(task)
        return out

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def export_state(self) -> List[Dict[str, object]]:
        """Subscriptions in subscription order, plans as wire dicts.

        Only the plan history travels: the current plan is always the
        newest history entry, and the job objects themselves belong to
        the scheduler checkpoint (resolved by id on import).
        """
        return [
            {
                "job_id": sub.job.job_id,
                "plan_history": [plan_to_wire(p) for p in sub.plan_history],
            }
            for sub in self._subscriptions.values()
        ]

    def import_state(
        self, state: List[Dict[str, object]], job_resolver: Callable[[str], Job]
    ) -> None:
        """Rebuild subscriptions from :meth:`export_state` output.

        *job_resolver* must return the restored scheduler's job objects,
        so steering and scheduling keep sharing one set of live tasks.
        """
        self._subscriptions = {}
        self._task_index = {}
        for wire in state:
            job = job_resolver(wire["job_id"])  # type: ignore[arg-type]
            history = [plan_from_wire(p) for p in wire["plan_history"]]  # type: ignore[union-attr]
            self._subscriptions[job.job_id] = Subscription(
                job=job, plan=history[-1], plan_history=history
            )
            for task in job.tasks:
                self._task_index[task.task_id] = job.job_id

    def execution_sites_in_use(self) -> Set[str]:
        """Every site any current plan binds at least one task to.

        This is the set Backup & Recovery "continuously checks … for
        failure" (§4.2.4).
        """
        sites: Set[str] = set()
        for sub in self._subscriptions.values():
            sites.update(sub.execution_sites)
        return sites
