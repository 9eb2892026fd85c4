"""The Subscriber (§4.2.1).

"A scheduler (e.g. Sphinx in GAE) sends a 'concrete job plan' (a job plan
precisely describing the nodes where the job will be executed) to the
Steering Service.  The Subscriber analyzes the received job plan to get the
list of Execution Services to be used for the execution of the job."

The subscriber is the steering service's registry of everything it is
responsible for: jobs, their current plans, and the execution services
those plans touch.  Updated plans (after redirects/resubmissions) replace
earlier ones for the same job.

It reads a :class:`~repro.gridsim.job.PlanTable`.  The GAE's subscriber
reads its scheduler's: Sphinx writes every plan it emits there, so the
subscriber finds the plans Sphinx already holds and keeps nothing of its
own.  A subscriber fed by :meth:`Subscriber.receive_plan` keeps its own
table, which refuses a job another table has planned.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from repro.gridsim.job import ConcreteJobPlan, Job, PlanTable, Task, plan_from_wire, plan_to_wire


class Subscriber:
    """Receives and indexes concrete job plans."""

    def __init__(self, plans: PlanTable) -> None:
        self.plans = plans

    def receive_plan(self, plan: ConcreteJobPlan, job: Job) -> None:
        """Accept a (possibly updated) concrete job plan into a table no
        scheduler writes; a later plan for a job is a revision of it.

        A subscriber reading its scheduler's table has nothing to receive.
        """
        self.plans.apply(plan, job)

    # ------------------------------------------------------------------
    def has_job(self, job_id: str) -> bool:
        """Whether a plan for this job was ever received."""
        return job_id in self.plans.jobs

    def job(self, job_id: str) -> Job:
        """The job object for an id (KeyError if unknown)."""
        return self.plans.jobs[job_id]

    def job_of_task(self, task_id: str) -> str:
        """The job a task belongs to (KeyError if unknown)."""
        return self.plans.tasks[task_id].job_id  # type: ignore[return-value]

    def task(self, task_id: str) -> Task:
        """The task object for an id."""
        return self.plans.tasks[task_id]

    def site_of_task(self, task_id: str) -> str:
        """The site the *current* plan binds a task to."""
        return self.plans.tasks[task_id].site  # type: ignore[return-value]

    def jobs(self) -> List[Job]:
        """All subscribed jobs, in subscription order."""
        return list(self.plans.jobs.values())

    def active_tasks(self) -> List[Task]:
        """Tasks not yet in a settled terminal state, across all jobs.

        MOVED is treated as live: a moved task's new incarnation is still
        the steering service's responsibility.
        """
        out: List[Task] = []
        for job in self.plans.jobs.values():
            for task in job.tasks:
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
                "job_id": job_id,
                "plan_history": [plan_to_wire(p) for p in self.plans.history(job_id)],
            }
            for job_id in self.plans.jobs
        ]

    def import_state(
        self, state: List[Dict[str, object]], job_resolver: Callable[[str], Job]
    ) -> None:
        """Rebuild subscriptions from :meth:`export_state` output, into a
        fresh subscriber (its table empty, or its scheduler's just restored).

        *job_resolver* must return the restored scheduler's job objects,
        so steering and scheduling keep sharing one set of live tasks.
        """
        for wire in state:
            history = [plan_from_wire(p) for p in wire["plan_history"]]  # type: ignore[union-attr]
            self.plans.restore(job_resolver(wire["job_id"]), history)  # type: ignore[arg-type]

    def execution_sites_in_use(self) -> Set[str]:
        """Every site any current plan binds at least one task to.

        This is the set Backup & Recovery "continuously checks … for
        failure" (§4.2.4).
        """
        return {
            task.site  # type: ignore[misc]
            for job in self.plans.jobs.values()
            for task in job.tasks
        }
