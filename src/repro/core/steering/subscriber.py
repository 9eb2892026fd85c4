"""The Subscriber (§4.2.1).

"A scheduler (e.g. Sphinx in GAE) sends a 'concrete job plan' (a job plan
precisely describing the nodes where the job will be executed) to the
Steering Service.  The Subscriber analyzes the received job plan to get the
list of Execution Services to be used for the execution of the job."

The plans are the scheduler's :class:`~repro.gridsim.job.PlanTable`, where
Sphinx writes every plan it emits, revisions included: the subscriber and
the other steering components read that table and keep nothing of their own.
"""

from __future__ import annotations

from typing import List, Set

from repro.gridsim.job import PlanTable, Task


class Subscriber:
    """Analyses the scheduler's concrete job plans."""

    def __init__(self, plans: PlanTable) -> None:
        self.plans = plans

    def active_tasks(self) -> List[Task]:
        """Tasks not yet in a settled terminal state, across all jobs.

        MOVED is treated as live: a moved task's new incarnation is still
        the steering service's responsibility.
        """
        return [
            task for job in self.plans.jobs.values() for task in job.tasks
            if not task.state.is_terminal or task.state.value == "moved"
        ]

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
