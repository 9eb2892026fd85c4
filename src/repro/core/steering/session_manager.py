"""The Session Manager (§4.2.5).

"This module makes sure that the authorized users steer the jobs."

Job-level authorisation on top of Clarens host-level authentication: a
steering command is allowed when the caller owns the job, belongs to an
admin group, or is the steering service's own optimizer (autonomous moves).
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.clarens.auth import Principal
from repro.gridsim.job import PlanTable


class SteeringAuthError(RuntimeError):
    """Raised when a caller may not steer the named job/task."""


#: The synthetic principal the optimizer acts as.
OPTIMIZER_PRINCIPAL = Principal(user="__optimizer__", groups=frozenset({"steering-internal"}))


class SessionManager:
    """Ownership checks for steering commands."""

    def __init__(
        self,
        plans: PlanTable,
        admin_groups: Tuple[str, ...] = ("grid-admins",),
    ) -> None:
        self.plans = plans
        self.admin_groups: FrozenSet[str] = frozenset(admin_groups)

    def _owner_of_task(self, task_id: str) -> str:
        try:
            task = self.plans.tasks[task_id]
        except KeyError:
            raise SteeringAuthError(f"unknown task {task_id!r}") from None
        return self.plans.jobs[task.job_id].owner  # type: ignore[index]

    def may_steer(self, principal: Principal, task_id: str) -> bool:
        """Whether *principal* may steer the task (no exception)."""
        if principal == OPTIMIZER_PRINCIPAL:
            return True
        if principal.is_anonymous:
            return False
        if any(g in self.admin_groups for g in principal.groups):
            return True
        return principal.user == self._owner_of_task(task_id)

    def authorize(self, principal: Principal, task_id: str) -> None:
        """Raise :class:`SteeringAuthError` unless steering is allowed."""
        if not self.may_steer(principal, task_id):
            raise SteeringAuthError(
                f"user {principal.user or '<anonymous>'!r} may not steer task {task_id!r} "
                f"owned by {self._owner_of_task(task_id)!r}"
            )

    def authorize_job(self, principal: Principal, job_id: str) -> None:
        """Job-level variant of :meth:`authorize`."""
        try:
            job = self.plans.jobs[job_id]
        except KeyError:
            raise SteeringAuthError(f"unknown job {job_id!r}") from None
        if principal == OPTIMIZER_PRINCIPAL:
            return
        if principal.is_anonymous or (
            principal.user != job.owner
            and not any(g in self.admin_groups for g in principal.groups)
        ):
            raise SteeringAuthError(
                f"user {principal.user or '<anonymous>'!r} may not steer job {job_id!r}"
            )
