"""The Command Processor (§4.2.2).

"The Command Processor handles the requests of the client and requests of
the optimizer to perform job control e.g. kill, pause, resume, move job.
Requests for job redirection are sent to the scheduler (Sphinx)."

Every verb resolves the task's current execution service through the
subscriber and delegates; *move* vacates the task locally, then hands the
redirection to the scheduler, carrying checkpointed progress when the task
is checkpointable.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, ContextManager, Deque, Dict, List, Optional

from repro.core.steering.subscriber import Subscriber
from repro.gridsim.execution import ExecutionService, ExecutionServiceDown
from repro.gridsim.scheduler import SphinxScheduler


#: How many results :attr:`CommandProcessor.log` keeps — a ring like the
#: tracer's span store (8 192), so an always-on host's audit trail is bounded.
COMMAND_LOG_CAPACITY = 8192


def _null_span(command: str, task_id: str) -> ContextManager[None]:
    return contextlib.nullcontext()


class SteeringCommandError(RuntimeError):
    """Raised when a job-control command cannot be carried out."""


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one steering command."""

    command: str
    task_id: str
    ok: bool
    detail: str = ""


class CommandProcessor:
    """Executes job-control verbs against the right execution service."""

    def __init__(
        self,
        subscriber: Subscriber,
        scheduler: SphinxScheduler,
        services: Dict[str, ExecutionService],
    ) -> None:
        self.subscriber = subscriber
        self.scheduler = scheduler
        self._services = services
        #: The newest :data:`COMMAND_LOG_CAPACITY` executed commands,
        #: oldest first, for audit and tests.
        self.log: Deque[CommandResult] = deque(maxlen=COMMAND_LOG_CAPACITY)
        #: Called with every :class:`CommandResult` as it is logged.
        self.listeners: List[Callable[[CommandResult], None]] = []
        #: ``(command, task_id) -> context manager`` wrapped around every
        #: verb's execution; the observability layer installs a factory
        #: that opens a ``steer:<verb>`` span on the task's job trace.
        self.span_factory: Callable[[str, str], ContextManager[None]] = _null_span

    def _service_for(self, task_id: str) -> ExecutionService:
        try:
            site = self.subscriber.site_of_task(task_id)
        except KeyError:
            raise SteeringCommandError(f"unknown task {task_id!r}") from None
        try:
            return self._services[site]
        except KeyError:
            raise SteeringCommandError(
                f"no execution service registered for site {site!r}"
            ) from None

    def _run(self, command: str, task_id: str, action: Callable[[], str]) -> CommandResult:
        with self.span_factory(command, task_id):
            try:
                detail = action()
                result = CommandResult(command=command, task_id=task_id, ok=True, detail=detail)
            except (ExecutionServiceDown, SteeringCommandError, RuntimeError) as exc:
                result = CommandResult(command=command, task_id=task_id, ok=False, detail=str(exc))
        self.log.append(result)
        for listener in list(self.listeners):
            listener(result)
        return result

    # ------------------------------------------------------------------
    # the §4 verbs
    # ------------------------------------------------------------------
    def kill(self, task_id: str) -> CommandResult:
        """Remove the task from its execution site.

        A task whose input data is still staging in has no pool yet; it is
        killed in place and the pending delivery is dropped.
        """

        def action() -> str:
            if task_id in self.scheduler.staging:
                task = self.subscriber.task(task_id)
                from repro.gridsim.job import JobState

                task.state = JobState.KILLED
                return "killed while staging in"
            self._service_for(task_id).kill_task(task_id)
            return "killed"

        return self._run("kill", task_id, action)

    def pause(self, task_id: str) -> CommandResult:
        """Suspend the task (it keeps its slot)."""

        def action() -> str:
            self._service_for(task_id).pause_task(task_id)
            return "paused"

        return self._run("pause", task_id, action)

    def resume(self, task_id: str) -> CommandResult:
        """Resume a suspended task."""

        def action() -> str:
            self._service_for(task_id).resume_task(task_id)
            return "resumed"

        return self._run("resume", task_id, action)

    def set_priority(self, task_id: str, priority: int) -> CommandResult:
        """Change the task's priority."""

        def action() -> str:
            self._service_for(task_id).set_task_priority(task_id, priority)
            return f"priority={priority}"

        return self._run("set_priority", task_id, action)

    def move(self, task_id: str, target_site: Optional[str] = None) -> CommandResult:
        """Move the task to *target_site* (scheduler's choice when None).

        Vacates the task at its current site, then sends the redirection
        request to the scheduler (§4.2.2).  A checkpointable task carries
        its accrued work; a plain task restarts from zero at the new site.
        """

        def action() -> str:
            service = self._service_for(task_id)
            ad = service.vacate_task(task_id)
            carry = ad.accrued_work if ad.task.checkpointable else 0.0
            # A checkpointed move must ship the image from the old site;
            # the scheduler charges the transfer as simulated time.
            image = (
                ad.task.checkpoint_image_mb
                if ad.task.checkpointable and carry > 0.0
                else 0.0
            )
            new_site = self.scheduler.redirect_task(
                task_id, new_site=target_site, carry_work=carry,
                image_size_mb=image,
            )
            return f"moved to {new_site} (carried {carry:.1f}s)"

        return self._run("move", task_id, action)
