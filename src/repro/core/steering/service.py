"""The Steering Service facade (Clarens-registrable) and steering loop.

Assembles the Figure 2 components — Subscriber, Command Processor,
Optimizer, Backup & Recovery, Session Manager — and exposes the user-facing
API: constant job feedback plus the kill / pause / resume / set-priority /
move verbs, each gated by the Session Manager.

:meth:`SteeringService.start` arms the two periodic activities that make
the service *autonomous*:

- the steering loop, which polls every active task through the Job
  Monitoring Service and lets the Optimizer move slow jobs (the mechanism
  behind Figure 7), and
- Backup & Recovery's execution-service ping sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.accounting.service import QuotaAccountingService
from repro.clarens.auth import Principal
from repro.clarens.registry import clarens_method
from repro.core.estimators.service import EstimatorService
from repro.core.monitoring.service import JobMonitoringService
from repro.core.steering.backup_recovery import BackupRecovery
from repro.core.steering.commands import CommandProcessor, CommandResult
from repro.core.steering.optimizer import MoveDecision, Optimizer, SteeringPolicy
from repro.core.steering.session_manager import OPTIMIZER_PRINCIPAL, SessionManager
from repro.core.steering.subscriber import Subscriber
from repro.gridsim.clock import PeriodicHandle, Simulator
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import JobState
from repro.gridsim.scheduler import SphinxScheduler
from repro.gridsim.site import Site


@dataclass(frozen=True)
class SteeringAction:
    """One autonomous decision the steering loop acted on."""

    time: float
    task_id: str
    decision: MoveDecision
    result: Optional[CommandResult] = None


class SteeringService:
    """The §4 Steering Service."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: SphinxScheduler,
        services: Dict[str, ExecutionService],
        monitoring: JobMonitoringService,
        estimators: EstimatorService,
        accounting: Optional[QuotaAccountingService] = None,
        policy: Optional[SteeringPolicy] = None,
    ) -> None:
        self.sim = sim
        self.policy = policy if policy is not None else SteeringPolicy()
        self.subscriber = Subscriber()
        self.session_manager = SessionManager(self.subscriber)
        self.command_processor = CommandProcessor(self.subscriber, scheduler, services)
        self.monitoring = monitoring
        self.optimizer = Optimizer(
            sim=sim,
            policy=self.policy,
            subscriber=self.subscriber,
            monitoring=monitoring.executable,
            estimators=estimators,
            accounting=accounting,
        )
        self.backup_recovery = BackupRecovery(
            sim=sim,
            subscriber=self.subscriber,
            scheduler=scheduler,
            services=services,
            ping_interval_s=max(self.policy.poll_interval_s, 1.0),
        )
        #: Autonomous decisions taken by the steering loop.
        self.actions: List[SteeringAction] = []
        #: Optional learner watching manual moves (§1's "intelligent
        #: agents that could observe and learn from the actions of
        #: advanced users"); see :meth:`attach_agent`.
        self.agent = None
        self._loop_handle: Optional[PeriodicHandle] = None
        #: Set by a checkpoint restore to the next poll's original fire
        #: time so the steering cadence survives a restart phase-faithfully.
        self.resume_at: Optional[float] = None
        # Receive every concrete job plan the scheduler emits (§4.2.1).
        scheduler.plan_listeners.append(self.subscriber.receive_plan)

    def attach_site(self, site: Site) -> None:
        """Wire a site into Backup & Recovery."""
        self.backup_recovery.attach_site(site)

    def attach_agent(self, agent) -> None:
        """Let an :class:`AdaptiveSteeringAgent` observe manual moves."""
        self.agent = agent

    def adopt_policy(self, policy: SteeringPolicy) -> None:
        """Switch to a new steering policy (e.g. one learned by the agent).

        Takes effect immediately for decisions; if the periodic loop is
        running it is re-armed at the new poll interval.
        """
        was_running = self._loop_handle is not None
        if was_running:
            self.stop()
        self.policy = policy
        self.optimizer.policy = policy
        self.backup_recovery.ping_interval_s = max(policy.poll_interval_s, 1.0)
        if was_running:
            self.start()

    # ------------------------------------------------------------------
    # the autonomous steering loop
    # ------------------------------------------------------------------
    def steer_once(self) -> List[SteeringAction]:
        """One pass over every active task; returns actions taken."""
        taken: List[SteeringAction] = []
        for task in self.subscriber.active_tasks():
            if task.state is not JobState.RUNNING:
                continue
            decision = self.optimizer.evaluate(task.task_id)
            if not decision.should_move:
                continue
            result: Optional[CommandResult] = None
            if self.policy.auto_move:
                result = self.command_processor.move(
                    task.task_id, target_site=decision.target_site
                )
            action = SteeringAction(
                time=self.sim.now, task_id=task.task_id, decision=decision, result=result
            )
            self.actions.append(action)
            taken.append(action)
        return taken

    def start(self) -> "SteeringService":
        """Arm the steering loop and the Backup & Recovery sweep."""
        if self._loop_handle is not None:
            raise RuntimeError("steering service already started")
        self._loop_handle = self.sim.every(
            self.policy.poll_interval_s,
            self.steer_once,
            label="steering.loop",
            first_at=self.resume_at,
        )
        self.resume_at = None
        self.backup_recovery.start()
        return self

    @property
    def next_fire_time(self) -> Optional[float]:
        """Fire time of the pending steering poll (``None`` when stopped)."""
        if self._loop_handle is None:
            return None
        return self._loop_handle.next_time

    def stop(self) -> None:
        """Cancel both periodic activities."""
        if self._loop_handle is not None:
            self._loop_handle.cancel()
            self._loop_handle = None
        self.backup_recovery.stop()

    # ------------------------------------------------------------------
    # Clarens-exposed API (all ownership-checked by the Session Manager)
    # ------------------------------------------------------------------
    @clarens_method(pass_principal=True)
    def job_feedback(self, principal: Principal, job_id: str) -> List[Dict[str, object]]:
        """Constant feedback: monitoring structs for every task of a job."""
        self.session_manager.authorize_job(principal, job_id)
        return self.monitoring.job_tasks(job_id)

    @clarens_method(pass_principal=True)
    def task_progress(self, principal: Principal, task_id: str) -> Dict[str, object]:
        """Progress snapshot of one task."""
        self.session_manager.authorize(principal, task_id)
        record = self.monitoring.record_for(task_id)
        return {
            "task_id": task_id,
            "status": record.status,
            "progress": record.progress,
            "elapsed_time_s": record.elapsed_time_s,
            "remaining_time_s": record.remaining_time_s,
            "site": record.site,
        }

    @clarens_method(pass_principal=True)
    def kill(self, principal: Principal, task_id: str) -> Dict[str, object]:
        """Kill a task (§4 verb)."""
        self.session_manager.authorize(principal, task_id)
        return _result_to_wire(self.command_processor.kill(task_id))

    @clarens_method(pass_principal=True)
    def pause(self, principal: Principal, task_id: str) -> Dict[str, object]:
        """Pause a task (§4 verb)."""
        self.session_manager.authorize(principal, task_id)
        return _result_to_wire(self.command_processor.pause(task_id))

    @clarens_method(pass_principal=True)
    def resume(self, principal: Principal, task_id: str) -> Dict[str, object]:
        """Resume a paused task (§4 verb)."""
        self.session_manager.authorize(principal, task_id)
        return _result_to_wire(self.command_processor.resume(task_id))

    @clarens_method(pass_principal=True)
    def set_priority(
        self, principal: Principal, task_id: str, priority: int
    ) -> Dict[str, object]:
        """Change a task's priority (§4 verb)."""
        self.session_manager.authorize(principal, task_id)
        return _result_to_wire(self.command_processor.set_priority(task_id, priority))

    @clarens_method(pass_principal=True)
    def move(
        self, principal: Principal, task_id: str, target_site: str = ""
    ) -> Dict[str, object]:
        """Move a task to a better site (§4 verb).

        With an empty *target_site* the scheduler chooses — "note that the
        user could have moved the job from site A to site B manually as
        well" (§7).  Manual moves are fed to the adaptive agent when one is
        attached, so the autonomous policy can learn from experts.
        """
        self.session_manager.authorize(principal, task_id)
        if self.agent is not None and principal.user != OPTIMIZER_PRINCIPAL.user:
            try:
                record = self.monitoring.record_for(task_id)
                self.agent.observe_manual_move(self.sim.now, record)
            except Exception:
                pass  # learning must never block a user's command
        return _result_to_wire(
            self.command_processor.move(task_id, target_site=target_site or None)
        )

    @clarens_method(pass_principal=True)
    def evaluate_move(self, principal: Principal, task_id: str) -> Dict[str, object]:
        """Ask the optimizer's opinion without acting on it.

        This is the API through which "advanced users can also make such
        rescheduling decisions" (§7).
        """
        self.session_manager.authorize(principal, task_id)
        d = self.optimizer.evaluate(task_id)
        return {
            "task_id": d.task_id,
            "should_move": d.should_move,
            "reason": d.reason,
            "current_site": d.current_site,
            "target_site": d.target_site,
            "progress_rate": d.progress_rate,
            "remaining_here_s": d.remaining_here_s,
            "best_alternative_s": d.best_alternative_s,
            "candidates": dict(d.candidates),
        }

    @clarens_method(pass_principal=True)
    def my_jobs(self, principal: Principal) -> List[Dict[str, object]]:
        """Summaries of every subscribed job the caller owns."""
        out: List[Dict[str, object]] = []
        for job in self.subscriber.jobs():
            if job.owner != principal.user:
                continue
            sub = self.subscriber.subscription(job.job_id)
            out.append(
                {
                    "job_id": job.job_id,
                    "state": job.state.value,
                    "tasks": len(job.tasks),
                    "completed": sum(
                        1 for t in job.tasks if t.state.value == "completed"
                    ),
                    "sites": sub.execution_sites,
                    "description": job.description,
                }
            )
        return out

    @clarens_method(pass_principal=True)
    def notifications(self, principal: Principal) -> List[Dict[str, object]]:
        """Backup & Recovery notifications addressed to the caller."""
        return [
            {
                "time": n.time,
                "kind": n.kind,
                "task_id": n.task_id,
                "job_id": n.job_id,
                "site": n.site,
                "detail": n.detail,
            }
            for n in self.backup_recovery.notifications
            if n.owner == principal.user
        ]

    @clarens_method(pass_principal=True)
    def download_execution_state(
        self, principal: Principal, task_id: str
    ) -> Dict[str, object]:
        """The archived execution state of a completed task (§4.2.4)."""
        self.session_manager.authorize(principal, task_id)
        try:
            return dict(self.backup_recovery.execution_states[task_id])
        except KeyError:
            raise RuntimeError(f"no execution state archived for {task_id!r}") from None


def _result_to_wire(result: CommandResult) -> Dict[str, object]:
    return {
        "command": result.command,
        "task_id": result.task_id,
        "ok": result.ok,
        "detail": result.detail,
    }
