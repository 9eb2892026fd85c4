"""The per-site Execution Service.

Every site exposes one of these (§3: the Job Monitoring Service "operat[es]
in close interaction with an execution service (which can be based on any
execution engine such as Condor)").  It is the only interface the paper's
services use to touch a pool:

- the scheduler submits tasks and asks for runtime estimates (§6.1 step a–c:
  each execution site hosts a runtime estimator and returns estimates to the
  scheduler),
- the job monitoring service's Job Information Collector polls it,
- the steering service's Command Processor drives job control through it,
- Backup & Recovery pings it to detect failure.

The service can be *taken down* (:meth:`fail`) to exercise the Backup &
Recovery path: a failed service raises :class:`ExecutionServiceDown` from
every method, and (by default) its pool crashes with it, failing all
resident tasks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.gridsim.condor import CondorJobAd, CondorPool
from repro.gridsim.job import JobState, Task
from repro.gridsim.site import Site


class ExecutionServiceDown(RuntimeError):
    """Raised by every method of a failed execution service."""


class ExecutionService:
    """Job-control and estimate interface to one site's pool.

    Parameters
    ----------
    site:
        The site whose pool this service fronts.
    runtime_estimator:
        Optional callable ``(TaskSpec) -> float`` giving the site-local
        runtime estimate (§6.1).  Installed later by the estimator service;
        until then :meth:`estimate_runtime` raises.

    The estimator service may additionally attach an incremental
    :class:`~repro.core.estimators.queue_time.QueueAccounting` (stored on
    :attr:`queue_accounting`), which follows this pool's submit / start /
    complete / kill events and keeps per-priority-band sums of the queued
    tasks' estimated-remaining runtimes, so queue-wait estimates for the
    steering optimizer need no queue scan.
    """

    def __init__(
        self,
        site: Site,
        runtime_estimator: Optional[Callable[[object], float]] = None,
    ) -> None:
        self.site = site
        self.runtime_estimator = runtime_estimator
        #: Incremental per-band queue accounting, if attached (see
        #: :meth:`repro.core.estimators.queue_time.QueueTimeEstimator.attach`).
        self.queue_accounting: Optional[object] = None
        #: Called as (service, up) on every :meth:`fail` / :meth:`recover`
        #: transition; the observability layer exposes this as the
        #: ``gae_execution_service_up`` gauge.
        self.lifecycle_listeners: List[Callable[["ExecutionService", bool], None]] = []
        self._failed = False

    def _notify_lifecycle(self, up: bool) -> None:
        for listener in list(self.lifecycle_listeners):
            listener(self, up)

    # ------------------------------------------------------------------
    # availability
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Service name, derived from the site name."""
        return f"execution.{self.site.name}"

    @property
    def pool(self) -> CondorPool:
        return self.site.pool

    def _check_up(self) -> None:
        if self._failed:
            raise ExecutionServiceDown(f"execution service at {self.site.name} is down")

    def ping(self) -> bool:
        """Liveness probe used by Backup & Recovery.

        Returns True when healthy; raises :class:`ExecutionServiceDown`
        when failed (mirroring an unreachable endpoint).
        """
        self._check_up()
        return True

    def fail(self, crash_pool: bool = True) -> List[CondorJobAd]:
        """Take the service down (failure injection).

        With ``crash_pool`` (the default) every resident task fails too,
        matching the paper's scenario where losing the execution service
        loses the jobs it managed.  Returns the failed ads.
        """
        self._failed = True
        self._notify_lifecycle(False)
        if crash_pool:
            return self.pool.crash()
        return []

    def recover(self) -> None:
        """Bring the service back up (empty pool, fresh start)."""
        self._failed = False
        self._notify_lifecycle(True)

    @property
    def failed(self) -> bool:
        """Whether the service is currently down (checkpoint-visible)."""
        return self._failed

    def restore_availability(self, failed: bool) -> None:
        """Set the up/down flag without firing lifecycle listeners.

        Used on restore: the original transition already fired (and was
        journalled); replaying state must not re-announce it.
        """
        self._failed = bool(failed)

    # ------------------------------------------------------------------
    # scheduling interface
    # ------------------------------------------------------------------
    def submit_task(self, task: Task, initial_work: float = 0.0) -> int:
        """Submit a task to the pool; returns its Condor id."""
        self._check_up()
        return self.pool.submit(task, initial_work=initial_work)

    def estimate_runtime(self, spec, fallback: Optional[float] = None) -> float:
        """Site-local history-based runtime estimate for a task spec (§6.1).

        Raises RuntimeError until an estimator has been installed — the
        paper notes availability of the estimator at each site is not
        guaranteed ("this depends on the availability of the runtime
        estimator at each of the sites").  Given a *fallback*, an
        estimator with a ``value_or`` form (the §6.1
        :class:`~repro.core.estimators.runtime.RuntimeEstimator`) answers
        it where it has no estimate, instead of raising.
        """
        self._check_up()
        if self.runtime_estimator is None:
            raise RuntimeError(f"no runtime estimator installed at {self.site.name}")
        value_or = getattr(self.runtime_estimator, "value_or", None)
        if fallback is not None and value_or is not None:
            return float(value_or(spec, fallback))
        return float(self.runtime_estimator(spec))

    @property
    def has_estimator(self) -> bool:
        """Whether a site-local runtime estimator is installed."""
        return self.runtime_estimator is not None

    # ------------------------------------------------------------------
    # monitoring interface
    # ------------------------------------------------------------------
    def job_status(self, task_id: str) -> CondorJobAd:
        """Fresh job ad (accruals synced) for a resident task."""
        self._check_up()
        return self.pool.status(task_id)

    def has_task(self, task_id: str) -> bool:
        """Whether the pool knows this task."""
        self._check_up()
        return self.pool.has_task(task_id)

    def elapsed_runtime(self, task_id: str) -> float:
        """Condor accumulated wall-clock time for the task."""
        self._check_up()
        return self.pool.status(task_id).elapsed_runtime()

    def queue_info(self) -> List[CondorJobAd]:
        """Idle queue in dispatch order."""
        self._check_up()
        return self.pool.queue_snapshot()

    def running_info(self, job_id: Optional[str] = None) -> List[CondorJobAd]:
        """Running ads with synced accruals (of *job_id* only, given one)."""
        self._check_up()
        return self.pool.running_snapshot(job_id)

    def queue_position(self, task_id: str) -> int:
        """0-based idle-queue position, or -1."""
        self._check_up()
        return self.pool.queue_position(task_id)

    def tasks_ahead_of(self, task_id: str) -> List[CondorJobAd]:
        """Input set for the Queue Time Estimator (§6.2)."""
        self._check_up()
        return self.pool.tasks_ahead_of(task_id)

    def current_load(self) -> float:
        """Load figure published to the MonALISA repository."""
        self._check_up()
        return self.pool.current_load()

    # ------------------------------------------------------------------
    # steering interface (job-control verbs)
    # ------------------------------------------------------------------
    def pause_task(self, task_id: str) -> None:
        """Suspend a running task."""
        self._check_up()
        self.pool.pause(task_id)

    def resume_task(self, task_id: str) -> None:
        """Resume a suspended task."""
        self._check_up()
        self.pool.resume(task_id)

    def kill_task(self, task_id: str) -> None:
        """Remove a task."""
        self._check_up()
        self.pool.kill(task_id)

    def set_task_priority(self, task_id: str, priority: int) -> None:
        """Change a task's priority."""
        self._check_up()
        self.pool.set_priority(task_id, priority)

    def vacate_task(self, task_id: str) -> CondorJobAd:
        """Evict a task for relocation; returns its final ad."""
        self._check_up()
        return self.pool.vacate(task_id)

    def retrieve_local_files(self, task_id: str) -> List[str]:
        """Output files a (failed or completed) task left at this site.

        Backup & Recovery calls this after a failure: "It then contacts the
        execution service to get all the local files that were produced by
        the failed job" (§4.2.4).
        """
        self._check_up()
        ad = self.pool.ad(task_id)
        if ad.state in (JobState.COMPLETED, JobState.FAILED):
            if ad.local_output_files:
                return list(ad.local_output_files)
            # A failed task leaves whatever partial outputs it declared.
            return [f"{name}.partial" for name in ad.task.spec.output_files]
        return []

    def execution_state(self, task_id: str) -> Dict[str, object]:
        """A serialisable summary of the task's execution at this site.

        Backup & Recovery publishes this for download after completion
        ("gets the execution state from the execution service. This
        execution state is made available for download", §4.2.4).
        """
        self._check_up()
        ad = self.pool.ad(task_id)
        return {
            "task_id": ad.task_id,
            "condor_id": ad.condor_id,
            "site": self.site.name,
            "state": ad.state.value,
            "submit_time": ad.submit_time,
            "start_time": ad.start_time,
            "end_time": ad.end_time,
            "accrued_work": ad.accrued_work,
            "progress": ad.progress,
            "priority": ad.priority,
            "owner": ad.task.spec.owner,
            "output_files": list(ad.local_output_files),
        }
