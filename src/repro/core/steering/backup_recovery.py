"""Backup and Recovery (§4.2.4).

"This module continuously checks all the Execution Services (on which the
different tasks of a job are running) for failure.  In case of the failure
of the Execution Service, the Backup and Recovery module contacts Sphinx to
allocate a new execution service.  The scheduler will then resubmit the job
on that new execution service.

If a running job fails, the Steering Service notifies the client about the
failure.  It then contacts the execution service to get all the local files
that were produced by the failed job.  For completed jobs, the Backup and
Recovery module notifies the client about the completion of the job and
gets the execution state from the execution service.  This execution state
is made available for download on the web interface."

All three behaviours are implemented: the periodic service-failure sweep
with scheduler-driven resubmission, per-task failure handling (notify +
salvage local files + optional resubmit), and completion handling (notify +
archive the execution state for download).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.steering.subscriber import Subscriber
from repro.gridsim.clock import PeriodicHandle, Simulator
from repro.gridsim.condor import CondorJobAd
from repro.gridsim.execution import ExecutionService, ExecutionServiceDown
from repro.gridsim.job import JobState
from repro.gridsim.scheduler import SchedulingError, SphinxScheduler
from repro.gridsim.site import Site


@dataclass(frozen=True)
class ClientNotification:
    """One message the steering service pushed to the job's owner."""

    time: float
    kind: str            # "failure" | "completion" | "resubmission" | "service-failure"
    task_id: str
    job_id: str
    site: str
    owner: str
    detail: str = ""


class BackupRecovery:
    """Failure detection, resubmission, and result salvage."""

    def __init__(
        self,
        sim: Simulator,
        subscriber: Subscriber,
        scheduler: SphinxScheduler,
        services: Dict[str, ExecutionService],
        ping_interval_s: float = 60.0,
        resubmit_failed_tasks: bool = True,
    ) -> None:
        if ping_interval_s <= 0:
            raise ValueError("ping interval must be positive")
        self.sim = sim
        self.subscriber = subscriber
        self.scheduler = scheduler
        self._services = services
        self.ping_interval_s = ping_interval_s
        self.resubmit_failed_tasks = resubmit_failed_tasks
        #: Everything the client was told, in order.
        self.notifications: List[ClientNotification] = []
        #: Local files salvaged from failed tasks, per task id.
        self.recovered_files: Dict[str, List[str]] = {}
        #: Execution states archived "for download" after completion.
        self.execution_states: Dict[str, Dict[str, object]] = {}
        #: Sites confirmed down by the ping sweep.
        self.failed_sites: Set[str] = set()
        self._resubmitted: Set[tuple] = set()  # (task_id, failed_site) pairs
        self._handle: Optional[PeriodicHandle] = None
        #: Set by a checkpoint restore to the next sweep's original fire
        #: time so the ping cadence survives a restart phase-faithfully.
        self.resume_at: Optional[float] = None
        self.notification_listeners: List[Callable[[ClientNotification], None]] = []
        #: Called as (task_id, files) after local files are salvaged from a
        #: failed task, and as (task_id, state) after a completed task's
        #: execution state is archived for download — the observability
        #: layer records both as ``output-retrieved`` journal events.
        self.salvage_listeners: List[Callable[[str, List[str]], None]] = []
        self.archive_listeners: List[Callable[[str, Dict[str, object]], None]] = []

    # ------------------------------------------------------------------
    def _notify(self, kind: str, ad: CondorJobAd, site: str, detail: str = "") -> None:
        note = ClientNotification(
            time=self.sim.now,
            kind=kind,
            task_id=ad.task_id,
            job_id=ad.task.job_id or "",
            site=site,
            owner=ad.task.spec.owner,
            detail=detail,
        )
        self.notifications.append(note)
        for cb in list(self.notification_listeners):
            cb(note)

    def attach_site(self, site: Site) -> None:
        """Subscribe to a site pool's terminal callbacks."""

        def on_failed(ad: CondorJobAd) -> None:
            self._handle_task_failure(ad, site.name)

        def on_complete(ad: CondorJobAd) -> None:
            self._handle_task_completion(ad, site.name)

        site.pool.on_failed.append(on_failed)
        site.pool.on_complete.append(on_complete)

    # ------------------------------------------------------------------
    # per-task terminal handling
    # ------------------------------------------------------------------
    def _handle_task_failure(self, ad: CondorJobAd, site_name: str) -> None:
        self._notify("failure", ad, site_name, detail="task failed")
        service = self._services.get(site_name)
        service_up = False
        if service is not None:
            try:
                # "contacts the execution service to get all the local
                # files that were produced by the failed job"
                files = service.retrieve_local_files(ad.task_id)
                self.recovered_files[ad.task_id] = files
                for cb in list(self.salvage_listeners):
                    cb(ad.task_id, files)
                service_up = True
            except ExecutionServiceDown:
                # The whole service is gone; the ping sweep will resubmit.
                pass
        if (service_up and self.resubmit_failed_tasks
                and (ad.task_id, site_name) not in self._resubmitted):
            self._resubmit(ad, site_name, reason="task failure")

    def _handle_task_completion(self, ad: CondorJobAd, site_name: str) -> None:
        self._notify("completion", ad, site_name, detail="task completed")
        service = self._services.get(site_name)
        if service is None:
            return
        try:
            # "gets the execution state from the execution service. This
            # execution state is made available for download."
            state = service.execution_state(ad.task_id)
            self.execution_states[ad.task_id] = state
            for cb in list(self.archive_listeners):
                cb(ad.task_id, state)
        except ExecutionServiceDown:
            pass

    def _resubmit(self, ad: CondorJobAd, failed_site: str, reason: str) -> None:
        try:
            new_site = self.scheduler.resubmit_task(ad.task_id, exclude={failed_site})
        except SchedulingError as exc:
            self._notify(
                "resubmission", ad, failed_site,
                detail=f"resubmission impossible: {exc}",
            )
            return
        self._resubmitted.add((ad.task_id, failed_site))
        self._notify(
            "resubmission", ad, failed_site,
            detail=f"resubmitted to {new_site} after {reason}",
        )

    # ------------------------------------------------------------------
    # the periodic service sweep
    # ------------------------------------------------------------------
    def check_services(self) -> List[str]:
        """Ping every execution service in use; recover from the dead ones.

        Returns the names of sites found down in this sweep.
        """
        down: List[str] = []
        # Previously failed sites are re-pinged even when no current plan
        # uses them, so recovery is noticed and the failed set stays honest.
        to_check = self.subscriber.execution_sites_in_use() | self.failed_sites
        for site_name in sorted(to_check):
            service = self._services.get(site_name)
            if service is None:
                continue
            try:
                service.ping()
                if site_name in self.failed_sites:
                    self.failed_sites.discard(site_name)
                    # The site survived its outage: forget its resubmission
                    # guards, so a task lost to a *later* outage of the same
                    # site (flapping) is eligible for resubmission again.
                    # The guard only spans one outage, not the site's life.
                    self._resubmitted = {
                        pair for pair in self._resubmitted if pair[1] != site_name
                    }
            except ExecutionServiceDown:
                down.append(site_name)
                if site_name not in self.failed_sites:
                    self.failed_sites.add(site_name)
                    self._recover_site(site_name)
        return down

    def _recover_site(self, site_name: str) -> None:
        """Resubmit every casualty of a failed execution service."""
        for sub in [self.subscriber.subscription(j.job_id) for j in self.subscriber.jobs()]:
            for task in sub.job.tasks:
                if sub.plan.site_for(task.task_id) != site_name:
                    continue
                if task.state is JobState.COMPLETED:
                    continue
                if (task.task_id, site_name) in self._resubmitted:
                    continue
                # Build a minimal ad-like view for notification purposes.
                fake_ad = CondorJobAd(
                    task=task, condor_id=-1, priority=task.priority,
                    submit_time=self.sim.now, state=task.state,
                )
                self._notify(
                    "service-failure", fake_ad, site_name,
                    detail=f"execution service {site_name} unreachable",
                )
                self._resubmit(fake_ad, site_name, reason="execution service failure")

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Every accumulated recovery artefact as JSON-safe data."""
        return {
            "notifications": [asdict(n) for n in self.notifications],
            "recovered_files": {
                task_id: list(files)
                for task_id, files in self.recovered_files.items()
            },
            "execution_states": {
                task_id: dict(state)
                for task_id, state in self.execution_states.items()
            },
            "failed_sites": sorted(self.failed_sites),
            "resubmitted": sorted(
                [task_id, site] for task_id, site in self._resubmitted
            ),
        }

    def import_state(self, state: Dict[str, object]) -> None:
        """Replace the accumulated artefacts from :meth:`export_state`.

        Notification listeners do not re-fire — the client was already
        told; a restore must not tell them twice.
        """
        self.notifications = [
            ClientNotification(**n) for n in state["notifications"]  # type: ignore[union-attr]
        ]
        self.recovered_files = {
            task_id: list(files)
            for task_id, files in state["recovered_files"].items()  # type: ignore[union-attr]
        }
        self.execution_states = {
            task_id: dict(s)
            for task_id, s in state["execution_states"].items()  # type: ignore[union-attr]
        }
        self.failed_sites = set(state["failed_sites"])  # type: ignore[arg-type]
        self._resubmitted = {
            (task_id, site) for task_id, site in state["resubmitted"]  # type: ignore[union-attr]
        }

    def start(self) -> "BackupRecovery":
        """Begin the periodic ping sweep under the simulation clock."""
        if self._handle is not None:
            raise RuntimeError("backup & recovery already started")
        self._handle = self.sim.every(
            self.ping_interval_s,
            self.check_services,
            label="steering.backup_recovery",
            first_at=self.resume_at,
        )
        self.resume_at = None
        return self

    @property
    def next_fire_time(self) -> Optional[float]:
        """Fire time of the pending sweep (``None`` when not running)."""
        if self._handle is None:
            return None
        return self._handle.next_time

    def stop(self) -> None:
        """Cancel the periodic sweep."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
